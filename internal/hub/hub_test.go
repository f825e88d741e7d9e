package hub

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/device"
	"repro/internal/event"
	"repro/internal/gateway"
	"repro/internal/simhome"
)

// Training is the expensive part of every hub test, and the trained
// context is immutable (gateways only read it), so one context is shared
// by the whole package.
var (
	trainOnce sync.Once
	trainedH  *simhome.Home
	trainedC  *core.Context
	trainErr  error
)

func trained(t testing.TB) (*simhome.Home, *core.Context) {
	t.Helper()
	trainOnce.Do(func() {
		spec := simhome.SpecDHouseA()
		spec.Name = "hub-test"
		spec.Hours = 5 * 24
		h, err := simhome.New(spec, 21)
		if err != nil {
			trainErr = err
			return
		}
		trainW := 3 * 24 * 60
		tr := core.NewTrainer(h.Layout(), time.Minute)
		for i := 0; i < trainW; i++ {
			if err := tr.Calibrate(h.Window(i)); err != nil {
				trainErr = err
				return
			}
		}
		if err := tr.FinishCalibration(); err != nil {
			trainErr = err
			return
		}
		for i := 0; i < trainW; i++ {
			if err := tr.Learn(h.Window(i)); err != nil {
				trainErr = err
				return
			}
		}
		trainedH = h
		trainedC, trainErr = tr.Context()
	})
	if trainErr != nil {
		t.Fatal(trainErr)
	}
	return trainedH, trainedC
}

// homeStream is one tenant's replay: a 2-hour slice of the simulated home
// starting at a per-home hour offset, rebased to stream time zero. Odd
// homes get a spurious-bulb actuator fault so the workload produces real
// alerts, not just clean windows.
func homeStream(t testing.TB, h *simhome.Home, i int) []event.Event {
	t.Helper()
	src := h
	start := 3*24*60 + i*60
	if i%2 == 1 {
		bulb, ok := h.Registry().Lookup("bulb-kitchen")
		if !ok {
			t.Fatal("no kitchen bulb")
		}
		src = h.WithActuatorFaults(simhome.ActuatorFaults{
			Spurious:   map[device.ID]bool{bulb: true},
			Seed:       int64(100 + i),
			FromMinute: start,
		})
	}
	evts := src.Events(start, start+2*60)
	out := make([]event.Event, 0, len(evts))
	for _, e := range evts {
		e.At -= time.Duration(start) * time.Minute
		out = append(out, e)
	}
	return out
}

const streamEnd = 2 * time.Hour

var tenantGwOpts = []gateway.Option{
	gateway.WithConfig(core.Config{}),
	gateway.WithAlertBuffer(4096),
}

// soloRun replays one stream through a standalone gateway — the reference
// the hub must reproduce bit-identically per home.
func soloRun(t testing.TB, cctx *core.Context, evts []event.Event) (gateway.Stats, []gateway.Alert) {
	t.Helper()
	gw, err := gateway.New(cctx, tenantGwOpts...)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range evts {
		if err := gw.Ingest(e); err != nil {
			t.Fatal(err)
		}
	}
	if err := gw.AdvanceTo(streamEnd); err != nil {
		t.Fatal(err)
	}
	st := gw.Stats()
	if st.AlertsDropped != 0 {
		t.Fatalf("solo run dropped %d alerts; reference is unusable", st.AlertsDropped)
	}
	var alerts []gateway.Alert
	for {
		select {
		case a := <-gw.Alerts():
			alerts = append(alerts, a)
		default:
			return st, alerts
		}
	}
}

// collectAlerts drains the hub channel until every home has produced its
// expected count (read from tenant stats) or the deadline passes.
func collectAlerts(t testing.TB, h *Hub, want int) map[string][]gateway.Alert {
	t.Helper()
	byHome := make(map[string][]gateway.Alert)
	total := 0
	deadline := time.Now().Add(10 * time.Second)
	for total < want {
		select {
		case a := <-h.Alerts():
			byHome[a.Home] = append(byHome[a.Home], a.Alert)
			total++
		default:
			if time.Now().After(deadline) {
				t.Fatalf("collected %d/%d hub alerts before deadline", total, want)
			}
			time.Sleep(2 * time.Millisecond)
		}
	}
	return byHome
}

// TestHubBitIdenticalToSolo is the tentpole acceptance property: 8 homes
// replayed concurrently through one hub produce, per home, exactly the
// stats and alert sequence (Explain traces included) of 8 standalone
// gateway runs — at every shard count.
func TestHubBitIdenticalToSolo(t *testing.T) {
	h, cctx := trained(t)
	const homes = 8
	streams := make([][]event.Event, homes)
	wantStats := make([]gateway.Stats, homes)
	wantAlerts := make([][]gateway.Alert, homes)
	totalAlerts := 0
	for i := 0; i < homes; i++ {
		streams[i] = homeStream(t, h, i)
		wantStats[i], wantAlerts[i] = soloRun(t, cctx, streams[i])
		totalAlerts += len(wantAlerts[i])
	}
	if totalAlerts == 0 {
		t.Fatal("no home produced alerts; the comparison is vacuous")
	}

	for _, shards := range []int{1, 3, 8} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			hub, err := New(WithShards(shards), WithQueueDepth(64), WithAlertBuffer(4*totalAlerts+64))
			if err != nil {
				t.Fatal(err)
			}
			defer hub.Close()
			for i := 0; i < homes; i++ {
				if _, err := hub.Register(fmt.Sprintf("home-%d", i), cctx, tenantGwOpts...); err != nil {
					t.Fatal(err)
				}
			}
			var wg sync.WaitGroup
			errs := make(chan error, homes)
			for i := 0; i < homes; i++ {
				wg.Add(1)
				go func(i int) {
					defer wg.Done()
					home := fmt.Sprintf("home-%d", i)
					for _, e := range streams[i] {
						if err := hub.Ingest(home, e); err != nil {
							errs <- err
							return
						}
					}
					errs <- hub.Advance(home, streamEnd)
				}(i)
			}
			wg.Wait()
			close(errs)
			for err := range errs {
				if err != nil {
					t.Fatal(err)
				}
			}
			if err := hub.DrainAll(); err != nil {
				t.Fatal(err)
			}
			byHome := collectAlerts(t, hub, totalAlerts)
			for i := 0; i < homes; i++ {
				home := fmt.Sprintf("home-%d", i)
				tn, ok := hub.Tenant(home)
				if !ok {
					t.Fatalf("%s vanished", home)
				}
				if got := tn.Stats(); got != wantStats[i] {
					t.Errorf("%s stats diverged:\n hub:  %+v\n solo: %+v", home, got, wantStats[i])
				}
				if !reflect.DeepEqual(byHome[home], wantAlerts[i]) {
					t.Errorf("%s alert sequence diverged: got %d alerts, want %d",
						home, len(byHome[home]), len(wantAlerts[i]))
				}
			}
			if n := hub.met.ingestErrors.Value(); n != 0 {
				t.Errorf("hub recorded %d ingest errors on a valid replay", n)
			}
		})
	}
}

// TestHubSlowConsumerLosesNoAlerts holds the hub's alert channel to one
// slot and reads nothing until the whole replay is in. The forwarder must
// wait for the consumer instead of dropping, so every alert of the home
// arrives, in the solo run's order, and the drop counter stays at zero.
func TestHubSlowConsumerLosesNoAlerts(t *testing.T) {
	h, cctx := trained(t)
	stream := homeStream(t, h, 1)
	_, want := soloRun(t, cctx, stream)
	if len(want) < 2 || len(want) > 64 {
		t.Fatalf("reference home raised %d alerts, want 2..64 to overflow a 1-slot buffer without overflowing the gateway's", len(want))
	}
	hub, err := New(WithShards(1), WithAlertBuffer(1))
	if err != nil {
		t.Fatal(err)
	}
	defer hub.Close()
	if _, err := hub.Register("home-a", cctx, tenantGwOpts...); err != nil {
		t.Fatal(err)
	}
	for _, e := range stream {
		if err := hub.Ingest("home-a", e); err != nil {
			t.Fatal(err)
		}
	}
	if err := hub.Advance("home-a", streamEnd); err != nil {
		t.Fatal(err)
	}
	if err := hub.DrainAll(); err != nil {
		t.Fatal(err)
	}
	got := collectAlerts(t, hub, len(want))["home-a"]
	if !reflect.DeepEqual(got, want) {
		t.Errorf("alert sequence diverged: got %d alerts, want %d", len(got), len(want))
	}
	if n := hub.Telemetry().SnapshotMap()[metricHubAlertsDropped]; n != 0 {
		t.Errorf("%s = %v, want 0", metricHubAlertsDropped, n)
	}
}

// TestHubEvictResumeFromCheckpoint replays one home in two halves with an
// eviction in between: the final state must match an uninterrupted solo
// run, proving the final checkpoint on Evict and the lazy restore on the
// first op after re-registration.
func TestHubEvictResumeFromCheckpoint(t *testing.T) {
	h, cctx := trained(t)
	stream := homeStream(t, h, 1)
	wantStats, wantAlerts := soloRun(t, cctx, stream)

	dir := t.TempDir()
	hub, err := New(WithShards(2), WithCheckpointDir(dir), WithAlertBuffer(4096))
	if err != nil {
		t.Fatal(err)
	}
	defer hub.Close()
	if _, err := hub.Register("casa", cctx, tenantGwOpts...); err != nil {
		t.Fatal(err)
	}
	half := len(stream) / 2
	for _, e := range stream[:half] {
		if err := hub.Ingest("casa", e); err != nil {
			t.Fatal(err)
		}
	}
	var firstHalf []gateway.Alert
	if err := hub.Drain("casa"); err != nil {
		t.Fatal(err)
	}
	tn, _ := hub.Tenant("casa")
	firstHalf = append(firstHalf, collectAlerts(t, hub, int(tn.Stats().Alerts))["casa"]...)
	if err := hub.Evict("casa"); err != nil {
		t.Fatal(err)
	}
	if _, ok := hub.Tenant("casa"); ok {
		t.Fatal("evicted tenant still registered")
	}
	cp, err := gateway.ReadCheckpoint(filepath.Join(dir, "casa.ckpt"))
	if err != nil {
		t.Fatal(err)
	}
	if cp.Home != "casa" {
		t.Errorf("checkpoint home = %q, want casa", cp.Home)
	}
	if cp.V != gateway.CheckpointVersion {
		t.Errorf("checkpoint v = %d, want %d", cp.V, gateway.CheckpointVersion)
	}

	if _, err := hub.Register("casa", cctx, tenantGwOpts...); err != nil {
		t.Fatal(err)
	}
	for _, e := range stream[half:] {
		if err := hub.Ingest("casa", e); err != nil {
			t.Fatal(err)
		}
	}
	if err := hub.Advance("casa", streamEnd); err != nil {
		t.Fatal(err)
	}
	if err := hub.Drain("casa"); err != nil {
		t.Fatal(err)
	}
	tn, _ = hub.Tenant("casa")
	got := tn.Stats()
	if got != wantStats {
		t.Errorf("stitched run diverged:\n hub:  %+v\n solo: %+v", got, wantStats)
	}
	rest := collectAlerts(t, hub, int(got.Alerts)-len(firstHalf))["casa"]
	stitched := append(firstHalf, rest...)
	if !reflect.DeepEqual(stitched, wantAlerts) {
		t.Errorf("stitched alerts diverged: got %d, want %d", len(stitched), len(wantAlerts))
	}
}

// TestHubRejectsForeignCheckpoint: a checkpoint stamped with another home
// must not restore into this tenant; the op is dropped and counted.
func TestHubRejectsForeignCheckpoint(t *testing.T) {
	h, cctx := trained(t)
	dir := t.TempDir()

	gw, err := gateway.New(cctx, tenantGwOpts...)
	if err != nil {
		t.Fatal(err)
	}
	cp := gw.ExportCheckpoint()
	cp.Home = "other"
	if err := gateway.WriteCheckpoint(filepath.Join(dir, "casa.ckpt"), cp); err != nil {
		t.Fatal(err)
	}

	hub, err := New(WithShards(1), WithCheckpointDir(dir))
	if err != nil {
		t.Fatal(err)
	}
	defer hub.Close()
	if _, err := hub.Register("casa", cctx, tenantGwOpts...); err != nil {
		t.Fatal(err)
	}
	stream := homeStream(t, h, 0)
	if err := hub.Ingest("casa", stream[0]); err != nil {
		t.Fatal(err)
	}
	if err := hub.Drain("casa"); err != nil {
		t.Fatal(err)
	}
	if n := hub.met.ingestErrors.Value(); n == 0 {
		t.Error("foreign checkpoint restored without complaint")
	}
	tn, _ := hub.Tenant("casa")
	if tn.Stats().Events != 0 {
		t.Error("event applied despite failed restore")
	}
}

// TestHubResizeMidStream rebalances the shard pool in the middle of a
// replay; detection output must not change.
func TestHubResizeMidStream(t *testing.T) {
	h, cctx := trained(t)
	stream := homeStream(t, h, 3)
	wantStats, _ := soloRun(t, cctx, stream)

	hub, err := New(WithShards(1), WithAlertBuffer(4096))
	if err != nil {
		t.Fatal(err)
	}
	defer hub.Close()
	if _, err := hub.Register("casa", cctx, tenantGwOpts...); err != nil {
		t.Fatal(err)
	}
	half := len(stream) / 2
	for _, e := range stream[:half] {
		if err := hub.Ingest("casa", e); err != nil {
			t.Fatal(err)
		}
	}
	if err := hub.Resize(3); err != nil {
		t.Fatal(err)
	}
	if got := hub.Shards(); got != 3 {
		t.Fatalf("shards = %d after resize, want 3", got)
	}
	for _, e := range stream[half:] {
		if err := hub.Ingest("casa", e); err != nil {
			t.Fatal(err)
		}
	}
	if err := hub.Advance("casa", streamEnd); err != nil {
		t.Fatal(err)
	}
	if err := hub.Drain("casa"); err != nil {
		t.Fatal(err)
	}
	tn, _ := hub.Tenant("casa")
	if got := tn.Stats(); got != wantStats {
		t.Errorf("resized run diverged:\n hub:  %+v\n solo: %+v", got, wantStats)
	}
	if n := hub.met.rebalances.Value(); n != 1 {
		t.Errorf("rebalances = %d, want 1", n)
	}
}

// TestHubIdleEviction: Run evicts a tenant that stops sending ops, with a
// final checkpoint on disk.
func TestHubIdleEviction(t *testing.T) {
	h, cctx := trained(t)
	dir := t.TempDir()
	hub, err := New(WithShards(1), WithCheckpointDir(dir), WithIdleEviction(50*time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	defer hub.Close()
	if _, err := hub.Register("casa", cctx, tenantGwOpts...); err != nil {
		t.Fatal(err)
	}
	stream := homeStream(t, h, 0)
	for _, e := range stream[:100] {
		if err := hub.Ingest("casa", e); err != nil {
			t.Fatal(err)
		}
	}
	ctx, cancel := context.WithCancel(context.Background())
	runDone := make(chan error, 1)
	go func() { runDone <- hub.Run(ctx, nil) }()
	deadline := time.Now().Add(5 * time.Second)
	for {
		if _, ok := hub.Tenant("casa"); !ok {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("idle tenant never evicted")
		}
		time.Sleep(10 * time.Millisecond)
	}
	cancel()
	if err := <-runDone; err != nil {
		t.Fatal(err)
	}
	if n := hub.met.evictions.Value(); n == 0 {
		t.Error("eviction counter never moved")
	}
	cp, err := gateway.ReadCheckpoint(filepath.Join(dir, "casa.ckpt"))
	if err != nil {
		t.Fatal(err)
	}
	if cp.Stats.Events != 100 {
		t.Errorf("checkpointed events = %d, want 100", cp.Stats.Events)
	}
}

// TestHubIdleEvictionSparesBusyTenant: idle eviction keys on each
// tenant's last applied op, so a tenant that ingests every 10 ms outlives
// many 50 ms idle timeouts while an idle tenant beside it is evicted.
func TestHubIdleEvictionSparesBusyTenant(t *testing.T) {
	h, cctx := trained(t)
	hub, err := New(WithShards(1), WithIdleEviction(50*time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	defer hub.Close()
	for _, home := range []string{"busy", "idle"} {
		if _, err := hub.Register(home, cctx, tenantGwOpts...); err != nil {
			t.Fatal(err)
		}
	}
	stream := homeStream(t, h, 0)
	if err := hub.Ingest("idle", stream[0]); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	runDone := make(chan error, 1)
	go func() { runDone <- hub.Run(ctx, nil) }()
	idleEvicted := false
	for i := 0; i < 30; i++ { // 300 ms: six idle timeouts
		if err := hub.Ingest("busy", stream[i]); err != nil {
			t.Fatalf("busy tenant refused op %d: %v", i, err)
		}
		if _, ok := hub.Tenant("idle"); !ok {
			idleEvicted = true
		}
		time.Sleep(10 * time.Millisecond)
	}
	cancel()
	if err := <-runDone; err != nil {
		t.Fatal(err)
	}
	if _, ok := hub.Tenant("busy"); !ok {
		t.Error("busy tenant was evicted as idle")
	}
	if !idleEvicted {
		t.Error("idle tenant never evicted")
	}
}

// TestHubShedsWhenQueueFull: with the worker parked and the queue full,
// TryIngest sheds (counted) while Ingest would block — backpressure and
// load-shedding are both real.
func TestHubShedsWhenQueueFull(t *testing.T) {
	_, cctx := trained(t)
	hub, err := New(WithShards(1), WithQueueDepth(2))
	if err != nil {
		t.Fatal(err)
	}
	defer hub.Close()
	if _, err := hub.Register("casa", cctx, tenantGwOpts...); err != nil {
		t.Fatal(err)
	}
	hub.mu.RLock()
	s := hub.shards[0]
	hub.mu.RUnlock()
	stall := make(chan struct{})
	release := sync.OnceFunc(func() { close(stall) })
	defer release() // the parked worker must be released even on a Fatalf
	s.depth.Add(1)
	s.ops <- op{kind: opStall, done: stall}
	// Wait for the worker to dequeue the stall and park, so the queue's
	// two slots are genuinely free.
	for deadline := time.Now().Add(5 * time.Second); len(s.ops) != 0; {
		if time.Now().After(deadline) {
			t.Fatal("worker never picked up the stall op")
		}
		time.Sleep(time.Millisecond)
	}
	e := event.Event{At: time.Second, Device: 0, Value: 1}
	for i := 0; i < 2; i++ {
		if err := hub.TryIngest("casa", e); err != nil {
			t.Fatalf("op %d shed with queue space free: %v", i, err)
		}
	}
	if err := hub.TryIngest("casa", e); err != ErrShed {
		t.Fatalf("full queue returned %v, want ErrShed", err)
	}
	if n := s.shed.Value(); n != 1 {
		t.Errorf("shed counter = %d, want 1", n)
	}
	release()
	if err := hub.Drain("casa"); err != nil {
		t.Fatal(err)
	}
	tn, _ := hub.Tenant("casa")
	if got := tn.Stats().Events; got != 2 {
		t.Errorf("events = %d after shedding, want 2", got)
	}
}

// TestHubUnknownHome: routing errors are immediate, not queued.
func TestHubUnknownHome(t *testing.T) {
	_, cctx := trained(t)
	hub, err := New(WithShards(1))
	if err != nil {
		t.Fatal(err)
	}
	defer hub.Close()
	if _, err := hub.Register("casa", cctx, tenantGwOpts...); err != nil {
		t.Fatal(err)
	}
	if err := hub.Ingest("nadie", event.Event{At: time.Second}); err == nil {
		t.Error("ingest for unregistered home accepted")
	}
	if err := hub.Evict("nadie"); err == nil {
		t.Error("evicting unregistered home succeeded")
	}
	if _, err := hub.Register("casa", cctx); err == nil {
		t.Error("double registration accepted")
	}
	if _, err := hub.Register("a/b", cctx); err == nil {
		t.Error("home ID with path separator accepted")
	}
	if _, err := hub.Register("", cctx); err == nil {
		t.Error("empty home ID accepted")
	}
}

// TestHubClosedHubRefusesEverything: Close is terminal.
func TestHubClosedHubRefusesEverything(t *testing.T) {
	_, cctx := trained(t)
	hub, err := New(WithShards(1))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := hub.Register("casa", cctx, tenantGwOpts...); err != nil {
		t.Fatal(err)
	}
	if err := hub.Close(); err != nil {
		t.Fatal(err)
	}
	if err := hub.Close(); err != nil {
		t.Fatal("second Close errored")
	}
	if err := hub.Ingest("casa", event.Event{At: time.Second}); err != ErrClosed {
		t.Errorf("ingest on closed hub: %v, want ErrClosed", err)
	}
	if _, err := hub.Register("otra", cctx); err != ErrClosed {
		t.Errorf("register on closed hub: %v, want ErrClosed", err)
	}
	if err := hub.Resize(2); err != ErrClosed {
		t.Errorf("resize on closed hub: %v, want ErrClosed", err)
	}
}

// TestHubCloseWritesCheckpoints: Close persists every tenant.
func TestHubCloseWritesCheckpoints(t *testing.T) {
	h, cctx := trained(t)
	dir := t.TempDir()
	hub, err := New(WithShards(2), WithCheckpointDir(dir))
	if err != nil {
		t.Fatal(err)
	}
	for _, home := range []string{"a", "b"} {
		if _, err := hub.Register(home, cctx, tenantGwOpts...); err != nil {
			t.Fatal(err)
		}
	}
	stream := homeStream(t, h, 0)
	for _, e := range stream[:50] {
		if err := hub.Ingest("a", e); err != nil {
			t.Fatal(err)
		}
	}
	if err := hub.Close(); err != nil {
		t.Fatal(err)
	}
	for _, home := range []string{"a", "b"} {
		if _, err := os.Stat(filepath.Join(dir, home+".ckpt")); err != nil {
			t.Errorf("no checkpoint for %s after Close: %v", home, err)
		}
	}
	cp, err := gateway.ReadCheckpoint(filepath.Join(dir, "a.ckpt"))
	if err != nil {
		t.Fatal(err)
	}
	if cp.Stats.Events != 50 {
		t.Errorf("checkpointed events = %d, want 50", cp.Stats.Events)
	}
}
