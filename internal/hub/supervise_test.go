package hub

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/event"
	"repro/internal/gateway"
	"repro/internal/wal"
)

// poisonValue is a sensor reading no simulated device ever produces; the
// poison hook panics on it, modelling an event that crashes the pipeline.
const poisonValue = 12345.5

func poisonHook(e event.Event) error {
	if e.Value == poisonValue {
		panic("poison event")
	}
	return nil
}

// waitHealth polls one home's supervision state until it reaches want.
func waitHealth(t *testing.T, h *Hub, home string, want Health) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		st, ok := h.Health(home)
		if ok && st == want {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("%s health = %v, never reached %v", home, st, want)
		}
		time.Sleep(time.Millisecond)
	}
}

// readDeadLetters parses a dead-letter JSONL file.
func readDeadLetters(t *testing.T, path string) []wal.DeadLetterEntry {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatalf("dead-letter file: %v", err)
	}
	defer f.Close()
	var out []wal.DeadLetterEntry
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		var e wal.DeadLetterEntry
		if err := json.Unmarshal(sc.Bytes(), &e); err != nil {
			t.Fatalf("dead-letter line %d: %v", len(out)+1, err)
		}
		out = append(out, e)
	}
	return out
}

func alertsEqual(got, want []gateway.Alert) bool {
	if len(got) == 0 && len(want) == 0 {
		return true
	}
	return reflect.DeepEqual(got, want)
}

// TestHubPoisonQuarantineIsolation is the supervision acceptance property:
// a poison event that panics one tenant's pipeline quarantines and restarts
// that tenant from checkpoint + WAL, dead-letters the event, and leaves
// every sibling bit-identical to a solo run — and the poisoned tenant
// itself ends bit-identical to a run that never saw the poison.
func TestHubPoisonQuarantineIsolation(t *testing.T) {
	h, cctx := trained(t)
	const homes = 3
	const victim = "home-1"
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

	cpDir, walDir := t.TempDir(), t.TempDir()
	hub, err := New(WithShards(2),
		WithCheckpointDir(cpDir), WithWALDir(walDir), WithWALSync(wal.SyncNever),
		WithAlertBuffer(4*totalAlerts+64), WithRestartBackoff(time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	defer hub.Close()
	for i := 0; i < homes; i++ {
		home := fmt.Sprintf("home-%d", i)
		opts := tenantGwOpts
		if home == victim {
			opts = append(append([]gateway.Option(nil), opts...), gateway.WithIngestHook(poisonHook))
		}
		if _, err := hub.Register(home, cctx, opts...); err != nil {
			t.Fatal(err)
		}
	}

	half := make([]int, homes)
	for i := 0; i < homes; i++ {
		half[i] = len(streams[i]) / 2
		home := fmt.Sprintf("home-%d", i)
		for _, e := range streams[i][:half[i]] {
			if err := hub.Ingest(home, e); err != nil {
				t.Fatal(err)
			}
		}
	}
	// Checkpoint right before the poison: replay after the restart then has
	// nothing to re-emit, keeping alert delivery exactly-once in this test
	// (in general it is at-least-once across a restart).
	if err := hub.CheckpointAll(); err != nil {
		t.Fatal(err)
	}

	vi := 1 // victim's stream index
	poison := event.Event{At: streams[vi][half[vi]].At, Device: streams[vi][half[vi]].Device, Value: poisonValue}
	if err := hub.Ingest(victim, poison); err != nil {
		t.Fatal(err)
	}
	if err := hub.Drain(victim); err != nil {
		t.Fatal(err)
	}
	waitHealth(t, hub, victim, HealthHealthy)
	if n := hub.met.panics.Value(); n != 1 {
		t.Errorf("panics = %d, want 1", n)
	}
	if n := hub.met.restarts.Value(); n != 1 {
		t.Errorf("restarts = %d, want 1", n)
	}

	for i := 0; i < homes; i++ {
		home := fmt.Sprintf("home-%d", i)
		for _, e := range streams[i][half[i]:] {
			if err := hub.Ingest(home, e); err != nil {
				t.Fatal(err)
			}
		}
		if err := hub.Advance(home, streamEnd); err != nil {
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
		if !alertsEqual(byHome[home], wantAlerts[i]) {
			t.Errorf("%s alert sequence diverged: got %d alerts, want %d",
				home, len(byHome[home]), len(wantAlerts[i]))
		}
	}
	if n := hub.met.droppedOps.Value(); n != 0 {
		t.Errorf("droppedOps = %d with no ops sent during quarantine", n)
	}

	// The poison event must be on the forensic record twice: once from the
	// live panic, once when WAL replay re-encountered and skipped it.
	dead := readDeadLetters(t, filepath.Join(walDir, victim+".dead.jsonl"))
	if len(dead) != 2 {
		t.Fatalf("dead-letter entries = %d, want 2 (live + replay)", len(dead))
	}
	for i, d := range dead {
		if d.Home != victim || d.Value != poisonValue {
			t.Errorf("dead[%d] = home %q value %v, want %q %v", i, d.Home, d.Value, victim, poisonValue)
		}
		if !strings.Contains(d.Panic, "poison") {
			t.Errorf("dead[%d].Panic = %q, want the panic value", i, d.Panic)
		}
	}
	if dead[0].Replayed || !dead[1].Replayed {
		t.Errorf("dead-letter replay flags = %v,%v, want false,true", dead[0].Replayed, dead[1].Replayed)
	}
}

// TestHubBreakerStaysQuarantined: repeated panics within the supervision
// window open the circuit breaker — the tenant stays quarantined, its ops
// are dropped (not applied, not crashing anything), and the health
// endpoint says so.
func TestHubBreakerStaysQuarantined(t *testing.T) {
	h, cctx := trained(t)
	stream := homeStream(t, h, 0)

	cpDir, walDir := t.TempDir(), t.TempDir()
	hub, err := New(WithShards(1),
		WithCheckpointDir(cpDir), WithWALDir(walDir), WithWALSync(wal.SyncNever),
		WithAlertBuffer(4096), WithRestartBackoff(time.Millisecond),
		WithSupervision(2, time.Minute))
	if err != nil {
		t.Fatal(err)
	}
	defer hub.Close()
	opts := append(append([]gateway.Option(nil), tenantGwOpts...), gateway.WithIngestHook(poisonHook))
	if _, err := hub.Register("casa", cctx, opts...); err != nil {
		t.Fatal(err)
	}
	const n = 50
	for _, e := range stream[:n] {
		if err := hub.Ingest("casa", e); err != nil {
			t.Fatal(err)
		}
	}
	at := stream[n].At

	// Strike one: quarantine, restart (cold + WAL replay), back to healthy.
	if err := hub.Ingest("casa", event.Event{At: at, Device: stream[n].Device, Value: poisonValue}); err != nil {
		t.Fatal(err)
	}
	if err := hub.Drain("casa"); err != nil {
		t.Fatal(err)
	}
	waitHealth(t, hub, "casa", HealthHealthy)

	// Strike two inside the window: the breaker opens, no restart comes.
	if err := hub.Ingest("casa", event.Event{At: at, Device: stream[n].Device, Value: poisonValue}); err != nil {
		t.Fatal(err)
	}
	if err := hub.Drain("casa"); err != nil {
		t.Fatal(err)
	}
	waitHealth(t, hub, "casa", HealthQuarantined)
	time.Sleep(20 * time.Millisecond) // several restart backoffs
	if st, _ := hub.Health("casa"); st != HealthQuarantined {
		t.Fatalf("health = %v after breaker trip, want quarantined", st)
	}
	if n := hub.met.breakerTrips.Value(); n == 0 {
		t.Error("breaker trip never counted")
	}

	// Ops for the broken tenant are dropped, not applied.
	if err := hub.Ingest("casa", stream[n]); err != nil {
		t.Fatal(err)
	}
	if err := hub.Drain("casa"); err != nil {
		t.Fatal(err)
	}
	if got := hub.met.droppedOps.Value(); got == 0 {
		t.Error("quarantined tenant's op was not counted as dropped")
	}
	tn, _ := hub.Tenant("casa")
	if got := tn.Stats().Events; got != n {
		t.Errorf("events = %d after quarantine, want %d (dropped op must not apply)", got, n)
	}

	// The health endpoint reports it.
	srv := httptest.NewServer(hub.HTTPHandler())
	defer srv.Close()
	for _, tc := range []struct {
		path, want string
		code       int
	}{
		{"/tenants/casa/health", "quarantined", 200},
		{"/tenants/nadie/health", "", 404},
	} {
		resp, err := srv.Client().Get(srv.URL + tc.path)
		if err != nil {
			t.Fatal(err)
		}
		body := make([]byte, 512)
		m, _ := resp.Body.Read(body)
		resp.Body.Close()
		if resp.StatusCode != tc.code {
			t.Errorf("GET %s = %d, want %d", tc.path, resp.StatusCode, tc.code)
		}
		if tc.want != "" && !strings.Contains(string(body[:m]), tc.want) {
			t.Errorf("GET %s body %q, want %q", tc.path, body[:m], tc.want)
		}
	}
}

// TestHubCrashRecoveryBitIdentical is the crash acceptance property: a hub
// abandoned without Close (SIGKILL semantics — no final checkpoint, no WAL
// close) restarts on the same directories and finishes the streams with
// stats and alerts bit-identical to uninterrupted solo runs. Zero windows
// lost; replay past the last checkpoint re-emits that span's alerts.
func TestHubCrashRecoveryBitIdentical(t *testing.T) {
	h, cctx := trained(t)
	const homes = 2
	streams := make([][]event.Event, homes)
	wantStats := make([]gateway.Stats, homes)
	wantAlerts := make([][]gateway.Alert, homes)
	for i := 0; i < homes; i++ {
		streams[i] = homeStream(t, h, i)
		wantStats[i], wantAlerts[i] = soloRun(t, cctx, streams[i])
	}

	cpDir, walDir := t.TempDir(), t.TempDir()
	newHub := func() *Hub {
		hub, err := New(WithShards(2),
			WithCheckpointDir(cpDir), WithWALDir(walDir), WithWALSync(wal.SyncNever),
			WithAlertBuffer(4096))
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < homes; i++ {
			if _, err := hub.Register(fmt.Sprintf("home-%d", i), cctx, tenantGwOpts...); err != nil {
				t.Fatal(err)
			}
		}
		return hub
	}

	// First incarnation: 40% of each stream, a checkpoint, then 20% more
	// that exists only in the WAL when the "crash" hits.
	hub1 := newHub()
	feed := func(hub *Hub, from, to func(n int) int) {
		for i := 0; i < homes; i++ {
			home := fmt.Sprintf("home-%d", i)
			n := len(streams[i])
			for _, e := range streams[i][from(n):to(n)] {
				if err := hub.Ingest(home, e); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	feed(hub1, func(n int) int { return 0 }, func(n int) int { return 4 * n / 10 })
	if err := hub1.CheckpointAll(); err != nil {
		t.Fatal(err)
	}
	cpAlerts := make([]int, homes)
	for i := 0; i < homes; i++ {
		tn, _ := hub1.Tenant(fmt.Sprintf("home-%d", i))
		cpAlerts[i] = int(tn.Stats().Alerts)
	}
	feed(hub1, func(n int) int { return 4 * n / 10 }, func(n int) int { return 6 * n / 10 })
	if err := hub1.DrainAll(); err != nil {
		t.Fatal(err)
	}
	// Crash: hub1 is abandoned with dirty state — no Close, no checkpoint.

	hub2 := newHub()
	defer hub2.Close()
	feed(hub2, func(n int) int { return 6 * n / 10 }, func(n int) int { return n })
	for i := 0; i < homes; i++ {
		if err := hub2.Advance(fmt.Sprintf("home-%d", i), streamEnd); err != nil {
			t.Fatal(err)
		}
	}
	if err := hub2.DrainAll(); err != nil {
		t.Fatal(err)
	}

	wantTotal := 0
	for i := 0; i < homes; i++ {
		wantTotal += len(wantAlerts[i]) - cpAlerts[i]
	}
	byHome := collectAlerts(t, hub2, wantTotal)
	for i := 0; i < homes; i++ {
		home := fmt.Sprintf("home-%d", i)
		tn, ok := hub2.Tenant(home)
		if !ok {
			t.Fatalf("%s vanished", home)
		}
		if got := tn.Stats(); got != wantStats[i] {
			t.Errorf("%s stats diverged after crash recovery:\n hub:  %+v\n solo: %+v", home, got, wantStats[i])
		}
		// The restarted hub re-emits everything after its last checkpoint:
		// the replayed 40–60% span plus the live tail.
		if !alertsEqual(byHome[home], wantAlerts[i][cpAlerts[i]:]) {
			t.Errorf("%s post-crash alerts diverged: got %d, want %d",
				home, len(byHome[home]), len(wantAlerts[i])-cpAlerts[i])
		}
	}
}

// TestHubOverloadShedsColdFirst: with an ingest deadline configured and a
// full shard queue, a cold tenant sheds immediately while a hot tenant
// spends the deadline waiting for a slot — and blocking Ingest converts
// the timeout into ErrDeadline instead of waiting forever.
func TestHubOverloadShedsColdFirst(t *testing.T) {
	_, cctx := trained(t)
	const deadline = 80 * time.Millisecond
	hub, err := New(WithShards(1), WithQueueDepth(2), WithIngestDeadline(deadline))
	if err != nil {
		t.Fatal(err)
	}
	defer hub.Close()
	for _, home := range []string{"hot", "cold"} {
		if _, err := hub.Register(home, cctx, tenantGwOpts...); err != nil {
			t.Fatal(err)
		}
	}
	hub.mu.RLock()
	s := hub.shards[0]
	hub.tenants["hot"].recentCur.Add(1000)
	hub.mu.RUnlock()

	stall := make(chan struct{})
	defer func() {
		select {
		case <-stall:
		default:
			close(stall)
		}
	}()
	s.depth.Add(1)
	s.ops <- op{kind: opStall, done: stall}
	for deadlineAt := time.Now().Add(5 * time.Second); len(s.ops) != 0; {
		if time.Now().After(deadlineAt) {
			t.Fatal("worker never picked up the stall op")
		}
		time.Sleep(time.Millisecond)
	}
	e := event.Event{At: time.Second, Device: 0, Value: 1}
	for i := 0; i < 2; i++ {
		if err := hub.TryIngest("hot", e); err != nil {
			t.Fatalf("fill op %d: %v", i, err)
		}
	}

	start := time.Now()
	if err := hub.TryIngest("cold", e); !errors.Is(err, ErrShed) {
		t.Fatalf("cold TryIngest = %v, want ErrShed", err)
	}
	if el := time.Since(start); el > deadline/2 {
		t.Errorf("cold tenant shed after %v, want immediate", el)
	}
	start = time.Now()
	if err := hub.TryIngest("hot", e); !errors.Is(err, ErrShed) {
		t.Fatalf("hot TryIngest = %v, want ErrShed", err)
	}
	if el := time.Since(start); el < deadline/2 {
		t.Errorf("hot tenant shed after %v, want ~the %v deadline", el, deadline)
	}
	start = time.Now()
	if err := hub.Ingest("hot", e); !errors.Is(err, ErrDeadline) {
		t.Fatalf("blocking Ingest on full queue = %v, want ErrDeadline", err)
	}
	if el := time.Since(start); el < deadline/2 {
		t.Errorf("blocking Ingest returned after %v, want ~the %v deadline", el, deadline)
	}
	if n := hub.met.deadlineSheds.Value(); n != 3 {
		t.Errorf("deadline sheds = %d, want 3", n)
	}
	if st, _ := hub.Health("cold"); st != HealthDegraded {
		t.Errorf("cold health = %v after shed, want degraded", st)
	}

	close(stall)
	if err := hub.DrainAll(); err != nil {
		t.Fatal(err)
	}
	tn, _ := hub.Tenant("hot")
	if got := tn.Stats().Events; got != 2 {
		t.Errorf("hot events = %d, want the 2 queued before overload", got)
	}
}

// TestHubCorruptCheckpointColdStart: a checkpoint that fails its checksum
// envelope is treated as absent — the tenant cold-starts and rebuilds the
// same state from full WAL replay, and the damage is counted.
func TestHubCorruptCheckpointColdStart(t *testing.T) {
	h, cctx := trained(t)
	stream := homeStream(t, h, 1)
	const n = 200

	ref, err := gateway.New(cctx, tenantGwOpts...)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range stream[:n] {
		if err := ref.Ingest(e); err != nil {
			t.Fatal(err)
		}
	}
	refStats := ref.Stats()

	cpDir, walDir := t.TempDir(), t.TempDir()
	mk := func() *Hub {
		hub, err := New(WithShards(1),
			WithCheckpointDir(cpDir), WithWALDir(walDir), WithWALSync(wal.SyncNever),
			WithAlertBuffer(4096))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := hub.Register("casa", cctx, tenantGwOpts...); err != nil {
			t.Fatal(err)
		}
		return hub
	}
	hub1 := mk()
	for _, e := range stream[:n] {
		if err := hub1.Ingest("casa", e); err != nil {
			t.Fatal(err)
		}
	}
	if err := hub1.Close(); err != nil {
		t.Fatal(err)
	}

	cpPath := filepath.Join(cpDir, "casa.ckpt")
	data, err := os.ReadFile(cpPath)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)-2] ^= 0x40
	if err := os.WriteFile(cpPath, data, 0o644); err != nil {
		t.Fatal(err)
	}

	hub2 := mk()
	defer hub2.Close()
	// CheckpointAll forces the lazy restore (corrupt file → cold start +
	// full WAL replay) and then overwrites the damage with a good file.
	if err := hub2.CheckpointAll(); err != nil {
		t.Fatal(err)
	}
	if got := hub2.met.corruptCkpts.Value(); got != 1 {
		t.Errorf("corrupt checkpoints = %d, want 1", got)
	}
	tn, _ := hub2.Tenant("casa")
	if got := tn.Stats(); got != refStats {
		t.Errorf("cold-start state diverged:\n hub:  %+v\n solo: %+v", got, refStats)
	}
	cp, err := gateway.ReadCheckpoint(cpPath)
	if err != nil {
		t.Fatalf("rewritten checkpoint unreadable: %v", err)
	}
	if cp.Stats.Events != n {
		t.Errorf("rewritten checkpoint events = %d, want %d", cp.Stats.Events, n)
	}
}

// TestHubLegacyCheckpointRefused: a checkpoint in a schema this build does
// not read is not damage. Restore fails with gateway.ErrLegacyCheckpoint
// instead of cold-starting, since a cold start would replay a WAL that was
// truncated behind that checkpoint, and the file is left in place.
func TestHubLegacyCheckpointRefused(t *testing.T) {
	_, cctx := trained(t)
	gw, err := gateway.New(cctx, tenantGwOpts...)
	if err != nil {
		t.Fatal(err)
	}
	cp := gw.ExportCheckpoint()
	cp.V, cp.Home = 3, "casa"
	env, err := gateway.EncodeCheckpoint(cp)
	if err != nil {
		t.Fatal(err)
	}
	cpDir := t.TempDir()
	cpPath := filepath.Join(cpDir, "casa.ckpt")
	if err := os.WriteFile(cpPath, env, 0o644); err != nil {
		t.Fatal(err)
	}

	hub, err := New(WithShards(1), WithCheckpointDir(cpDir), WithWALDir(t.TempDir()))
	if err != nil {
		t.Fatal(err)
	}
	tn, err := hub.Register("casa", cctx, tenantGwOpts...)
	if err != nil {
		t.Fatal(err)
	}
	if err := tn.Restore(); !errors.Is(err, gateway.ErrLegacyCheckpoint) {
		t.Errorf("restore over a v3 checkpoint: err = %v, want ErrLegacyCheckpoint", err)
	}
	if got := hub.met.corruptCkpts.Value(); got != 0 {
		t.Errorf("corrupt checkpoints = %d, want 0", got)
	}
	hub.Close() //nolint:errcheck // the tenant never restored; Close reports it
	if data, err := os.ReadFile(cpPath); err != nil || !bytes.Equal(data, env) {
		t.Errorf("legacy checkpoint was replaced (err %v)", err)
	}
}
