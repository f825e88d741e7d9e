package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/device"
	"repro/internal/event"
	"repro/internal/gateway"
	"repro/internal/hub"
	"repro/internal/simhome"
	"repro/internal/wire"
)

// Training is shared by the whole package: the trained context is
// immutable, and it is the expensive part of every drill.
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
		spec.Name = "cluster-test"
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

// homeStream is one home's replay: a 2-hour slice at a per-home offset,
// rebased to stream time zero; odd homes carry a spurious-bulb actuator
// fault so the drill produces real alerts with Explain traces.
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
// every cluster path must reproduce bit-identically per home.
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

// TestNewValidatesTimings: New rejects every timing the node's loops cannot
// run with — a non-positive heartbeat used to panic the ticker inside the
// goroutine Start launches — and accepts the timings the drills and the
// dice-hubd defaults use.
func TestNewValidatesTimings(t *testing.T) {
	ms := time.Millisecond
	cases := []struct {
		name  string
		opts  []Option
		valid bool
	}{
		{"defaults", nil, true},
		{"dice-hubd flag defaults", []Option{WithHeartbeat(500*ms, 2*time.Second, 5*time.Second), WithRetry(4, 50*ms), WithCallTimeout(5 * time.Second)}, true},
		{"package drills", []Option{WithHeartbeat(100*ms, 400*ms, 2*time.Second), WithRetry(4, 25*ms), WithCallTimeout(3 * time.Second)}, true},
		{"cluster bench", []Option{WithHeartbeat(100*ms, 400*ms, 1200*ms), WithRetry(6, 25*ms), WithCallTimeout(3 * time.Second)}, true},
		{"live fail-over drill", []Option{WithHeartbeat(200*ms, time.Second, 3*time.Second)}, true},
		{"no retries", []Option{WithRetry(0, 50*ms)}, true},
		{"dead equals suspect", []Option{WithHeartbeat(100*ms, time.Second, time.Second)}, true},
		{"zero heartbeat", []Option{WithHeartbeat(0, 2*time.Second, 5*time.Second)}, false},
		{"negative heartbeat", []Option{WithHeartbeat(-ms, 2*time.Second, 5*time.Second)}, false},
		{"zero suspect-after", []Option{WithHeartbeat(500*ms, 0, 5*time.Second)}, false},
		{"dead before suspect", []Option{WithHeartbeat(500*ms, 2*time.Second, time.Second)}, false},
		{"zero call timeout", []Option{WithCallTimeout(0)}, false},
		{"negative call timeout", []Option{WithCallTimeout(-time.Second)}, false},
		{"negative retries", []Option{WithRetry(-1, 50*ms)}, false},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			n, err := New("a", c.opts...)
			if c.valid {
				if err != nil {
					t.Fatalf("New: %v", err)
				}
				if err := n.Close(); err != nil {
					t.Fatal(err)
				}
				return
			}
			if err == nil {
				n.Close() //nolint:errcheck // the assertion already failed
				t.Fatal("New accepted an invalid timing")
			}
		})
	}
}

func TestOwnerDeterministicAndMinimalReshuffle(t *testing.T) {
	nodes := []string{"a", "b", "c"}
	homes := make([]string, 64)
	for i := range homes {
		homes[i] = fmt.Sprintf("home-%02d", i)
	}
	for _, h := range homes {
		if got, want := Owner(h, []string{"c", "a", "b"}), Owner(h, nodes); got != want {
			t.Fatalf("Owner(%q) depends on node order: %q vs %q", h, got, want)
		}
	}
	place := Placement(homes, nodes)
	total := 0
	for _, n := range nodes {
		if len(place[n]) == 0 {
			t.Errorf("node %q got no homes out of %d — rendezvous spread is broken", n, len(homes))
		}
		total += len(place[n])
	}
	if total != len(homes) {
		t.Fatalf("placement covers %d of %d homes", total, len(homes))
	}
	// Removing one node must re-place only that node's homes.
	survivors := []string{"a", "c"}
	for _, h := range homes {
		before, after := Owner(h, nodes), Owner(h, survivors)
		if before != "b" && before != after {
			t.Errorf("home %q moved %q→%q although %q did not die", h, before, after, before)
		}
		if before == "b" && (after != "a" && after != "c") {
			t.Errorf("home %q was orphaned: owner %q", h, after)
		}
	}
	if Owner("home-00", nil) != "" {
		t.Error("Owner over no nodes should be empty")
	}
}

func TestRelabelExposition(t *testing.T) {
	in := []byte("# HELP x things\nx{home=\"h1\"} 3\ny 7\n")
	var buf bytes.Buffer
	relabelExposition(&buf, in, "n1", false)
	want := "x{node=\"n1\",home=\"h1\"} 3\ny{node=\"n1\"} 7\n"
	if buf.String() != want {
		t.Fatalf("relabel:\n got %q\nwant %q", buf.String(), want)
	}
}

// testCluster wires n in-process nodes over loopback HTTP with a shared
// state tree and a full-mesh static peer table.
type testCluster struct {
	nodes []*Node
}

func newTestCluster(t testing.TB, ids []string, cctx *core.Context, catalog []string, opts func(id string) []Option) *testCluster {
	t.Helper()
	dir := t.TempDir()
	resolver := func(home string) (*core.Context, []gateway.Option, error) {
		return cctx, tenantGwOpts, nil
	}
	// Two-phase start: listeners first (so every peer table can carry real
	// addresses), then Start.
	nodes := make([]*Node, len(ids))
	addrs := make(map[string]string, len(ids))
	for i, id := range ids {
		base := []Option{
			WithCatalog(catalog, resolver),
			WithHubOptions(
				hub.WithShards(2),
				hub.WithCheckpointDir(dir),
				hub.WithWALDir(dir),
				hub.WithAlertBuffer(8192),
			),
			WithHeartbeat(100*time.Millisecond, 400*time.Millisecond, 2*time.Second),
			WithRetry(4, 25*time.Millisecond),
			WithCallTimeout(3 * time.Second),
			WithListen("127.0.0.1:0"),
		}
		if opts != nil {
			base = append(base, opts(id)...)
		}
		// Peers are patched in below once all addresses exist; New copies
		// the map, so build nodes first with an empty table.
		n, err := New(id, base...)
		if err != nil {
			t.Fatal(err)
		}
		nodes[i] = n
	}
	for i, n := range nodes {
		addrs[ids[i]] = n.Addr()
	}
	// Loops have not started yet, so the peer tables can be wired with the
	// real bound addresses before any goroutine reads them.
	for i, n := range nodes {
		for j, pid := range ids {
			if i == j {
				continue
			}
			if err := n.SetPeer(pid, addrs[pid]); err != nil {
				t.Fatal(err)
			}
		}
	}
	for _, n := range nodes {
		if err := n.Start(); err != nil {
			t.Fatal(err)
		}
	}
	t.Cleanup(func() {
		for _, n := range nodes {
			n.Close() //nolint:errcheck // drill teardown
		}
	})
	return &testCluster{nodes: nodes}
}

func (tc *testCluster) node(id string) *Node {
	for _, n := range tc.nodes {
		if n.id == id {
			return n
		}
	}
	return nil
}

// hostOf finds the unique live node hosting home.
func (tc *testCluster) hostOf(t testing.TB, home string) *Node {
	t.Helper()
	var host *Node
	for _, n := range tc.nodes {
		if n.closed.Load() {
			continue
		}
		if _, ok := n.h.Tenant(home); ok {
			if host != nil {
				t.Fatalf("home %q hosted on both %q and %q", home, host.id, n.id)
			}
			host = n
		}
	}
	if host == nil {
		t.Fatalf("home %q hosted nowhere", home)
	}
	return host
}

// sendStream ships evts for home through c in batches, gating each send so
// an orchestrator can freeze the cluster between acked batches.
func sendStream(t testing.TB, c *Client, gate *sync.RWMutex, home string, evts []event.Event, batch int) {
	t.Helper()
	ctx := context.Background()
	var buf []byte
	for lo := 0; lo < len(evts); lo += batch {
		hi := lo + batch
		if hi > len(evts) {
			hi = len(evts)
		}
		buf = wire.AppendReport(buf[:0], evts[lo:hi])
		gate.RLock()
		err := c.Send(ctx, home, buf)
		gate.RUnlock()
		if err != nil {
			t.Errorf("send %s batch @%d: %v", home, lo, err)
			return
		}
	}
	buf = wire.AppendAdvance(buf[:0], streamEnd)
	gate.RLock()
	err := c.Send(ctx, home, buf)
	gate.RUnlock()
	if err != nil {
		t.Errorf("advance %s: %v", home, err)
	}
}

// alertJSON renders an alert (Explain trace included) for byte comparison.
func alertJSON(t testing.TB, a gateway.Alert) string {
	t.Helper()
	b, err := json.Marshal(a)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// TestClusterMigrationBitIdentical hands one live tenant between nodes
// mid-stream and requires every home's final stats and last Explain trace
// to match a solo gateway replay exactly.
func TestClusterMigrationBitIdentical(t *testing.T) {
	h, cctx := trained(t)
	const homes = 4
	catalog := make([]string, homes)
	streams := make(map[string][]event.Event, homes)
	wantStats := make(map[string]gateway.Stats, homes)
	wantAlerts := make(map[string][]gateway.Alert, homes)
	for i := 0; i < homes; i++ {
		home := fmt.Sprintf("home-%02d", i)
		catalog[i] = home
		streams[home] = homeStream(t, h, i)
		wantStats[home], wantAlerts[home] = soloRun(t, cctx, streams[home])
	}

	tc := newTestCluster(t, []string{"a", "b"}, cctx, catalog, nil)
	client := &Client{Base: tc.node("a").Addr(), Retries: 10, Backoff: 25 * time.Millisecond}

	// First half of every stream.
	var gate sync.RWMutex
	halves := make(map[string]int, homes)
	for _, home := range catalog {
		halves[home] = len(streams[home]) / 2
	}
	var wg sync.WaitGroup
	for _, home := range catalog {
		wg.Add(1)
		go func(home string) {
			defer wg.Done()
			evts := streams[home][:halves[home]]
			var buf []byte
			for lo := 0; lo < len(evts); lo += 64 {
				hi := lo + 64
				if hi > len(evts) {
					hi = len(evts)
				}
				buf = wire.AppendReport(buf[:0], evts[lo:hi])
				if err := client.Send(context.Background(), home, buf); err != nil {
					t.Errorf("first half %s: %v", home, err)
					return
				}
			}
		}(home)
	}
	wg.Wait()
	if t.Failed() {
		t.FailNow()
	}

	// Live handoff: move an odd (alert-producing) home to the other node.
	victim := "home-01"
	src := tc.hostOf(t, victim)
	var dst *Node
	for _, n := range tc.nodes {
		if n != src {
			dst = n
		}
	}
	if err := src.Migrate(context.Background(), victim, dst.id); err != nil {
		t.Fatalf("migrate %s %s→%s: %v", victim, src.id, dst.id, err)
	}
	if got := tc.hostOf(t, victim); got != dst {
		t.Fatalf("after migration %s hosted on %q, want %q", victim, got.id, dst.id)
	}
	if src.met.handoffs.Value() != 1 {
		t.Errorf("source handoffs counter = %d, want 1", src.met.handoffs.Value())
	}

	// Second half rides the new placement (the client re-routes on 409s).
	for _, home := range catalog {
		wg.Add(1)
		go func(home string) {
			defer wg.Done()
			sendStream(t, client, &gate, home, streams[home][halves[home]:], 64)
		}(home)
	}
	wg.Wait()
	if t.Failed() {
		t.FailNow()
	}

	for _, home := range catalog {
		host := tc.hostOf(t, home)
		if err := host.h.Drain(home); err != nil {
			t.Fatal(err)
		}
		tn, _ := host.h.Tenant(home)
		if got := tn.Stats(); got != wantStats[home] {
			t.Errorf("%s on %s stats diverged:\n cluster: %+v\n solo:    %+v", home, host.id, got, wantStats[home])
		}
		last, ok := tn.LastAlert()
		if len(wantAlerts[home]) == 0 {
			if ok {
				t.Errorf("%s raised an alert solo never did", home)
			}
			continue
		}
		if !ok {
			t.Errorf("%s lost its last alert in the handoff", home)
			continue
		}
		want := wantAlerts[home][len(wantAlerts[home])-1]
		if alertJSON(t, last) != alertJSON(t, want) {
			t.Errorf("%s last alert Explain diverged:\n cluster: %s\n solo:    %s",
				home, alertJSON(t, last), alertJSON(t, want))
		}
	}
	// The migrated tenant's devices must not have gone dark from handoff
	// downtime (liveness rebase on adoption).
	tn, _ := tc.hostOf(t, victim).h.Tenant(victim)
	if st := tn.Stats(); st.DarkDevices != wantStats[victim].DarkDevices {
		t.Errorf("migration downtime changed dark devices: %d vs solo %d", st.DarkDevices, wantStats[victim].DarkDevices)
	}
}
