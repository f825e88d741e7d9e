package gateway

import (
	"encoding/json"
	"net"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"repro/internal/chaos"
	"repro/internal/coap"
	"repro/internal/core"
	"repro/internal/device"
	"repro/internal/event"
	"repro/internal/simhome"
)

// faultyAfternoon renders the standard robustness workload: an afternoon
// slice with the kitchen light fail-stopped 30 minutes in, rebased to
// stream time zero.
func faultyAfternoon(t testing.TB, h *simhome.Home, hours int) []event.Event {
	t.Helper()
	target, ok := h.Registry().Lookup("light-kitchen")
	if !ok {
		t.Fatal("no kitchen light")
	}
	start := 3*24*60 + 12*60
	var out []event.Event
	for _, e := range h.Events(start, start+hours*60) {
		e.At -= time.Duration(start) * time.Minute
		if e.Device == target && e.At >= 30*time.Minute {
			continue
		}
		out = append(out, e)
	}
	return out
}

func drainAlerts(gw *Gateway) []Alert {
	var out []Alert
	for {
		select {
		case a := <-gw.Alerts():
			out = append(out, a)
		default:
			return out
		}
	}
}

// replayThroughCoAP streams evts to a fresh gateway over a real UDP CoAP
// exchange, optionally through a chaotic link, and returns what the
// detector produced.
func replayThroughCoAP(t *testing.T, ctx *core.Context, evts []event.Event, cfg chaos.Config) (Stats, []Alert, coap.ServerStats, chaos.Stats) {
	t.Helper()
	gw, err := New(ctx, WithConfig(core.Config{}))
	if err != nil {
		t.Fatal(err)
	}
	front, err := ServeCoAP(gw, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer front.Close()

	var agent *Agent
	var link *chaos.Conn
	if cfg.Enabled() {
		inner, err := net.Dial("udp", front.Addr())
		if err != nil {
			t.Fatal(err)
		}
		link = chaos.WrapConn(inner, cfg)
		agent = NewAgentConn(link)
		agent.Client().AckTimeout = 20 * time.Millisecond
		agent.Client().MaxRetransmit = 12
		agent.Timeout = 60 * time.Second
	} else {
		agent, err = NewAgent(front.Addr())
		if err != nil {
			t.Fatal(err)
		}
	}

	for _, e := range evts {
		if err := agent.Report(e); err != nil {
			t.Fatal(err)
		}
	}
	if err := agent.Advance(4 * time.Hour); err != nil {
		t.Fatal(err)
	}
	if err := agent.Close(); err != nil {
		t.Fatal(err)
	}
	var ls chaos.Stats
	if link != nil {
		ls = link.Stats()
	}
	return gw.Stats(), drainAlerts(gw), front.ServerStats(), ls
}

// TestGatewayChaosBitIdentical is the headline robustness property: with
// >=10% datagram loss and duplication injected on the /report link, the
// CoAP retransmission + server dedup must make the detector's output —
// windows, violations, alerts — bit-identical to a lossless run.
func TestGatewayChaosBitIdentical(t *testing.T) {
	h, ctx := trainedHome(t)
	evts := faultyAfternoon(t, h, 4)

	cleanStats, cleanAlerts, _, _ := replayThroughCoAP(t, ctx, evts, chaos.Config{})
	chaosStats, chaosAlerts, srvStats, linkStats := replayThroughCoAP(t, ctx, evts,
		chaos.Config{Seed: 7, Drop: 0.12, Dup: 0.12})

	if linkStats.Dropped == 0 || linkStats.Dups == 0 {
		t.Fatalf("chaos link injected nothing: %+v", linkStats)
	}
	if srvStats.Deduped == 0 {
		t.Error("server never deduplicated despite duplication on the link")
	}
	// The transport counters differ by construction; the detector-visible
	// state must not.
	if cleanStats != chaosStats {
		t.Errorf("detector output diverged under chaos:\n clean: %+v\n chaos: %+v", cleanStats, chaosStats)
	}
	if cleanStats.Violations == 0 || cleanStats.Alerts == 0 {
		t.Error("workload produced no fault signal; the comparison is vacuous")
	}
	if !reflect.DeepEqual(cleanAlerts, chaosAlerts) {
		t.Errorf("alerts diverged under chaos:\n clean: %+v\n chaos: %+v", cleanAlerts, chaosAlerts)
	}
}

// TestGatewayCheckpointRestartResume kills the gateway mid-window, restores
// a second instance from the checkpoint file, and requires the stitched run
// to match an uninterrupted one exactly — in particular no spurious
// transition-check violation on the first post-restart window.
func TestGatewayCheckpointRestartResume(t *testing.T) {
	h, ctx := trainedHome(t)
	evts := faultyAfternoon(t, h, 4)

	// Reference: one uninterrupted gateway.
	ref, err := New(ctx, WithConfig(core.Config{}))
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range evts {
		if err := ref.Ingest(e); err != nil {
			t.Fatal(err)
		}
	}
	if err := ref.AdvanceTo(4 * time.Hour); err != nil {
		t.Fatal(err)
	}
	refStats, refAlerts := ref.Stats(), drainAlerts(ref)
	if refStats.Violations == 0 || refStats.Alerts == 0 {
		t.Fatal("reference run produced no fault signal; restart test is vacuous")
	}

	// Split run: crash mid-window at 2h30m30s, checkpoint to disk, restore.
	cut := 2*time.Hour + 30*time.Minute + 30*time.Second
	gw1, err := New(ctx, WithConfig(core.Config{}))
	if err != nil {
		t.Fatal(err)
	}
	split := 0
	for ; split < len(evts) && evts[split].At < cut; split++ {
		if err := gw1.Ingest(evts[split]); err != nil {
			t.Fatal(err)
		}
	}
	alerts := drainAlerts(gw1)
	path := filepath.Join(t.TempDir(), "gateway.ckpt")
	if err := WriteCheckpoint(path, gw1.ExportCheckpoint()); err != nil {
		t.Fatal(err)
	}

	cp, err := ReadCheckpoint(path)
	if err != nil {
		t.Fatal(err)
	}
	gw2, err := New(ctx, WithConfig(core.Config{}))
	if err != nil {
		t.Fatal(err)
	}
	if err := gw2.RestoreCheckpoint(cp); err != nil {
		t.Fatal(err)
	}
	for ; split < len(evts); split++ {
		if err := gw2.Ingest(evts[split]); err != nil {
			t.Fatal(err)
		}
	}
	if err := gw2.AdvanceTo(4 * time.Hour); err != nil {
		t.Fatal(err)
	}
	alerts = append(alerts, drainAlerts(gw2)...)

	if got := gw2.Stats(); got != refStats {
		t.Errorf("restarted run diverged:\n reference: %+v\n restarted: %+v", refStats, got)
	}
	if !reflect.DeepEqual(alerts, refAlerts) {
		t.Errorf("alerts diverged across restart:\n reference: %+v\n restarted: %+v", refAlerts, alerts)
	}
}

// TestGatewayCheckpointJSONStable guards the on-disk schema: a checkpoint
// must survive a JSON round trip and refuse a future version.
func TestGatewayCheckpointVersioned(t *testing.T) {
	_, ctx := trainedHome(t)
	gw, err := New(ctx, WithConfig(core.Config{}))
	if err != nil {
		t.Fatal(err)
	}
	cp := gw.ExportCheckpoint()
	data, err := json.Marshal(cp)
	if err != nil {
		t.Fatal(err)
	}
	var back Checkpoint
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	back.V = CheckpointVersion + 1
	gw2, err := New(ctx, WithConfig(core.Config{}))
	if err != nil {
		t.Fatal(err)
	}
	if err := gw2.RestoreCheckpoint(&back); err == nil {
		t.Error("future checkpoint version accepted")
	}
}

// TestCheckpointV1Migration round-trips the legacy schema: a v1 file (the
// pre-envelope format keyed "version":1, no "v", no tenancy) must load,
// migrate to v2 in memory, restore cleanly, and produce the same stitched
// run as an uninterrupted gateway.
func TestCheckpointV1Migration(t *testing.T) {
	h, ctx := trainedHome(t)
	evts := faultyAfternoon(t, h, 4)

	ref, err := New(ctx, WithConfig(core.Config{}))
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range evts {
		if err := ref.Ingest(e); err != nil {
			t.Fatal(err)
		}
	}
	if err := ref.AdvanceTo(4 * time.Hour); err != nil {
		t.Fatal(err)
	}
	refStats, refAlerts := ref.Stats(), drainAlerts(ref)

	cut := 2 * time.Hour
	gw1, err := New(ctx, WithConfig(core.Config{}))
	if err != nil {
		t.Fatal(err)
	}
	split := 0
	for ; split < len(evts) && evts[split].At < cut; split++ {
		if err := gw1.Ingest(evts[split]); err != nil {
			t.Fatal(err)
		}
	}
	alerts := drainAlerts(gw1)

	// Rewrite the exported checkpoint as a v1 file: version under the
	// legacy key, no envelope fields. This is byte-compatible with what a
	// pre-v2 gateway persisted.
	data, err := json.Marshal(gw1.ExportCheckpoint())
	if err != nil {
		t.Fatal(err)
	}
	var raw map[string]json.RawMessage
	if err := json.Unmarshal(data, &raw); err != nil {
		t.Fatal(err)
	}
	delete(raw, "v")
	delete(raw, "home")
	raw["version"] = json.RawMessage("1")
	v1data, err := json.Marshal(raw)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "legacy.ckpt")
	if err := os.WriteFile(path, v1data, 0o644); err != nil {
		t.Fatal(err)
	}

	cp, err := ReadCheckpoint(path)
	if err != nil {
		t.Fatal(err)
	}
	if cp.V != CheckpointVersion || cp.LegacyVersion != 0 {
		t.Fatalf("v1 file did not migrate: v=%d legacy=%d", cp.V, cp.LegacyVersion)
	}
	gw2, err := New(ctx, WithConfig(core.Config{}), WithCheckpoint(cp))
	if err != nil {
		t.Fatal(err)
	}
	for ; split < len(evts); split++ {
		if err := gw2.Ingest(evts[split]); err != nil {
			t.Fatal(err)
		}
	}
	if err := gw2.AdvanceTo(4 * time.Hour); err != nil {
		t.Fatal(err)
	}
	alerts = append(alerts, drainAlerts(gw2)...)
	if got := gw2.Stats(); got != refStats {
		t.Errorf("migrated run diverged:\n reference: %+v\n migrated: %+v", refStats, got)
	}
	if !reflect.DeepEqual(alerts, refAlerts) {
		t.Errorf("alerts diverged across v1 migration:\n reference: %+v\n migrated: %+v", refAlerts, alerts)
	}

	// A v1 file claiming an unknown legacy version must be refused.
	raw["version"] = json.RawMessage("9")
	bad, err := json.Marshal(raw)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, bad, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadCheckpoint(path); err == nil {
		t.Error("unknown legacy version accepted")
	}
}

func TestGatewayLiveness(t *testing.T) {
	h, ctx := trainedHome(t)
	gw, err := New(ctx, WithConfig(core.Config{}), WithLiveness(40*time.Minute))
	if err != nil {
		t.Fatal(err)
	}

	start := 3 * 24 * 60
	evts := h.Events(start, start+30)
	seen := map[device.ID]bool{}
	var lastDevice device.ID
	for _, e := range evts {
		e.At -= time.Duration(start) * time.Minute
		if err := gw.Ingest(e); err != nil {
			t.Fatal(err)
		}
		seen[e.Device] = true
		lastDevice = e.Device
	}
	if err := gw.AdvanceTo(30 * time.Minute); err != nil {
		t.Fatal(err)
	}
	if st := gw.Stats(); st.LivenessAlerts != 0 || st.DarkDevices != 0 {
		t.Fatalf("devices dark before the threshold elapsed: %+v", st)
	}

	// 75 minutes in, every device has been silent > 40m: all go dark, one
	// alert each.
	if err := gw.AdvanceTo(75 * time.Minute); err != nil {
		t.Fatal(err)
	}
	st := gw.Stats()
	if st.LivenessAlerts != int64(len(seen)) || st.DarkDevices != int64(len(seen)) {
		t.Fatalf("want %d dark devices and liveness alerts, got %+v", len(seen), st)
	}
	var live []Alert
	for _, a := range drainAlerts(gw) {
		if a.Cause == core.CheckLiveness {
			live = append(live, a)
		}
	}
	if len(live) != len(seen) {
		t.Fatalf("drained %d liveness alerts, want %d", len(live), len(seen))
	}
	for _, a := range live {
		if len(a.Devices) != 1 || !seen[a.Devices[0].ID] {
			t.Errorf("liveness alert names unexpected devices: %+v", a.Devices)
		}
		if a.ReportedAt != 75*time.Minute {
			t.Errorf("alert reported at %s, want 75m", a.ReportedAt)
		}
		if a.DetectedAt > a.ReportedAt {
			t.Errorf("alert detected at %s after reported at %s", a.DetectedAt, a.ReportedAt)
		}
		if a.Explain == nil || a.Explain.Cause != core.CheckLiveness ||
			len(a.Explain.Steps) != 1 || len(a.Explain.Steps[0].Suspects) != 1 ||
			a.Explain.Steps[0].Suspects[0] != a.Devices[0].ID {
			t.Errorf("liveness alert lacks a silence trace: %+v", a.Explain)
		}
	}
	// Advancing further must not re-alert for already-dark devices.
	if err := gw.AdvanceTo(80 * time.Minute); err != nil {
		t.Fatal(err)
	}
	if got := gw.Stats().LivenessAlerts; got != int64(len(seen)) {
		t.Errorf("dark devices re-alerted: %d alerts", got)
	}

	// A dark device that reports again has recovered ...
	if err := gw.Ingest(event.Event{At: 80 * time.Minute, Device: lastDevice, Value: 1}); err != nil {
		t.Fatal(err)
	}
	darkNow := 0
	for _, dl := range gw.Liveness() {
		if dl.Device == lastDevice {
			if dl.Dark || dl.LastSeen != 80*time.Minute {
				t.Errorf("recovered device still %+v", dl)
			}
		} else if dl.Dark {
			darkNow++
		}
	}
	if int64(darkNow) != gw.Stats().DarkDevices {
		t.Errorf("Liveness() reports %d dark, Stats says %d", darkNow, gw.Stats().DarkDevices)
	}
	// ... and is eligible for a fresh alert on its next silence.
	if err := gw.AdvanceTo(125 * time.Minute); err != nil {
		t.Fatal(err)
	}
	if got := gw.Stats().LivenessAlerts; got != int64(len(seen))+1 {
		t.Errorf("recovered device never re-alerted: %d alerts, want %d", got, len(seen)+1)
	}
}

// TestReportIdempotence resends the exact /report datagram and requires the
// gateway's counters to be unaffected: dedup must absorb the duplicate
// before it reaches ingestion.
func TestReportIdempotence(t *testing.T) {
	h, ctx := trainedHome(t)
	gw, err := New(ctx, WithConfig(core.Config{}))
	if err != nil {
		t.Fatal(err)
	}
	front, err := ServeCoAP(gw, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer front.Close()

	start := 3 * 24 * 60
	var batch []WireEvent
	for _, e := range h.Events(start, start+5) {
		e.At -= time.Duration(start) * time.Minute
		batch = append(batch, WireEvent{AtMS: e.At.Milliseconds(), Device: int(e.Device), Value: e.Value})
	}
	if len(batch) == 0 {
		t.Fatal("empty workload")
	}
	payload, err := json.Marshal(batch)
	if err != nil {
		t.Fatal(err)
	}
	req := &coap.Message{Type: coap.Confirmable, Code: coap.CodePOST, MessageID: 41, Token: []byte{3}, Payload: payload}
	req.SetPath("report")
	data, err := req.Marshal()
	if err != nil {
		t.Fatal(err)
	}

	conn, err := net.Dial("udp", front.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	exchange := func() {
		if _, err := conn.Write(data); err != nil {
			t.Fatal(err)
		}
		conn.SetReadDeadline(time.Now().Add(5 * time.Second)) //nolint:errcheck
		buf := make([]byte, 64*1024)
		if _, err := conn.Read(buf); err != nil {
			t.Fatal(err)
		}
	}
	exchange()
	if got := gw.Stats().Events; got != int64(len(batch)) {
		t.Fatalf("first report ingested %d events, want %d", got, len(batch))
	}
	exchange() // byte-identical retransmission
	if got := gw.Stats().Events; got != int64(len(batch)) {
		t.Errorf("duplicate report double-ingested: %d events, want %d", got, len(batch))
	}
	if st := front.ServerStats(); st.Deduped != 1 {
		t.Errorf("Deduped = %d, want 1", st.Deduped)
	}
}
