package gateway

import (
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"

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

// TestGatewayCheckpointVersioned guards the on-disk schema: a checkpoint
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
	if err := gw2.RestoreCheckpoint(&back); !errors.Is(err, ErrLegacyCheckpoint) {
		t.Errorf("future checkpoint version: err = %v, want ErrLegacyCheckpoint", err)
	}
}

// TestCheckpointLegacyRejected: only the DICECKS1 envelope at
// CheckpointVersion is read. A bare-JSON file and enveloped files at the
// older schemas (v1 kept its version under "version"; v2 and v3 under
// "v") fail with ErrLegacyCheckpoint, never ErrCorruptCheckpoint: a hub
// cold-starts over the WAL on a corrupt checkpoint, and the WAL behind a
// checkpoint has been truncated.
func TestCheckpointLegacyRejected(t *testing.T) {
	_, ctx := trainedHome(t)
	gw, err := New(ctx, WithConfig(core.Config{}))
	if err != nil {
		t.Fatal(err)
	}
	payload, err := json.Marshal(gw.ExportCheckpoint())
	if err != nil {
		t.Fatal(err)
	}
	relabel := func(key, value string) []byte {
		var raw map[string]json.RawMessage
		if err := json.Unmarshal(payload, &raw); err != nil {
			t.Fatal(err)
		}
		delete(raw, "v")
		raw[key] = json.RawMessage(value)
		data, err := json.Marshal(raw)
		if err != nil {
			t.Fatal(err)
		}
		return sealCheckpoint(data)
	}
	cases := map[string][]byte{
		"bare JSON": payload,
		"v1":        relabel("version", "1"),
		"v2":        relabel("v", "2"),
		"v3":        relabel("v", "3"),
		"v5":        relabel("v", "5"),
	}
	if _, err := DecodeCheckpoint(relabel("v", "4")); err != nil {
		t.Fatalf("current version rejected: %v", err)
	}
	dir := t.TempDir()
	for name, data := range cases {
		if _, err := DecodeCheckpoint(data); !errors.Is(err, ErrLegacyCheckpoint) || errors.Is(err, ErrCorruptCheckpoint) {
			t.Errorf("%s: DecodeCheckpoint err = %v, want ErrLegacyCheckpoint", name, err)
		}
		path := filepath.Join(dir, "legacy.ckpt")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := ReadCheckpoint(path); !errors.Is(err, ErrLegacyCheckpoint) || errors.Is(err, ErrCorruptCheckpoint) {
			t.Errorf("%s: ReadCheckpoint err = %v, want ErrLegacyCheckpoint", name, err)
		}
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
