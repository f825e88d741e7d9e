package gateway

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/device"
	"repro/internal/event"
	"repro/internal/simhome"
)

// stormAfternoon renders a two-fault storm: the afternoon slice with the
// kitchen's whole numeric sensor bank fail-stopped 30 minutes in (a hub
// or power failure killing one room) and the living-room light
// fail-stopped at 40 minutes, rebased to stream time zero. The kitchen
// episode's suspect set stays wide — it cannot narrow below the four dead
// sensors — so it is still open when the living-room fault splits off a
// second episode, which is the overlap the mid-storm kill needs.
func stormAfternoon(t *testing.T, h *simhome.Home, hours int) []event.Event {
	t.Helper()
	dead := map[device.ID]time.Duration{}
	for _, name := range []string{"light-kitchen", "temp-kitchen", "humid-kitchen", "sound-kitchen"} {
		id, ok := h.Registry().Lookup(name)
		if !ok {
			t.Fatalf("no %s", name)
		}
		dead[id] = 30 * time.Minute
	}
	living, ok := h.Registry().Lookup("light-living")
	if !ok {
		t.Fatal("no living-room light")
	}
	dead[living] = 40 * time.Minute
	start := 3*24*60 + 12*60
	var out []event.Event
	for _, e := range h.Events(start, start+hours*60) {
		e.At -= time.Duration(start) * time.Minute
		if at, faulted := dead[e.Device]; faulted && e.At >= at {
			continue
		}
		out = append(out, e)
	}
	return out
}

// TestGatewayMultiFaultCheckpointResume is the mid-storm kill: a gateway
// running with MaxFaults=2 is fed a two-fault storm until both
// identification episodes are open at once, checkpointed at exactly that
// point, and restarted from the file. The stitched run's alerts — causes,
// devices, and full Explain traces — must be bit-identical (as JSON) to an
// uninterrupted reference, and the v4 envelope must round-trip both open
// episodes.
func TestGatewayMultiFaultCheckpointResume(t *testing.T) {
	resumeStorm(t, nil)
}

// TestCheckpointParentV4Restores: v4 files written before the detector
// dropped its actuator history and its single-episode mirror still carry
// "recent_acts", "episode" and per-episode "fired_acts" keys. Such a file,
// written mid-storm with two episodes open, must restore and stitch into
// the same alerts and Explain traces as an uninterrupted run.
func TestCheckpointParentV4Restores(t *testing.T) {
	resumeStorm(t, func(t *testing.T, path string) {
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		var cp map[string]any
		if err := json.Unmarshal(data[12:], &cp); err != nil {
			t.Fatal(err)
		}
		det := cp["detector"].(map[string]any)
		eps := det["episodes"].([]any)
		for _, ep := range eps {
			ep := ep.(map[string]any)
			ep["fired_acts"] = ep["opening_acts"]
		}
		det["episode"] = eps[0]
		// Actuator ID -> window of its last firing; no decision read it.
		det["recent_acts"] = map[string]int{"0": 1}
		payload, err := json.Marshal(cp)
		if err != nil {
			t.Fatal(err)
		}
		for _, key := range []string{`"recent_acts"`, `"episode"`, `"fired_acts"`} {
			if !bytes.Contains(payload, []byte(key)) {
				t.Fatalf("rewritten checkpoint lacks %s", key)
			}
		}
		if err := os.WriteFile(path, sealCheckpoint(payload), 0o644); err != nil {
			t.Fatal(err)
		}
	})
}

// resumeStorm runs the mid-storm kill. rewrite, when set, edits the
// checkpoint file between the crash and the restart.
func resumeStorm(t *testing.T, rewrite func(t *testing.T, path string)) {
	t.Helper()
	h, ctx := trainedHome(t)
	evts := stormAfternoon(t, h, 6)
	cfg := core.Config{MaxFaults: 2}

	// Reference: one uninterrupted gateway over the whole storm.
	ref, err := New(ctx, WithConfig(cfg))
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range evts {
		if err := ref.Ingest(e); err != nil {
			t.Fatal(err)
		}
	}
	if err := ref.AdvanceTo(6 * time.Hour); err != nil {
		t.Fatal(err)
	}
	refAlerts := drainAlerts(ref)
	if len(refAlerts) == 0 {
		t.Fatal("storm raised no alert; the bit-identical comparison is vacuous")
	}

	// Split run: ingest until both episodes are open, then crash.
	gw1, err := New(ctx, WithConfig(cfg))
	if err != nil {
		t.Fatal(err)
	}
	split := 0
	for ; split < len(evts); split++ {
		if err := gw1.Ingest(evts[split]); err != nil {
			t.Fatal(err)
		}
		if gw1.OpenEpisodes() == 2 {
			split++
			break
		}
	}
	if gw1.OpenEpisodes() != 2 {
		t.Fatal("storm never held two episodes open at once; the mid-storm kill is vacuous")
	}
	alerts := drainAlerts(gw1)
	path := filepath.Join(t.TempDir(), "gateway.ckpt")
	if err := WriteCheckpoint(path, gw1.ExportCheckpoint()); err != nil {
		t.Fatal(err)
	}
	if rewrite != nil {
		rewrite(t, path)
	}

	cp, err := ReadCheckpoint(path)
	if err != nil {
		t.Fatal(err)
	}
	if cp.V != CheckpointVersion {
		t.Errorf("checkpoint v = %d, want %d", cp.V, CheckpointVersion)
	}
	if got := len(cp.Detector.Episodes); got != 2 {
		t.Fatalf("checkpoint carries %d open episodes, want 2", got)
	}

	gw2, err := New(ctx, WithConfig(cfg))
	if err != nil {
		t.Fatal(err)
	}
	if err := gw2.RestoreCheckpoint(cp); err != nil {
		t.Fatal(err)
	}
	if gw2.OpenEpisodes() != 2 {
		t.Fatalf("restored gateway has %d open episodes, want 2", gw2.OpenEpisodes())
	}
	for ; split < len(evts); split++ {
		if err := gw2.Ingest(evts[split]); err != nil {
			t.Fatal(err)
		}
	}
	if err := gw2.AdvanceTo(6 * time.Hour); err != nil {
		t.Fatal(err)
	}
	alerts = append(alerts, drainAlerts(gw2)...)

	// Bit-identical across the restart: serialize both alert streams —
	// Explain traces included — and compare bytes.
	refJSON, err := json.Marshal(refAlerts)
	if err != nil {
		t.Fatal(err)
	}
	gotJSON, err := json.Marshal(alerts)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(refJSON, gotJSON) {
		t.Errorf("alerts diverged across the mid-storm restart:\n reference: %s\n restarted: %s", refJSON, gotJSON)
	}

	// The stitched run must land in the same detector state, episode-wise.
	if ro, go2 := ref.OpenEpisodes(), gw2.OpenEpisodes(); ro != go2 {
		t.Errorf("open episodes at end: reference %d, restarted %d", ro, go2)
	}
	if rs, gs := ref.Stats(), gw2.Stats(); rs != gs {
		t.Errorf("stats diverged across restart:\n reference: %+v\n restarted: %+v", rs, gs)
	}

	// The dead kitchen bank must be named by the concluded alert.
	named := map[string]bool{}
	for _, a := range refAlerts {
		for _, d := range a.Devices {
			named[d.Name] = true
		}
	}
	if !named["light-kitchen"] {
		t.Errorf("no alert names light-kitchen; named set: %v", named)
	}
}
