package gateway

import (
	"bytes"
	"testing"
	"time"

	"repro/internal/core"
)

// The trained context carries interval sketches, and ContextInfo must say
// so. The hub serves the same view over CoAP (TestHubCoAPContextResource).
func TestGatewayContextInfoTiming(t *testing.T) {
	_, ctx := trainedHome(t)
	if !ctx.TimingCapable() {
		t.Fatal("trained context is not timing capable")
	}
	gw, err := New(ctx, WithConfig(core.Config{}))
	if err != nil {
		t.Fatal(err)
	}
	info := gw.ContextInfo()
	if info.ContextSchema != core.ContextSchemaV2 {
		t.Errorf("ContextSchema = %d, want %d", info.ContextSchema, core.ContextSchemaV2)
	}
	if !info.TimingCapable {
		t.Error("TimingCapable = false for a sketch-carrying context")
	}
}

// A checkpoint taken mid-stream must carry the timing state (dwell counter,
// per-slot last-fire indices) so a restored gateway resumes the interval
// measurements exactly where the crashed one left off: continuing both
// gateways over the identical tail must produce bit-identical checkpoints.
func TestGatewayCheckpointTimingResume(t *testing.T) {
	h, ctx := trainedHome(t)
	gw1, err := New(ctx, WithConfig(core.Config{}))
	if err != nil {
		t.Fatal(err)
	}
	// An afternoon stream, so actuators actually fire before the cut.
	start := 3*24*60 + 12*60
	rebase := func(at time.Duration) time.Duration {
		return at - time.Duration(start)*time.Minute
	}
	for _, e := range h.Events(start, start+4*60) {
		e.At = rebase(e.At)
		if err := gw1.Ingest(e); err != nil {
			t.Fatal(err)
		}
	}
	if err := gw1.AdvanceTo(4 * time.Hour); err != nil {
		t.Fatal(err)
	}

	cut := gw1.ExportCheckpoint()
	if len(cut.Detector.LastFires) == 0 {
		t.Fatal("checkpoint at the cut carries no last-fire state; pick a segment where actuators fire")
	}
	data, err := EncodeCheckpoint(cut)
	if err != nil {
		t.Fatal(err)
	}
	decoded, err := DecodeCheckpoint(data)
	if err != nil {
		t.Fatal(err)
	}
	gw2, err := New(ctx, WithConfig(core.Config{}))
	if err != nil {
		t.Fatal(err)
	}
	if err := gw2.RestoreCheckpoint(decoded); err != nil {
		t.Fatal(err)
	}

	// Same tail through both gateways.
	tail := h.Events(start+4*60, start+6*60)
	for _, gw := range []*Gateway{gw1, gw2} {
		for _, e := range tail {
			e.At = rebase(e.At)
			if err := gw.Ingest(e); err != nil {
				t.Fatal(err)
			}
		}
		if err := gw.AdvanceTo(6 * time.Hour); err != nil {
			t.Fatal(err)
		}
	}

	cp1, cp2 := gw1.ExportCheckpoint(), gw2.ExportCheckpoint()
	cp1.SavedAtUnix, cp2.SavedAtUnix = 0, 0
	b1, err := EncodeCheckpoint(cp1)
	if err != nil {
		t.Fatal(err)
	}
	b2, err := EncodeCheckpoint(cp2)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(b1, b2) {
		t.Errorf("checkpoints diverged after restore:\n  original %s\n  restored %s", b1, b2)
	}
	if cp2.Detector.Dwell == 0 && len(cp2.Detector.LastFires) == 0 {
		t.Error("restored gateway carries no timing state at the end of the stream")
	}
}
