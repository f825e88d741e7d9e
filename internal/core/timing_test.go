package core

import (
	"bytes"
	"encoding/json"
	"slices"
	"testing"
	"time"

	"repro/internal/device"
	"repro/internal/telemetry"
	"repro/internal/window"
)

// structuralChecks is DefaultChecks without the timing stage: the
// structural-only detector.
func structuralChecks() []Check {
	return slices.DeleteFunc(DefaultChecks(), func(c Check) bool { return c.Cause() == CheckTiming })
}

// timingWindow builds one window of the two-group rhythm used by the timing
// tests: group A (motion-a, warm kitchen) or group B (motion-b, bright
// bedroom), optionally with the bulb actuator firing.
func timingWindow(l *window.Layout, idx int, b, fire bool) *window.Observation {
	o := l.NewObservation(idx)
	if b {
		o.Binary[1] = true
		o.Numeric[0] = []float64{10, 10}
		o.Numeric[1] = []float64{200, 200}
	} else {
		o.Binary[0] = true
		o.Numeric[0] = []float64{30, 30}
		o.Numeric[1] = []float64{50, 50}
	}
	if fire {
		o.Actuated = append(o.Actuated, device.ID(4))
	}
	return o
}

// rhythmTrain trains a context on a strict A,A,B,B rhythm (optionally with
// the bulb firing on every B entry), giving every edge a tight dwell band.
func rhythmTrain(t *testing.T, l *window.Layout, fire bool) *Context {
	t.Helper()
	var train []*window.Observation
	idx := 0
	for c := 0; c < 40; c++ {
		train = append(train, timingWindow(l, idx, false, false))
		idx++
		train = append(train, timingWindow(l, idx, false, false))
		idx++
		train = append(train, timingWindow(l, idx, true, fire))
		idx++
		train = append(train, timingWindow(l, idx, true, false))
		idx++
	}
	ctx, err := TrainWindows(l, time.Minute, train)
	if err != nil {
		t.Fatal(err)
	}
	if !ctx.TimingCapable() {
		t.Fatal("trained context is not timing capable")
	}
	return ctx
}

// delayedHopStream replays the rhythm cleanly for four cycles, then holds
// group A for `hold` windows before hopping to B — a structurally legal hop
// at roughly hold/2 times the trained pace. It returns the stream and the
// index of the off-pace hop window.
func delayedHopStream(l *window.Layout, hold int, fire bool) ([]*window.Observation, int) {
	var stream []*window.Observation
	idx := 0
	add := func(b, f bool) {
		stream = append(stream, timingWindow(l, idx, b, f))
		idx++
	}
	for c := 0; c < 4; c++ {
		add(false, false)
		add(false, false)
		add(true, fire)
		add(true, false)
	}
	for k := 0; k < hold; k++ {
		add(false, false)
	}
	hop := idx
	add(true, fire)
	add(true, false)
	return stream, hop
}

// TestTimingCheckFlagsDelayedHop: a structurally valid hop after an
// out-of-band dwell raises CheckTiming with gap/band evidence, while a
// detector built without the timing stage sees nothing wrong — the fault
// family the structural checks are blind to.
func TestTimingCheckFlagsDelayedHop(t *testing.T) {
	l := coreLayout(t)
	ctx := rhythmTrain(t, l, false)
	stream, hop := delayedHopStream(l, 9, false)
	// A second delayed hop (hold B off-pace, then return to A) corroborates
	// the episode — multi-fault mode requires a second informative window
	// before alerting — and a short quiet tail lets patience conclude it.
	idx := len(stream)
	for k := 0; k < 9; k++ {
		stream = append(stream, timingWindow(l, idx, true, false))
		idx++
	}
	for k := 0; k < 22; k++ {
		stream = append(stream, timingWindow(l, idx, false, false))
		idx++
	}

	reg := telemetry.NewRegistry()
	// MaxFaults is generous so the whole suspect diff survives to the
	// alert; IdentifyGiveUp outlives the gap between the two hops so the
	// second one corroborates, then the quiet tail concludes the episode.
	det, err := New(ctx, WithConfig(Config{MaxFaults: 8, IdentifyGiveUp: 20}), WithTelemetry(reg))
	if err != nil {
		t.Fatal(err)
	}
	var alert *Alert
	for i, o := range stream {
		res, err := det.Process(o)
		if err != nil {
			t.Fatal(err)
		}
		if i < hop && res.Detected {
			t.Fatalf("window %d flagged %s before the delayed hop", i, res.Violation)
		}
		if i == hop {
			if !res.Detected || res.Violation != CheckTiming {
				t.Fatalf("hop window: detected=%v violation=%s, want timing", res.Detected, res.Violation)
			}
		}
		if res.Alert != nil && alert == nil {
			alert = res.Alert
		}
	}
	if alert == nil {
		t.Fatal("no alert on the delayed hop")
	}
	if alert.Cause != CheckTiming || alert.Cause.Family() != FamilyTiming {
		t.Fatalf("alert cause %s (family %s), want timing", alert.Cause, alert.Cause.Family())
	}
	ev := alert.Explain.Timing
	if ev == nil {
		t.Fatal("timing alert carries no TimingEvidence")
	}
	if ev.Edge != "g2g" || ev.GapWindows != 9 {
		t.Errorf("evidence edge=%s gap=%d, want g2g gap 9", ev.Edge, ev.GapWindows)
	}
	if ev.BandHiWindows >= ev.GapWindows {
		t.Errorf("band hi %d not below observed gap %d", ev.BandHiWindows, ev.GapWindows)
	}
	if ev.Samples < DefaultTimingMinSamples || len(ev.Buckets) == 0 {
		t.Errorf("evidence samples=%d buckets=%d", ev.Samples, len(ev.Buckets))
	}
	snap := reg.SnapshotMap()
	if snap[metricTimingChecked] == 0 {
		t.Errorf("%s never incremented", metricTimingChecked)
	}
	if snap[metricTimingFlagged+`{edge="g2g"}`] == 0 {
		t.Errorf("%s{edge=g2g} = 0 after a g2g flag", metricTimingFlagged)
	}

	// The structural-only arm must stay silent on the same stream.
	structural, err := New(ctx, WithChecks(structuralChecks()...))
	if err != nil {
		t.Fatal(err)
	}
	for i, o := range stream {
		res, err := structural.Process(o)
		if err != nil {
			t.Fatal(err)
		}
		if res.Detected {
			t.Fatalf("structural-only arm flagged %s at window %d", res.Violation, i)
		}
	}
}

// TestTimingCheckDelayedActuatorFiring: a firing whose dwell gap overshoots
// the trained G2A band is flagged with the actuator as the suspect.
func TestTimingCheckDelayedActuatorFiring(t *testing.T) {
	l := coreLayout(t)
	ctx := rhythmTrain(t, l, true)
	stream, hop := delayedHopStream(l, 9, true)

	det, err := New(ctx)
	if err != nil {
		t.Fatal(err)
	}
	for i, o := range stream {
		res, err := det.Process(o)
		if err != nil {
			t.Fatal(err)
		}
		if i < hop && res.Detected {
			t.Fatalf("window %d flagged %s before the delayed firing", i, res.Violation)
		}
		if i != hop {
			continue
		}
		if !res.Detected || res.Violation != CheckTiming {
			t.Fatalf("delayed firing: detected=%v violation=%s, want timing", res.Detected, res.Violation)
		}
		if res.Alert == nil {
			t.Fatal("no immediate alert (single suspect should conclude at once)")
		}
		if len(res.Alert.Devices) != 1 || res.Alert.Devices[0] != device.ID(4) {
			t.Fatalf("suspects %v, want the bulb actuator", res.Alert.Devices)
		}
		if ev := res.Alert.Explain.Timing; ev == nil || ev.Edge != "g2a" {
			t.Fatalf("evidence %+v, want edge g2a", ev)
		}
	}
}

// TestContextTimingSaveLoadRoundTrip: a v2 payload restores the sketches
// (same fingerprint, still timing capable, still flags), and a v1 payload —
// a context built without EnableTiming — loads as a timing-disabled context
// that detects structurally as before.
func TestContextTimingSaveLoadRoundTrip(t *testing.T) {
	l := coreLayout(t)
	ctx := rhythmTrain(t, l, false)
	if ctx.SchemaVersion() != ContextSchemaV2 {
		t.Fatalf("trained schema %d, want %d", ctx.SchemaVersion(), ContextSchemaV2)
	}

	var buf bytes.Buffer
	if err := ctx.Save(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadContext(&buf, l)
	if err != nil {
		t.Fatal(err)
	}
	if !loaded.TimingCapable() || loaded.SchemaVersion() != ContextSchemaV2 {
		t.Fatalf("loaded: capable=%v schema=%d", loaded.TimingCapable(), loaded.SchemaVersion())
	}
	if loaded.Fingerprint() != ctx.Fingerprint() {
		t.Errorf("fingerprint changed across save/load: %s vs %s", loaded.Fingerprint(), ctx.Fingerprint())
	}
	det, err := New(loaded, WithConfig(Config{MaxFaults: 8}))
	if err != nil {
		t.Fatal(err)
	}
	stream, hop := delayedHopStream(l, 9, false)
	flagged := false
	for i, o := range stream {
		res, err := det.Process(o)
		if err != nil {
			t.Fatal(err)
		}
		if res.Detected && i == hop && res.Violation == CheckTiming {
			flagged = true
		}
	}
	if !flagged {
		t.Error("detector on the reloaded context missed the delayed hop")
	}

	// v1 path: no EnableTiming — the payload must carry no sketches and
	// load as a working, timing-disabled context.
	cb, err := NewContextBuilder(l, time.Minute, []float64{20, 125})
	if err != nil {
		t.Fatal(err)
	}
	cb.AddGroup(vec(t, "10100100"))
	v1, err := cb.Build()
	if err != nil {
		t.Fatal(err)
	}
	if v1.TimingCapable() || v1.SchemaVersion() != ContextSchemaV1 {
		t.Fatalf("bare builder: capable=%v schema=%d", v1.TimingCapable(), v1.SchemaVersion())
	}
	buf.Reset()
	if err := v1.Save(&buf); err != nil {
		t.Fatal(err)
	}
	if bytes.Contains(buf.Bytes(), []byte("g2g_gaps")) {
		t.Error("v1 payload mentions interval sketches")
	}
	v1Loaded, err := LoadContext(&buf, l)
	if err != nil {
		t.Fatal(err)
	}
	if v1Loaded.TimingCapable() {
		t.Error("v1 payload loaded as timing capable")
	}
	if _, err := New(v1Loaded); err != nil {
		t.Fatalf("detector on v1 context: %v", err)
	}
}

// TestDetectorCheckpointTimingState: exporting mid-dwell and restoring into
// a fresh detector resumes the timing bookkeeping bit-identically — the
// restored detector flags the same window with the same gap.
func TestDetectorCheckpointTimingState(t *testing.T) {
	l := coreLayout(t)
	ctx := rhythmTrain(t, l, true)
	stream, hop := delayedHopStream(l, 9, true)

	det1, err := New(ctx)
	if err != nil {
		t.Fatal(err)
	}
	// Stop in the middle of the abnormal hold, with a firing already in the
	// history, so both dwell and lastFire must survive the round trip.
	cut := hop - 4
	for _, o := range stream[:cut] {
		if _, err := det1.Process(o); err != nil {
			t.Fatal(err)
		}
	}
	blob, err := json.Marshal(det1.ExportState())
	if err != nil {
		t.Fatal(err)
	}
	var st DetectorState
	if err := json.Unmarshal(blob, &st); err != nil {
		t.Fatal(err)
	}
	det2, err := New(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if err := det2.RestoreState(st); err != nil {
		t.Fatal(err)
	}
	for i, o := range stream[cut:] {
		r1, err := det1.Process(o)
		if err != nil {
			t.Fatal(err)
		}
		r2, err := det2.Process(o)
		if err != nil {
			t.Fatal(err)
		}
		r1.Timing, r2.Timing = Timing{}, Timing{} // wall-clock noise
		b1, _ := json.Marshal(r1)
		b2, _ := json.Marshal(r2)
		if !bytes.Equal(b1, b2) {
			t.Fatalf("window %d diverged after restore:\n%s\n%s", cut+i, b1, b2)
		}
		if cut+i == hop && (!r2.Detected || r2.Violation != CheckTiming) {
			t.Fatalf("restored detector missed the delayed firing: %+v", r2)
		}
	}
}

// TestWithChecksCustomPipeline: the pipeline is pluggable — dropping the
// correlation check blinds the detector to unseen state sets the default
// pipeline flags, and DefaultChecks pins the documented order.
func TestWithChecksCustomPipeline(t *testing.T) {
	l := coreLayout(t)
	ctx := rhythmTrain(t, l, false)

	wantOrder := []struct {
		name  string
		cause Cause
	}{
		{"ghost", CheckGhost},
		{"correlation", CheckCorrelation},
		{"g2g", CheckG2G},
		{"g2a", CheckG2A},
		{"a2g", CheckA2G},
		{"timing", CheckTiming},
	}
	checks := DefaultChecks()
	if len(checks) != len(wantOrder) {
		t.Fatalf("DefaultChecks has %d checks, want %d", len(checks), len(wantOrder))
	}
	for i, c := range checks {
		if c.Name() != wantOrder[i].name || c.Cause() != wantOrder[i].cause {
			t.Errorf("check %d = %s/%s, want %s/%s", i, c.Name(), c.Cause(), wantOrder[i].name, wantOrder[i].cause)
		}
	}

	unseen := l.NewObservation(0) // both motions on: no trained group
	unseen.Binary[0] = true
	unseen.Binary[1] = true
	unseen.Numeric[0] = []float64{30, 30}
	unseen.Numeric[1] = []float64{200, 200}

	full, err := New(ctx)
	if err != nil {
		t.Fatal(err)
	}
	res, err := full.Process(unseen.Clone())
	if err != nil {
		t.Fatal(err)
	}
	if !res.Detected || res.Violation != CheckCorrelation {
		t.Fatalf("default pipeline on unseen set: %+v", res)
	}

	noCorr, err := New(ctx, WithChecks(G2GCheck{}, G2ACheck{}, A2GCheck{}))
	if err != nil {
		t.Fatal(err)
	}
	res, err = noCorr.Process(unseen.Clone())
	if err != nil {
		t.Fatal(err)
	}
	if res.Detected {
		t.Fatalf("correlation-free pipeline flagged the unseen set: %+v", res)
	}
}
