package core

import (
	"encoding/json"
	"reflect"
	"testing"

	"repro/internal/window"
)

// stripTiming zeroes the wall-clock fields so results compare structurally.
func stripTiming(r Result) Result {
	r.Timing = Timing{}
	return r
}

// roundTripState pushes a detector state through JSON, as a gateway
// checkpoint would, and restores it into a fresh detector.
func roundTripState(t *testing.T, from *Detector, ctx *Context) *Detector {
	t.Helper()
	st := from.ExportState()
	data, err := json.Marshal(st)
	if err != nil {
		t.Fatal(err)
	}
	var back DetectorState
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	d := newTestDetector(t, ctx, Config{})
	if err := d.RestoreState(back); err != nil {
		t.Fatal(err)
	}
	return d
}

func TestDetectorStateRoundTripCleanStream(t *testing.T) {
	l, ctx := trainAlternating(t)
	a := newTestDetector(t, ctx, Config{})
	next := feedNormal(t, a, l, 0, 8)

	b := roundTripState(t, a, ctx)

	// Both detectors must judge the continuation — including a fault that
	// leans on the restored previous-window state — identically.
	for i := 0; i < 16; i++ {
		idx := next + i
		var o *window.Observation
		if idx%2 == 0 {
			o = evenObs(l, idx)
			o.Binary[0] = false // fail-stop from the restore point on
		} else {
			o = oddObs(l, idx)
		}
		ra, err := a.Process(o.Clone())
		if err != nil {
			t.Fatal(err)
		}
		rb, err := b.Process(o)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(stripTiming(ra), stripTiming(rb)) {
			t.Fatalf("window %d diverged:\n original: %+v\n restored: %+v", idx, ra, rb)
		}
	}
}

func TestDetectorStateRoundTripMidEpisode(t *testing.T) {
	l, ctx := trainAlternating(t)
	a := newTestDetector(t, ctx, Config{})
	next := feedNormal(t, a, l, 0, 6)

	// Open an episode with an ambiguous two-bit anomaly so identification
	// needs more than one window.
	o := evenObs(l, next)
	o.Binary[0] = false
	o.Binary[1] = true
	res, err := a.Process(o)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Detected {
		t.Fatal("anomaly not detected")
	}
	if !a.Identifying() {
		t.Fatal("episode concluded immediately; fixture no longer exercises mid-episode restore")
	}
	next++

	b := roundTripState(t, a, ctx)
	if !b.Identifying() {
		t.Fatal("restored detector lost the in-flight episode")
	}

	// Feed both the identical continuation until the episode concludes;
	// the alerts (and every step before them) must match.
	for i := 0; i < 200; i++ {
		idx := next + i
		var o *window.Observation
		if idx%2 == 0 {
			o = evenObs(l, idx)
			o.Binary[0] = false
		} else {
			o = oddObs(l, idx)
		}
		ra, err := a.Process(o.Clone())
		if err != nil {
			t.Fatal(err)
		}
		rb, err := b.Process(o)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(stripTiming(ra), stripTiming(rb)) {
			t.Fatalf("window %d diverged:\n original: %+v\n restored: %+v", idx, ra, rb)
		}
		if ra.Alert != nil {
			return // both concluded identically
		}
	}
	t.Fatal("episode never concluded")
}

// TestDetectorRestoreValidates: a checkpoint is input. Out-of-range group
// references are refused, and so is an episode without the trace and the
// corroboration of at least 1 (its opening window) that ExportState always
// writes. A refused restore leaves no episode open.
func TestDetectorRestoreValidates(t *testing.T) {
	_, ctx := trainAlternating(t)
	valid := func() *EpisodeState {
		return &EpisodeState{Cause: CheckCorrelation, OpeningPrev: NoGroup, Corroboration: 1, Trace: &Explain{}}
	}
	withEpisode := func(edit func(*EpisodeState)) DetectorState {
		ep := valid()
		edit(ep)
		return DetectorState{PrevGroup: NoGroup, Episodes: []*EpisodeState{valid(), ep}}
	}
	for _, tc := range []struct {
		name string
		st   DetectorState
	}{
		{"previous group out of range", DetectorState{PrevGroup: 9999}},
		{"opening group out of range", withEpisode(func(ep *EpisodeState) { ep.OpeningPrev = 9999 })},
		{"nil episode", DetectorState{PrevGroup: NoGroup, Episodes: []*EpisodeState{valid(), nil}}},
		{"no trace", withEpisode(func(ep *EpisodeState) { ep.Trace = nil })},
		{"corroboration 0", withEpisode(func(ep *EpisodeState) { ep.Corroboration = 0 })},
		{"negative corroboration", withEpisode(func(ep *EpisodeState) { ep.Corroboration = -3 })},
	} {
		d := newTestDetector(t, ctx, Config{})
		if err := d.RestoreState(tc.st); err == nil {
			t.Errorf("%s: accepted", tc.name)
		}
		if d.Identifying() {
			t.Errorf("%s: refused restore left episodes open", tc.name)
		}
	}
	d := newTestDetector(t, ctx, Config{MaxFaults: 2})
	if err := d.RestoreState(withEpisode(func(*EpisodeState) {})); err != nil {
		t.Fatalf("complete state refused: %v", err)
	}
	if d.OpenEpisodes() != 2 {
		t.Errorf("restored %d episodes, want 2", d.OpenEpisodes())
	}
	if err := d.RestoreState(DetectorState{PrevGroup: NoGroup}); err != nil {
		t.Errorf("legal NoGroup state rejected: %v", err)
	}
}
