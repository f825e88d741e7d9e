package core

import (
	"testing"

	"repro/internal/device"
	"repro/internal/window"
)

// newSetObs is an unseen state set one bit away from the even group: both
// motion sensors fire together, something the alternating training
// scenario never produced.
func newSetObs(l *window.Layout, idx int) *window.Observation {
	return makeObs(l, idx, []bool{true, true}, [][]float64{{30, 30, 30}, {50, 50, 50}})
}

// evenBulbObs is the even state set with the bulb firing — an unseen G2A
// transition when it follows the odd group (training only fired the bulb
// on odd windows, i.e. out of the even group).
func evenBulbObs(l *window.Layout, idx int) *window.Observation {
	return makeObs(l, idx, []bool{true, false}, [][]float64{{30, 30, 30}, {50, 50, 50}}, device.ID(4))
}

func newTestAdapter(t testing.TB, ctx *Context, opts ...AdapterOption) *Adapter {
	t.Helper()
	a, err := NewAdapter(ctx, opts...)
	if err != nil {
		t.Fatal(err)
	}
	return a
}

// feedAdmissionCycle feeds one sighting of the unseen both-motions set with
// the window shapes a real detector would report around it: clean known
// windows before, a violating window on the set itself, and an identifying
// (episode in flight) known window after it. Returns the last published
// context, if any.
func feedAdmissionCycle(t *testing.T, a *Adapter, l *window.Layout, idx *int) *Context {
	t.Helper()
	var pub *Context
	steps := []struct {
		obs *window.Observation
		res Result
	}{
		{oddObs(l, *idx), Result{}},
		{evenObs(l, *idx+1), Result{}},
		{newSetObs(l, *idx+2), Result{Violation: CheckCorrelation, Detected: true, Identifying: true}},
		{evenObs(l, *idx+3), Result{Identifying: true}},
	}
	for _, s := range steps {
		p, err := a.Observe(s.obs, s.res)
		if err != nil {
			t.Fatal(err)
		}
		if p != nil {
			pub = p
		}
	}
	*idx += len(steps)
	return pub
}

// TestAdapterAdmitsRecurringSet: an unseen state set sighted AdmitAfter
// times with no alert explaining it becomes a catalogue group in a new
// published version, wired so a detector on that version accepts the new
// routine cleanly.
func TestAdapterAdmitsRecurringSet(t *testing.T) {
	l, ctx := trainAlternating(t)
	a := newTestAdapter(t, ctx, WithAdmitAfter(3))

	var pub *Context
	idx := 0
	for cycle := 0; cycle < 3; cycle++ {
		if p := feedAdmissionCycle(t, a, l, &idx); p != nil {
			pub = p
		}
	}
	if pub == nil {
		t.Fatalf("no version published after %d sightings", 3)
	}
	if pub.Epoch() != ctx.Epoch()+1 {
		t.Errorf("published epoch = %d, want %d", pub.Epoch(), ctx.Epoch()+1)
	}
	if pub.ParentFingerprint() != ctx.Fingerprint() {
		t.Error("published version does not chain to the base context")
	}
	if got, want := pub.NumGroups(), ctx.NumGroups()+1; got != want {
		t.Errorf("published NumGroups = %d, want %d", got, want)
	}
	if a.GroupsAdmitted() != 1 || a.PendingSets() != 0 {
		t.Errorf("GroupsAdmitted = %d, PendingSets = %d", a.GroupsAdmitted(), a.PendingSets())
	}

	// A detector on the published version accepts the new routine: the set
	// is a group, and its sighting transitions (even -> new -> even) were
	// wired in with it.
	d, err := New(pub)
	if err != nil {
		t.Fatal(err)
	}
	seq := []*window.Observation{
		oddObs(l, 100), evenObs(l, 101), newSetObs(l, 102), evenObs(l, 103), oddObs(l, 104),
	}
	for _, o := range seq {
		res, err := d.Process(o)
		if err != nil {
			t.Fatal(err)
		}
		if res.Detected || res.Violation != CheckNone {
			t.Fatalf("admitted routine still flagged at window %d: %+v", o.Index, res)
		}
	}

	// The base version is untouched: the set is still unknown there.
	admittedVec, err := pub.Group(pub.NumGroups() - 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := ctx.GroupID(admittedVec); ok {
		t.Error("base context knows the admitted group")
	}
}

// TestAdapterAlertGuard: a concluded alert whose devices cover a pending
// set's differing sensors drops the candidate; an alert naming unrelated
// devices leaves it under observation.
func TestAdapterAlertGuard(t *testing.T) {
	l, ctx := trainAlternating(t)
	a := newTestAdapter(t, ctx, WithAdmitAfter(10))

	idx := 0
	feedAdmissionCycle(t, a, l, &idx)
	feedAdmissionCycle(t, a, l, &idx)
	if a.PendingSets() != 1 {
		t.Fatalf("PendingSets = %d, want 1", a.PendingSets())
	}

	// An alert naming only the bulb does not cover the candidate's
	// differing motion/temp sensors: the candidate survives.
	uncovered := Result{Identifying: true, Alert: &Alert{Devices: []device.ID{4}, Cause: CheckG2A}}
	if _, err := a.Observe(evenObs(l, idx), uncovered); err != nil {
		t.Fatal(err)
	}
	idx++
	if a.PendingSets() != 1 {
		t.Fatalf("uncovered alert dropped the candidate")
	}

	// An alert covering every sensor the set differs in is the detector
	// explaining that evidence as a fault: the candidate is dropped.
	covered := Result{Identifying: true, Alert: &Alert{Devices: []device.ID{0, 1, 2}, Cause: CheckCorrelation}}
	if _, err := a.Observe(evenObs(l, idx), covered); err != nil {
		t.Fatal(err)
	}
	if a.PendingSets() != 0 {
		t.Errorf("covering alert left %d candidates", a.PendingSets())
	}
	if a.GroupsAdmitted() != 0 {
		t.Errorf("GroupsAdmitted = %d after guard drop", a.GroupsAdmitted())
	}
}

// TestAdapterEdgeAdmissionSurvivesAlerts: an unseen transition between
// known states whose every sighting coincides with a concluded alert (a
// single-actuator G2A violation opens and concludes in the same window)
// still accumulates to admission — the alert guard drops covered candidate
// sets, not transition evidence. This is exactly the recurring-false-alarm
// shape behaviour drift produces: a new routine fires an actuator out of a
// group that never triggered it, daily, and each firing is its own alert.
func TestAdapterEdgeAdmissionSurvivesAlerts(t *testing.T) {
	l, ctx := trainAlternating(t)
	a := newTestAdapter(t, ctx, WithAdmitAfter(3))

	g2aAlert := Result{
		Violation: CheckG2A,
		Detected:  true,
		Alert:     &Alert{Devices: []device.ID{4}, Cause: CheckG2A},
	}
	var pub *Context
	idx := 0
	for cycle := 0; cycle < 3; cycle++ {
		steps := []struct {
			obs *window.Observation
			res Result
		}{
			{evenObs(l, idx), Result{}},
			{oddObs(l, idx+1), Result{}},
			// The bulb fires out of the odd group: unseen G2A, alerted in
			// the same window.
			{evenBulbObs(l, idx+2), g2aAlert},
			{oddObs(l, idx+3), Result{Identifying: true}},
		}
		for _, s := range steps {
			p, err := a.Observe(s.obs, s.res)
			if err != nil {
				t.Fatal(err)
			}
			if p != nil {
				pub = p
			}
		}
		idx += len(steps)
	}
	if pub == nil {
		t.Fatal("edge never admitted: alert guard starved the transition evidence")
	}
	if a.EdgesAdmitted() == 0 {
		t.Errorf("EdgesAdmitted = 0 after publish")
	}
	if a.GroupsAdmitted() != 0 {
		t.Errorf("GroupsAdmitted = %d, want 0 (no unseen sets in this stream)", a.GroupsAdmitted())
	}

	// A detector on the published version accepts the new rule: the bulb
	// may now fire out of the odd group.
	d, err := New(pub)
	if err != nil {
		t.Fatal(err)
	}
	seq := []*window.Observation{
		evenObs(l, 200), oddObs(l, 201), evenBulbObs(l, 202), oddObs(l, 203), evenObs(l, 204),
	}
	for _, o := range seq {
		res, err := d.Process(o)
		if err != nil {
			t.Fatal(err)
		}
		if res.Detected || res.Violation != CheckNone {
			t.Fatalf("admitted transition still flagged at window %d: %+v", o.Index, res)
		}
	}
}

// TestAdapterDecayForgetsStaleTransitions: transition counts age
// exponentially, and behaviour the home stops exhibiting (the bulb firing
// out of the even group) is eventually forgotten — a detector on the aged
// version flags it again.
func TestAdapterDecayForgetsStaleTransitions(t *testing.T) {
	l, ctx := trainAlternating(t)
	a := newTestAdapter(t, ctx, WithDecay(0.5, 8))

	// Alternate clean windows with no actuator activity: G2G stays
	// reinforced, but the trained bulb transitions are never re-observed.
	oddSilent := func(idx int) *window.Observation {
		return makeObs(l, idx, []bool{false, true}, [][]float64{{10, 10, 10}, {50, 50, 50}})
	}
	var pub *Context
	for idx := 0; idx < 96; idx++ {
		var o *window.Observation
		if idx%2 == 0 {
			o = evenObs(l, idx)
		} else {
			o = oddSilent(idx)
		}
		p, err := a.Observe(o, Result{})
		if err != nil {
			t.Fatal(err)
		}
		if p != nil {
			pub = p
		}
	}
	if pub == nil || a.DecayedEdges() == 0 {
		t.Fatalf("aging never pruned an edge (decayed=%d)", a.DecayedEdges())
	}

	// The ongoing alternation survived reinforcement...
	d, err := New(pub)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 6; i++ {
		var o *window.Observation
		if i%2 == 0 {
			o = evenObs(l, 300+i)
		} else {
			o = oddSilent(300 + i)
		}
		res, err := d.Process(o)
		if err != nil {
			t.Fatal(err)
		}
		if res.Detected {
			t.Fatalf("reinforced behaviour flagged at window %d", 300+i)
		}
	}
	// ...but the abandoned bulb habit was forgotten: firing it again is a
	// violation on the aged version.
	res, err := d.Process(oddObs(l, 306))
	if err != nil {
		t.Fatal(err)
	}
	if res.Violation == CheckNone {
		t.Error("forgotten actuator transition not flagged on the aged version")
	}
}

// TestDetectorSwapContextAllocFree: after an adaptation swap the clean hot
// path must stay allocation-free — the published version is one frozen
// snapshot, same as the one it replaced.
func TestDetectorSwapContextAllocFree(t *testing.T) {
	l, ctx := trainAlternating(t)
	a := newTestAdapter(t, ctx, WithAdmitAfter(3))
	var pub *Context
	idx := 0
	for cycle := 0; cycle < 3; cycle++ {
		if p := feedAdmissionCycle(t, a, l, &idx); p != nil {
			pub = p
		}
	}
	if pub == nil {
		t.Fatal("no version published")
	}

	d, err := New(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if err := d.SwapContext(pub); err != nil {
		t.Fatal(err)
	}
	// Rotation exercising trained groups and the admitted one, pre-built so
	// the measurement sees only Process; warm first.
	seq := make([]*window.Observation, 16)
	for i := range seq {
		switch i % 4 {
		case 0, 2:
			seq[i] = evenObs(l, i)
		case 1:
			seq[i] = oddObs(l, i)
		default:
			seq[i] = newSetObs(l, i)
		}
	}
	for _, o := range seq {
		if _, err := d.Process(o); err != nil {
			t.Fatal(err)
		}
	}
	i := 0
	allocs := testing.AllocsPerRun(200, func() {
		res, err := d.Process(seq[i%len(seq)])
		i++
		if err != nil || res.Detected {
			t.Fatal("clean window flagged after swap", err)
		}
	})
	if allocs != 0 {
		t.Errorf("clean window after SwapContext allocates %.1f objects per run, want 0", allocs)
	}
}
