package core

import (
	"testing"
	"time"

	"repro/internal/device"
	"repro/internal/window"
)

// trainAlternating trains a context on the alternating two-state scenario
// from trainer_test.go and returns it with its layout.
func trainAlternating(t testing.TB) (*window.Layout, *Context) {
	t.Helper()
	l := coreLayout(t)
	ctx, err := TrainWindows(l, time.Minute, trainScenario(t, l, 60))
	if err != nil {
		t.Fatal(err)
	}
	return l, ctx
}

// evenObs/oddObs reproduce the two normal states of the training scenario.
func evenObs(l *window.Layout, idx int) *window.Observation {
	return makeObs(l, idx, []bool{true, false}, [][]float64{{30, 30, 30}, {50, 50, 50}})
}

func oddObs(l *window.Layout, idx int) *window.Observation {
	return makeObs(l, idx, []bool{false, true}, [][]float64{{10, 10, 10}, {50, 50, 50}}, device.ID(4))
}

func newTestDetector(t testing.TB, ctx *Context, cfg Config) *Detector {
	t.Helper()
	d, err := New(ctx, WithConfig(cfg))
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func feedNormal(t testing.TB, d *Detector, l *window.Layout, from, n int) int {
	t.Helper()
	for i := 0; i < n; i++ {
		idx := from + i
		var o *window.Observation
		if idx%2 == 0 {
			o = evenObs(l, idx)
		} else {
			o = oddObs(l, idx)
		}
		res, err := d.Process(o)
		if err != nil {
			t.Fatal(err)
		}
		if res.Detected || res.Alert != nil {
			t.Fatalf("false positive at window %d: %+v", idx, res)
		}
	}
	return from + n
}

func TestNewDetectorValidation(t *testing.T) {
	if _, err := New(nil); err == nil {
		t.Error("nil context accepted")
	}
	l := coreLayout(t)
	cb, err := NewContextBuilder(l, time.Minute, []float64{0, 0})
	if err != nil {
		t.Fatal(err)
	}
	empty, err := cb.Build()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := New(empty); err == nil {
		t.Error("empty context accepted")
	}
}

func TestDetectorCleanStream(t *testing.T) {
	l, ctx := trainAlternating(t)
	d := newTestDetector(t, ctx, Config{})
	feedNormal(t, d, l, 0, 50)
	if d.Identifying() {
		t.Error("detector identifying after clean stream")
	}
}

func TestCorrelationViolationDetectedAndIdentified(t *testing.T) {
	l, ctx := trainAlternating(t)
	d := newTestDetector(t, ctx, Config{})
	next := feedNormal(t, d, l, 0, 10)

	// Fail-stop of motion-a (ID 0): its bit goes dark on even windows,
	// producing a state set never seen in training.
	var alert *Alert
	detectedAt := -1
	for i := 0; i < 20 && alert == nil; i++ {
		idx := next + i
		var o *window.Observation
		if idx%2 == 0 {
			o = evenObs(l, idx)
			o.Binary[0] = false // the fault
		} else {
			o = oddObs(l, idx)
		}
		res, err := d.Process(o)
		if err != nil {
			t.Fatal(err)
		}
		if res.Detected {
			detectedAt = idx
			if res.Violation != CheckCorrelation {
				t.Errorf("violation = %v, want correlation", res.Violation)
			}
		}
		alert = res.Alert
	}
	if detectedAt < 0 {
		t.Fatal("fault never detected")
	}
	if alert == nil {
		t.Fatal("fault never identified")
	}
	if len(alert.Devices) != 1 || alert.Devices[0] != 0 {
		t.Errorf("identified %v, want [0]", alert.Devices)
	}
	if alert.Cause != CheckCorrelation {
		t.Errorf("cause = %v", alert.Cause)
	}
	if alert.DetectedWindow != detectedAt {
		t.Errorf("DetectedWindow = %d, want %d", alert.DetectedWindow, detectedAt)
	}
	if alert.ReportedWindow < alert.DetectedWindow {
		t.Error("reported before detected")
	}
	if d.Identifying() {
		t.Error("episode not closed after alert")
	}
}

func TestNumericFaultIdentified(t *testing.T) {
	l, ctx := trainAlternating(t)
	d := newTestDetector(t, ctx, Config{})
	next := feedNormal(t, d, l, 0, 10)

	// Stuck-at-high temp sensor (ID 2): on odd windows the temp should be
	// low (mean bit 0) but reports high.
	var alert *Alert
	for i := 0; i < 30 && alert == nil; i++ {
		idx := next + i
		var o *window.Observation
		if idx%2 == 0 {
			o = evenObs(l, idx)
		} else {
			o = oddObs(l, idx)
		}
		o.Numeric[0] = []float64{30, 30, 30} // stuck high regardless of state
		res, err := d.Process(o)
		if err != nil {
			t.Fatal(err)
		}
		alert = res.Alert
	}
	if alert == nil {
		t.Fatal("numeric fault never identified")
	}
	if len(alert.Devices) != 1 || alert.Devices[0] != 2 {
		t.Errorf("identified %v, want [2]", alert.Devices)
	}
}

func TestG2GViolationDetected(t *testing.T) {
	// Train on a strict 3-cycle A->B->C->A so that A->C is a known-group
	// but impossible transition.
	l := coreLayout(t)
	a := makeObs(l, 0, []bool{true, false}, [][]float64{{0}, {0}})
	b := makeObs(l, 1, []bool{false, true}, [][]float64{{0}, {0}})
	c := makeObs(l, 2, []bool{true, true}, [][]float64{{0}, {0}})
	var obs []*window.Observation
	for i := 0; i < 30; i++ {
		o := [3]*window.Observation{a, b, c}[i%3].Clone()
		o.Index = i
		obs = append(obs, o)
	}
	ctx, err := TrainWindows(l, time.Minute, obs)
	if err != nil {
		t.Fatal(err)
	}
	if ctx.NumGroups() != 3 {
		t.Fatalf("NumGroups = %d, want 3", ctx.NumGroups())
	}
	d := newTestDetector(t, ctx, Config{})
	// Feed A then C: both known groups, transition impossible.
	if _, err := d.Process(a.Clone()); err != nil {
		t.Fatal(err)
	}
	res, err := d.Process(c.Clone())
	if err != nil {
		t.Fatal(err)
	}
	if !res.Detected || res.Violation != CheckG2G {
		t.Fatalf("want G2G detection, got %+v", res)
	}
	// Suspects: diff of C against successors of A (i.e. B). C and B differ
	// in bit 0 (motion-a): the suspect should be device 0.
	if len(res.Probable) != 1 || res.Probable[0] != 0 {
		t.Errorf("probable = %v, want [0]", res.Probable)
	}
}

func TestG2AViolationFlagsActuator(t *testing.T) {
	l, ctx := trainAlternating(t)
	d := newTestDetector(t, ctx, Config{})
	next := feedNormal(t, d, l, 0, 10)
	// Bulb fires after an even window; training only ever saw it fire
	// after odd-window groups' predecessor (group 0 = even state). In the
	// alternating scenario the bulb fires on odd windows, so G2A has
	// group0->bulb. Firing it after an odd window (prev group 1) violates.
	idx := next // even index; prev window was odd -> prev group 1
	o := evenObs(l, idx)
	o.Actuated = []device.ID{4} // bulb fires spuriously
	res, err := d.Process(o)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Detected || res.Violation != CheckG2A {
		t.Fatalf("want G2A detection, got %+v", res)
	}
	if res.Alert == nil {
		t.Fatal("single-actuator suspect should report immediately")
	}
	if len(res.Alert.Devices) != 1 || res.Alert.Devices[0] != 4 {
		t.Errorf("identified %v, want [4]", res.Alert.Devices)
	}
}

func TestA2GViolationDetected(t *testing.T) {
	l, ctx := trainAlternating(t)
	d := newTestDetector(t, ctx, Config{})
	next := feedNormal(t, d, l, 0, 9) // ends after an even window (idx 8), next=9

	// Odd window: bulb fires normally (A2G bulb->group0 expected next).
	if _, err := d.Process(oddObs(l, next)); err != nil {
		t.Fatal(err)
	}
	// Next window: present the odd-state group again (group 1) instead of
	// the even group the bulb always leads to -> A2G violation.
	o := makeObs(l, next+1, []bool{false, true}, [][]float64{{10, 10, 10}, {50, 50, 50}})
	res, err := d.Process(o)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Detected {
		t.Fatalf("A2G violation not detected: %+v", res)
	}
	if res.Violation != CheckA2G && res.Violation != CheckG2G {
		t.Fatalf("violation = %v, want a transition check", res.Violation)
	}
}

func TestIdentificationIntersectionNarrows(t *testing.T) {
	// Build a context where the faulty window initially implicates several
	// sensors, and the intersection across repeated windows narrows to one.
	l, ctx := trainAlternating(t)
	d := newTestDetector(t, ctx, Config{MaxFaults: 1})
	next := feedNormal(t, d, l, 0, 10)

	// light sensor (ID 3) dies: on all windows its mean bit drops from the
	// trained pattern (light is 50 with threshold 50 -> bits 000 normally;
	// make training different first). Instead: light jumps high on even
	// windows only; this makes the even state set unseen while odd windows
	// remain normal, so identification sees repeated evidence on evens.
	var alert *Alert
	steps := 0
	for i := 0; i < 40 && alert == nil; i++ {
		idx := next + i
		var o *window.Observation
		if idx%2 == 0 {
			o = evenObs(l, idx)
			o.Numeric[1] = []float64{500, 500, 500} // fault: light very high
		} else {
			o = oddObs(l, idx)
		}
		res, err := d.Process(o)
		if err != nil {
			t.Fatal(err)
		}
		steps++
		alert = res.Alert
	}
	if alert == nil {
		t.Fatal("fault never identified")
	}
	if len(alert.Devices) != 1 || alert.Devices[0] != 3 {
		t.Errorf("identified %v, want [3]", alert.Devices)
	}
}

func TestIdentifyGiveUpOnNormalStreak(t *testing.T) {
	l, ctx := trainAlternating(t)
	d := newTestDetector(t, ctx, Config{IdentifyGiveUp: 3, MaxFaults: 1})
	next := feedNormal(t, d, l, 0, 10)

	// One transient glitch implicating two devices (both motions swapped)
	// then a return to normal: identification should give up and report
	// the standing intersection after 3 clean windows.
	o := makeObs(l, next, []bool{true, true}, [][]float64{{30, 30, 30}, {50, 50, 50}})
	res, err := d.Process(o)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Detected {
		t.Fatalf("glitch not detected: %+v", res)
	}
	if res.Alert != nil {
		t.Skip("glitch identified immediately; give-up path not exercised")
	}
	var alert *Alert
	for i := 1; i <= 10 && alert == nil; i++ {
		idx := next + i
		var w *window.Observation
		if idx%2 == 0 {
			w = evenObs(l, idx)
		} else {
			w = oddObs(l, idx)
		}
		r, err := d.Process(w)
		if err != nil {
			t.Fatal(err)
		}
		alert = r.Alert
	}
	if alert == nil {
		t.Fatal("identification never gave up despite clean stream")
	}
	if len(alert.Devices) == 0 {
		t.Error("give-up alert carried no devices")
	}
}

func TestWeightedDeviceReportsEarly(t *testing.T) {
	l, ctx := trainAlternating(t)
	// Weight device 1 (motion-b) as critical.
	d := newTestDetector(t, ctx, Config{
		MaxFaults:   1,
		Weights:     map[device.ID]float64{1: 10},
		WeightAlarm: 5,
	})
	next := feedNormal(t, d, l, 0, 10)
	// A window implicating both motion sensors: without weights this needs
	// narrowing; with the weight on device 1 it reports immediately.
	o := makeObs(l, next, []bool{true, true}, [][]float64{{30, 30, 30}, {50, 50, 50}})
	res, err := d.Process(o)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Detected {
		t.Fatalf("not detected: %+v", res)
	}
	if res.Alert == nil {
		t.Fatal("weighted device did not trigger early report")
	}
	if len(res.Alert.Devices) > 1 && !res.Alert.EarlyWeight {
		t.Error("multi-device early report should be flagged EarlyWeight")
	}
	found := false
	for _, id := range res.Alert.Devices {
		if id == 1 {
			found = true
		}
	}
	if !found {
		t.Errorf("critical device missing from alert: %v", res.Alert.Devices)
	}
}

func TestResetClearsState(t *testing.T) {
	l, ctx := trainAlternating(t)
	d := newTestDetector(t, ctx, Config{})
	feedNormal(t, d, l, 0, 4)
	// Trigger a violation to enter identification.
	o := makeObs(l, 4, []bool{true, true}, [][]float64{{30, 30, 30}, {50, 50, 50}})
	res, err := d.Process(o)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Detected {
		t.Fatal("setup violation not detected")
	}
	d.Reset()
	if d.Identifying() {
		t.Error("Reset left an episode active")
	}
	// After reset the detector has no previous group: an odd window right
	// away must not be a G2G violation.
	r2, err := d.Process(oddObs(l, 100))
	if err != nil {
		t.Fatal(err)
	}
	if r2.Detected {
		t.Errorf("detection fired immediately after reset: %+v", r2)
	}
}

func TestTimingPopulated(t *testing.T) {
	l, ctx := trainAlternating(t)
	d := newTestDetector(t, ctx, Config{})
	res, err := d.Process(evenObs(l, 0))
	if err != nil {
		t.Fatal(err)
	}
	if res.Timing.Binarize <= 0 || res.Timing.Correlation <= 0 {
		t.Errorf("timing not populated: %+v", res.Timing)
	}
	if res.Timing.Total() < res.Timing.Binarize {
		t.Error("Total less than a component")
	}
}

func TestCheckKindStrings(t *testing.T) {
	if CheckNone.String() != "none" || CheckCorrelation.String() != "correlation" ||
		CheckG2G.String() != "g2g" || CheckG2A.String() != "g2a" || CheckA2G.String() != "a2g" {
		t.Error("CheckKind.String mismatch")
	}
	if CheckKind(42).String() == "" {
		t.Error("unknown kind should render")
	}
	if CheckCorrelation.IsTransition() {
		t.Error("correlation is not a transition check")
	}
	if !CheckG2G.IsTransition() || !CheckG2A.IsTransition() || !CheckA2G.IsTransition() {
		t.Error("transition kinds misclassified")
	}
}

func TestConfigNormalize(t *testing.T) {
	c := Config{}.Normalize()
	if c.MaxFaults != DefaultMaxFaults || c.IdentifyGiveUp != DefaultIdentifyGiveUp ||
		c.MaxIdentifyWindows != DefaultMaxIdentifyWindows {
		t.Errorf("defaults: %+v", c)
	}
	if c.candidateDistance() != 3*DefaultMaxFaults {
		t.Errorf("candidateDistance = %d", c.candidateDistance())
	}
	c2 := Config{MaxFaults: 3, IdentifyGiveUp: 7, MaxIdentifyWindows: 9}.Normalize()
	if c2.MaxFaults != 3 || c2.IdentifyGiveUp != 7 || c2.MaxIdentifyWindows != 9 {
		t.Errorf("explicit fields overridden: %+v", c2)
	}
	if c2.candidateDistance() != 9 {
		t.Errorf("candidateDistance for 3 faults = %d, want 9", c2.candidateDistance())
	}
}

func BenchmarkDetectorProcessClean(b *testing.B) {
	l, ctx := trainAlternating(b)
	d, err := New(ctx)
	if err != nil {
		b.Fatal(err)
	}
	even := evenObs(l, 0)
	odd := oddObs(l, 1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		o := even
		if i%2 == 1 {
			o = odd
		}
		o.Index = i
		if _, err := d.Process(o); err != nil {
			b.Fatal(err)
		}
	}
}

func TestAttestationFiltersAndDismisses(t *testing.T) {
	l, ctx := trainAlternating(t)

	// An attestor that clears every device dismisses the episode entirely.
	allHealthy := func(devices []device.ID) []device.ID { return nil }
	d := newTestDetector(t, ctx, Config{Attest: allHealthy})
	next := feedNormal(t, d, l, 0, 10)
	sawAlert := false
	for i := 0; i < 20; i++ {
		idx := next + i
		var o *window.Observation
		if idx%2 == 0 {
			o = evenObs(l, idx)
			o.Binary[0] = false // fail-stop motion-a
		} else {
			o = oddObs(l, idx)
		}
		res, err := d.Process(o)
		if err != nil {
			t.Fatal(err)
		}
		if res.Alert != nil {
			sawAlert = true
		}
	}
	if sawAlert {
		t.Error("attestor cleared all devices but an alert still fired")
	}

	// An attestor that confirms the fault passes it through unchanged.
	confirm := func(devices []device.ID) []device.ID { return devices }
	d2 := newTestDetector(t, ctx, Config{Attest: confirm})
	next = feedNormal(t, d2, l, 0, 10)
	var alert *Alert
	for i := 0; i < 20 && alert == nil; i++ {
		idx := next + i
		var o *window.Observation
		if idx%2 == 0 {
			o = evenObs(l, idx)
			o.Binary[0] = false
		} else {
			o = oddObs(l, idx)
		}
		res, err := d2.Process(o)
		if err != nil {
			t.Fatal(err)
		}
		alert = res.Alert
	}
	if alert == nil || len(alert.Devices) != 1 || alert.Devices[0] != 0 {
		t.Fatalf("confirming attestor changed the outcome: %+v", alert)
	}
}
