package core

import (
	"encoding/json"
	"testing"
	"time"

	"repro/internal/device"
	"repro/internal/telemetry"
	"repro/internal/window"
)

// TestDetectorInstrumentedCleanWindowAllocFree: instrumenting the detector
// must not cost the clean-window hot path its zero-allocation guarantee.
func TestDetectorInstrumentedCleanWindowAllocFree(t *testing.T) {
	l := coreLayout(t)
	obs := make([]*window.Observation, 12)
	for i := range obs {
		o := l.NewObservation(i)
		o.Binary[0] = i%2 == 0
		o.Binary[1] = i%2 == 1
		temp, light := 10.0, 50.0
		if i%2 == 0 {
			temp, light = 30, 200
		}
		o.Numeric[0] = []float64{temp, temp}
		o.Numeric[1] = []float64{light, light}
		obs[i] = o
	}
	ctx, err := TrainWindows(l, time.Minute, obs)
	if err != nil {
		t.Fatal(err)
	}
	reg := telemetry.NewRegistry()
	det, err := New(ctx, WithConfig(Config{}), WithTelemetry(reg))
	if err != nil {
		t.Fatal(err)
	}
	for _, o := range obs {
		if _, err := det.Process(o); err != nil {
			t.Fatal(err)
		}
	}
	i := 0
	allocs := testing.AllocsPerRun(200, func() {
		res, err := det.Process(obs[i%len(obs)])
		i++
		if err != nil || res.Detected {
			t.Fatal("clean window flagged", err)
		}
	})
	if allocs != 0 {
		t.Errorf("instrumented clean-window Process allocates %.1f objects per run, want 0", allocs)
	}
	snap := reg.SnapshotMap()
	if snap[metricWindows] < 200 {
		t.Errorf("%s = %g after 200+ windows", metricWindows, snap[metricWindows])
	}
	if snap[metricScanExact] == 0 {
		t.Errorf("%s never incremented on a clean stream", metricScanExact)
	}
}

// TestDetectorViolationMetricsAndExplain drives an untrained window through
// an instrumented detector and checks the violation counter, the episode
// series, and the alert's Explain trace.
func TestDetectorViolationMetricsAndExplain(t *testing.T) {
	l := coreLayout(t)
	obs := make([]*window.Observation, 12)
	for i := range obs {
		o := l.NewObservation(i)
		o.Binary[0] = i%2 == 0
		o.Binary[1] = i%2 == 1
		temp, light := 10.0, 50.0
		if i%2 == 0 {
			temp, light = 30, 200
		}
		o.Numeric[0] = []float64{temp, temp}
		o.Numeric[1] = []float64{light, light}
		obs[i] = o
	}
	ctx, err := TrainWindows(l, time.Minute, obs)
	if err != nil {
		t.Fatal(err)
	}
	reg := telemetry.NewRegistry()
	det, err := New(ctx, WithConfig(Config{}), WithTelemetry(reg))
	if err != nil {
		t.Fatal(err)
	}
	var alert *Alert
	for w := 0; w < 60 && alert == nil; w++ {
		o := obs[w%len(obs)].Clone()
		o.Index = w
		if w >= 6 {
			o.Binary[0] = false
			o.Binary[1] = false // both motion sensors stuck off: untrained set
		}
		res, err := det.Process(o)
		if err != nil {
			t.Fatal(err)
		}
		alert = res.Alert
	}
	if alert == nil {
		t.Fatal("no alert from an untrained stream")
	}
	if alert.Explain == nil {
		t.Fatal("alert has no Explain trace")
	}
	ex := alert.Explain
	if ex.Cause != alert.Cause {
		t.Errorf("trace cause %s, alert cause %s", ex.Cause, alert.Cause)
	}
	if ex.DetectedWindow != alert.DetectedWindow || ex.ReportedWindow != alert.ReportedWindow {
		t.Errorf("trace windows [%d,%d], alert [%d,%d]",
			ex.DetectedWindow, ex.ReportedWindow, alert.DetectedWindow, alert.ReportedWindow)
	}
	if len(ex.Steps) == 0 {
		t.Error("trace has no steps")
	} else if ex.Steps[0].Window != ex.DetectedWindow {
		t.Errorf("first step window %d, want opening window %d", ex.Steps[0].Window, ex.DetectedWindow)
	}
	snap := reg.SnapshotMap()
	violations := 0.0
	for _, name := range CauseNames() {
		violations += snap[metricViolations+`{cause="`+name+`"}`]
	}
	if violations == 0 {
		t.Error("violation counters all zero after a detection")
	}
	if snap[metricEpisodes] == 0 {
		t.Errorf("%s = 0 after a concluded episode", metricEpisodes)
	}
	if snap[metricNamed] == 0 {
		t.Errorf("%s = 0 after an alert named devices", metricNamed)
	}
}

// TestCauseJSONRoundTrip: the string form round-trips, and the integer
// form older checkpoints wrote is rejected.
func TestCauseJSONRoundTrip(t *testing.T) {
	for _, k := range append(Causes(), CheckNone) {
		data, err := json.Marshal(k)
		if err != nil {
			t.Fatal(err)
		}
		if string(data) != `"`+k.String()+`"` {
			t.Errorf("marshal %v = %s", k, data)
		}
		var back CheckKind
		if err := json.Unmarshal(data, &back); err != nil {
			t.Fatal(err)
		}
		if back != k {
			t.Errorf("round trip %v -> %v", k, back)
		}
		var legacy CheckKind
		legacyData, _ := json.Marshal(int(k))
		if err := json.Unmarshal(legacyData, &legacy); err == nil {
			t.Errorf("integer cause %s parsed as %v", legacyData, legacy)
		}
	}
	var bad CheckKind
	if err := json.Unmarshal([]byte(`"bogus"`), &bad); err == nil {
		t.Error("unknown cause string parsed")
	}
}

// TestCauseFamilies pins the family partition used as metric labels and
// report keys.
func TestCauseFamilies(t *testing.T) {
	want := map[CheckKind]string{
		CheckCorrelation: FamilyCorrelation,
		CheckG2G:         FamilyTransition,
		CheckG2A:         FamilyTransition,
		CheckA2G:         FamilyTransition,
		CheckLiveness:    FamilyLiveness,
		CheckTiming:      FamilyTiming,
	}
	for k, fam := range want {
		if got := k.Family(); got != fam {
			t.Errorf("%s family = %s, want %s", k, got, fam)
		}
	}
	names := CauseNames()
	if len(names) != len(Causes()) {
		t.Fatal("CauseNames and Causes disagree")
	}
	for i, c := range Causes() {
		if names[i] != c.String() {
			t.Errorf("CauseNames[%d] = %s, want %s", i, names[i], c)
		}
		parsed, err := ParseCheckKind(names[i])
		if err != nil || parsed != c {
			t.Errorf("ParseCheckKind(%s) = %v, %v", names[i], parsed, err)
		}
	}
}

// TestExplainClone: clones share nothing and preserve nil-vs-empty shape.
func TestExplainClone(t *testing.T) {
	var nilEx *Explain
	if nilEx.Clone() != nil {
		t.Error("nil Clone not nil")
	}
	ex := &Explain{
		Cause:          CheckG2G,
		DetectedWindow: 3,
		PrevGroup:      1,
		MainGroup:      2,
		MinDistance:    NoDistance,
	}
	ex.addStep(ExplainStep{Window: 3, Violation: CheckG2G, Suspects: []device.ID{1, 2}, Intersection: []device.ID{1}})
	c := ex.Clone()
	c.Steps[0].Suspects[0] = 99
	if ex.Steps[0].Suspects[0] == 99 {
		t.Error("clone aliases the original's suspects")
	}
	// Bound enforcement.
	for i := 0; i < maxExplainSteps+5; i++ {
		ex.addStep(ExplainStep{Window: 10 + i})
	}
	if len(ex.Steps) != maxExplainSteps {
		t.Errorf("steps = %d, want bound %d", len(ex.Steps), maxExplainSteps)
	}
	if ex.TruncatedSteps != 6 {
		t.Errorf("truncated = %d, want 6", ex.TruncatedSteps)
	}
}
