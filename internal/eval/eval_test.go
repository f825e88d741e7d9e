package eval

import (
	"testing"

	"repro/internal/core"
	"repro/internal/device"
	"repro/internal/faults"
	"repro/internal/simhome"
	"repro/internal/window"
)

// fastSpec is a small dataset that trains quickly: 6 days of recording,
// trained on the first 72 hours.
func fastSpec() simhome.Spec {
	s := simhome.SpecDHouseA()
	s.Name = "fast"
	s.Hours = 6 * 24
	return s
}

// fastProto shrinks the paper protocol for unit tests.
func fastProto() Protocol {
	p := DefaultProtocol()
	p.PrecomputeHours = 72
	p.Trials = 12
	return p
}

func trainFast(t testing.TB) *Trained {
	t.Helper()
	tr, err := Train(fastSpec(), 5, fastProto())
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

func TestMetrics(t *testing.T) {
	var m Metrics
	if m.Precision() != 1 || m.Recall() != 1 {
		t.Error("empty metrics should be perfect")
	}
	m.AddTP(8)
	m.AddFP(2)
	m.AddFN(2)
	if got := m.Precision(); got != 0.8 {
		t.Errorf("precision = %v", got)
	}
	if got := m.Recall(); got != 0.8 {
		t.Errorf("recall = %v", got)
	}
	if got := m.F1(); got < 0.8-1e-9 || got > 0.8+1e-9 {
		t.Errorf("F1 = %v", got)
	}
	if m.String() == "" {
		t.Error("empty String")
	}
}

func TestMeanAccumulator(t *testing.T) {
	var a MeanAccumulator
	if a.Mean() != 0 || a.N() != 0 {
		t.Error("zero accumulator broken")
	}
	a.Add(2)
	a.Add(4)
	if a.Mean() != 3 || a.N() != 2 {
		t.Errorf("mean=%v n=%d", a.Mean(), a.N())
	}
}

func TestProtocolNormalize(t *testing.T) {
	p := Protocol{}.normalize()
	d := DefaultProtocol()
	if p.PrecomputeHours != d.PrecomputeHours || p.Trials != d.Trials {
		t.Errorf("normalize: %+v", p)
	}
	if p.segmentWindows() != 360 {
		t.Errorf("segmentWindows = %d", p.segmentWindows())
	}
	p.WindowsPerAggregate = 2
	if p.segmentWindows() != 180 {
		t.Errorf("aggregated segmentWindows = %d", p.segmentWindows())
	}
}

func TestTrainValidation(t *testing.T) {
	s := fastSpec()
	p := fastProto()
	p.PrecomputeHours = s.Hours + 1
	if _, err := Train(s, 1, p); err == nil {
		t.Error("training longer than the recording accepted")
	}
}

func TestTrainProducesSegments(t *testing.T) {
	tr := trainFast(t)
	if tr.NumSegments() <= 0 {
		t.Fatal("no segments")
	}
	// 6 days - 3 days training = 72h -> 12 six-hour segments.
	if tr.NumSegments() != 12 {
		t.Errorf("NumSegments = %d, want 12", tr.NumSegments())
	}
	if tr.Context.NumGroups() == 0 {
		t.Error("no groups trained")
	}
}

func TestRunSegmentFaultFree(t *testing.T) {
	tr := trainFast(t)
	fpCount := 0
	for seg := 0; seg < tr.NumSegments(); seg++ {
		out, err := tr.RunSegment(seg, nil)
		if err != nil {
			t.Fatal(err)
		}
		if out.Faults != nil {
			t.Error("fault-free segment reported faults")
		}
		if out.Detected {
			fpCount++
		}
	}
	if fpCount > tr.NumSegments()/2 {
		t.Errorf("false positives in %d/%d fault-free segments", fpCount, tr.NumSegments())
	}
}

func TestRunSegmentOutOfRange(t *testing.T) {
	tr := trainFast(t)
	if _, err := tr.RunSegment(-1, nil); err == nil {
		t.Error("negative segment accepted")
	}
	if _, err := tr.RunSegment(tr.NumSegments(), nil); err == nil {
		t.Error("overflow segment accepted")
	}
}

func TestRunSegmentDetectsFailStop(t *testing.T) {
	tr := trainFast(t)
	// Fail-stop the kitchen light sensor at window 0. The fault manifests
	// whenever the kitchen is occupied (or its bulb lit), which happens in
	// most but not all six-hour segments — a fault can only be caught when
	// the sensor would have reacted, exactly as in the paper.
	target, ok := tr.Home.Registry().Lookup("light-kitchen")
	if !ok {
		t.Fatal("no kitchen light sensor")
	}
	detected := 0
	identifiedCorrectly := 0
	for seg := 0; seg < tr.NumSegments(); seg++ {
		inj, err := faults.NewInjector(tr.Home.Layout(), 9,
			faults.Fault{Device: target, Type: faults.FailStop, Onset: 0})
		if err != nil {
			t.Fatal(err)
		}
		out, err := tr.RunSegment(seg, inj)
		if err != nil {
			t.Fatal(err)
		}
		if out.Detected {
			detected++
		}
		for _, id := range out.Identified {
			if id == target {
				identifiedCorrectly++
			}
		}
	}
	if detected < tr.NumSegments()/2 {
		t.Errorf("fail-stop detected in only %d/%d segments", detected, tr.NumSegments())
	}
	if identifiedCorrectly < tr.NumSegments()/3 {
		t.Errorf("fail-stop identified in only %d/%d segments", identifiedCorrectly, tr.NumSegments())
	}
}

func TestPlanFaultsDeterministic(t *testing.T) {
	tr := trainFast(t)
	a, err := tr.PlanFaults(3)
	if err != nil {
		t.Fatal(err)
	}
	b, err := tr.PlanFaults(3)
	if err != nil {
		t.Fatal(err)
	}
	if len(a) != len(b) || a[0] != b[0] {
		t.Error("PlanFaults not deterministic per trial")
	}
	c, err := tr.PlanFaults(4)
	if err != nil {
		t.Fatal(err)
	}
	if a[0] == c[0] {
		t.Log("trials 3 and 4 drew the same fault (possible but unlikely)")
	}
}

func TestEvaluateDatasetEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("evaluation integration test")
	}
	r, err := EvaluateDataset(fastSpec(), 5, fastProto())
	if err != nil {
		t.Fatal(err)
	}
	if r.FaultySegments != 12 {
		t.Errorf("FaultySegments = %d, want 12", r.FaultySegments)
	}
	if r.Detection.Recall() < 0.5 {
		t.Errorf("detection recall %.2f unreasonably low", r.Detection.Recall())
	}
	if r.Detection.Precision() < 0.5 {
		t.Errorf("detection precision %.2f unreasonably low", r.Detection.Precision())
	}
	if r.Identification.Recall() > r.Detection.Recall()+1e-9 {
		t.Error("identification recall cannot exceed detection recall")
	}
	if r.NumGroups <= 0 || r.Degree <= 0 {
		t.Error("context stats missing")
	}
	if r.CorrelationCheckTime <= 0 {
		t.Error("stage timing missing")
	}
}

// TestIdentifyTimeMeasured: identification runs only inside episodes, so
// its mean cost must come from those windows and read above zero on a
// dataset whose faults get detected.
func TestIdentifyTimeMeasured(t *testing.T) {
	if testing.Short() {
		t.Skip("evaluation integration test")
	}
	spec := simhome.SpecHouseA()
	spec.Hours = 6 * 24
	r, err := EvaluateDataset(spec, 5, fastProto())
	if err != nil {
		t.Fatal(err)
	}
	if r.DetectedSegments == 0 {
		t.Fatal("no faulty segment detected; identification never ran")
	}
	if r.IdentifyTime <= 0 {
		t.Errorf("IdentifyTime = %v, want > 0", r.IdentifyTime)
	}
}

func TestAggregateMergesWindows(t *testing.T) {
	tr := trainFast(t)
	layout := tr.Home.Layout()
	a := layout.NewObservation(0)
	b := layout.NewObservation(1)
	a.Binary[0] = true
	b.Binary[1] = true
	a.Numeric[0] = []float64{1}
	b.Numeric[0] = []float64{2}
	a.Actuated = []device.ID{layout.ActuatorID(0)}
	b.Actuated = []device.ID{layout.ActuatorID(0), layout.ActuatorID(1)}
	m := aggregate(layout, []*window.Observation{a, b}, 7)
	if m.Index != 7 {
		t.Errorf("Index = %d", m.Index)
	}
	if !m.Binary[0] || !m.Binary[1] {
		t.Errorf("Binary not ORed: %v", m.Binary)
	}
	if len(m.Numeric[0]) != 2 || m.Numeric[0][0] != 1 || m.Numeric[0][1] != 2 {
		t.Errorf("Numeric not concatenated: %v", m.Numeric[0])
	}
	if len(m.Actuated) != 2 {
		t.Errorf("Actuated not unioned: %v", m.Actuated)
	}
	// Single-window aggregation passes through but restamps the index.
	single := aggregate(layout, []*window.Observation{a}, 3)
	if single.Index != 3 || !single.Binary[0] {
		t.Error("single-window aggregate broken")
	}
}

func TestMultiFaultProtocol(t *testing.T) {
	p := MultiFaultProtocol(DefaultProtocol(), 3)
	if p.FaultsPerSegment != 3 || p.Config.MaxFaults != 3 {
		t.Errorf("MultiFaultProtocol: %+v", p)
	}
}

func TestActuatorProtocol(t *testing.T) {
	p := ActuatorProtocol(DefaultProtocol())
	for _, c := range p.FaultClasses {
		if !c.IsActuatorFault() {
			t.Errorf("non-actuator class %v", c)
		}
	}
}

// TestActuatorAccuracyTimingDetection runs the §5.1.3 actuator experiment
// on D_houseA, whose context is timing-capable and whose timing check
// fires on some trial. Detection latency is keyed by every check family,
// so a timing detection has a bucket to land in.
func TestActuatorAccuracyTimingDetection(t *testing.T) {
	if testing.Short() {
		t.Skip("evaluation integration test")
	}
	p := ActuatorProtocol(DefaultProtocol())
	p.Trials = 20
	tr, err := Train(simhome.SpecDHouseA(), 42, p)
	if err != nil {
		t.Fatal(err)
	}
	if !tr.Context.TimingCapable() {
		t.Fatal("D_houseA context is not timing-capable; the timing check cannot fire")
	}
	r, err := EvaluateTrainedWorkers(tr, 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := r.DetectMinutesByCheck[core.FamilyTiming]; !ok {
		t.Fatalf("no trial was detected by the timing check (latency by family %v); the test is vacuous", r.DetectMinutesByCheck)
	}
}
