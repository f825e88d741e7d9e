package dice

// One benchmark per table and figure of the paper's evaluation (§V). Each
// bench regenerates its table/figure on a scaled-down protocol (shorter
// precomputation, fewer trials) so `go test -bench=.` finishes in minutes;
// cmd/dice-eval runs the full-scale versions. Quality metrics are attached
// with b.ReportMetric — precision/recall as fractions, latency in minutes —
// so the shapes the paper reports are visible straight from the bench
// output.

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"time"

	"repro/internal/baseline"
	"repro/internal/bitvec"
	"repro/internal/core"
	"repro/internal/device"
	"repro/internal/eval"
	"repro/internal/faults"
	"repro/internal/simhome"
	"repro/internal/window"
)

// benchSeed keeps every benchmark deterministic.
const benchSeed = 42

// benchProto is the scaled-down §V protocol: 48h precomputation, 8 faulty
// trials per dataset.
func benchProto() eval.Protocol {
	p := eval.DefaultProtocol()
	p.PrecomputeHours = 48
	p.Trials = 8
	return p
}

// benchSpec truncates a dataset spec for benching.
func benchSpec(name string) simhome.Spec {
	spec, err := simhome.SpecByName(name)
	if err != nil {
		panic(err)
	}
	spec.Hours = 96
	return spec
}

// trainCache shares precomputations across benchmark iterations.
var (
	trainMu    sync.Mutex
	trainCache = map[string]*eval.Trained{}
)

func benchTrained(b *testing.B, name string) *eval.Trained {
	b.Helper()
	trainMu.Lock()
	defer trainMu.Unlock()
	if t, ok := trainCache[name]; ok {
		return t
	}
	t, err := eval.Train(benchSpec(name), benchSeed, benchProto())
	if err != nil {
		b.Fatal(err)
	}
	trainCache[name] = t
	return t
}

func benchEvaluate(b *testing.B, name string) *eval.DatasetResult {
	b.Helper()
	r, err := eval.EvaluateTrained(benchTrained(b, name))
	if err != nil {
		b.Fatal(err)
	}
	return r
}

// BenchmarkTable41Datasets regenerates the dataset inventory: it
// instantiates all ten simulated homes and touches one window of each.
func BenchmarkTable41Datasets(b *testing.B) {
	for i := 0; i < b.N; i++ {
		for _, spec := range simhome.AllSpecs() {
			h, err := simhome.New(spec, benchSeed)
			if err != nil {
				b.Fatal(err)
			}
			if h.Window(0) == nil {
				b.Fatal("nil window")
			}
		}
	}
}

// BenchmarkTable51CheckLatency regenerates the correlation-vs-transition
// detection-time split on houseB.
func BenchmarkTable51CheckLatency(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := benchEvaluate(b, "houseB")
		if c, ok := r.DetectMinutesByCheck["correlation"]; ok {
			b.ReportMetric(c, "corr-min")
		}
		if tr, ok := r.DetectMinutesByCheck["transition"]; ok {
			b.ReportMetric(tr, "trans-min")
		}
	}
}

// BenchmarkTable52CorrelationDegree regenerates the correlation-degree
// table across three representative datasets.
func BenchmarkTable52CorrelationDegree(b *testing.B) {
	for _, name := range []string{"houseA", "twor", "D_houseA"} {
		name := name
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				t := benchTrained(b, name)
				b.ReportMetric(t.Context.CorrelationDegree(), "degree")
				b.ReportMetric(float64(t.Context.NumGroups()), "groups")
			}
		})
	}
}

// BenchmarkFig51aDetectionAccuracy regenerates detection precision/recall.
func BenchmarkFig51aDetectionAccuracy(b *testing.B) {
	for _, name := range []string{"houseA", "D_houseA"} {
		name := name
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				r := benchEvaluate(b, name)
				b.ReportMetric(r.Detection.Precision(), "precision")
				b.ReportMetric(r.Detection.Recall(), "recall")
			}
		})
	}
}

// BenchmarkFig51bIdentificationAccuracy regenerates identification
// precision/recall.
func BenchmarkFig51bIdentificationAccuracy(b *testing.B) {
	for _, name := range []string{"houseA", "D_houseA"} {
		name := name
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				r := benchEvaluate(b, name)
				b.ReportMetric(r.Identification.Precision(), "precision")
				b.ReportMetric(r.Identification.Recall(), "recall")
			}
		})
	}
}

// BenchmarkFig52Latency regenerates detection/identification latency.
func BenchmarkFig52Latency(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := benchEvaluate(b, "D_houseA")
		b.ReportMetric(r.MeanDetectMinutes, "detect-min")
		b.ReportMetric(r.MeanIdentifyMinutes, "identify-min")
	}
}

// BenchmarkFig53ComputeTime measures the per-window computation cost of
// the three real-time stages on the largest deployment (hh102, 112
// sensors), averaged over the windows the detector timed (one in 64). The
// paper's bound is 50 ms per window.
func BenchmarkFig53ComputeTime(b *testing.B) {
	t := benchTrained(b, "hh102")
	det, err := core.New(t.Context)
	if err != nil {
		b.Fatal(err)
	}
	var corr, trans time.Duration
	sampled := 0
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := det.Process(t.Home.Window(48*60 + i%(24*60)))
		if err != nil {
			b.Fatal(err)
		}
		if res.Timing.Sampled {
			corr += res.Timing.Correlation
			trans += res.Timing.Transition
			sampled++
		}
	}
	b.StopTimer()
	if sampled > 0 {
		b.ReportMetric(float64(corr.Nanoseconds())/float64(sampled), "corr-ns/window")
		b.ReportMetric(float64(trans.Nanoseconds())/float64(sampled), "trans-ns/window")
	}
}

// BenchmarkFig54DetectionRatio regenerates the per-fault-type check split.
func BenchmarkFig54DetectionRatio(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := benchEvaluate(b, "houseB")
		for typ, cnt := range r.DetectByType {
			total := cnt[0] + cnt[1]
			if total > 0 {
				b.ReportMetric(float64(cnt[1])/float64(total), typ+"-trans-ratio")
			}
		}
	}
}

// BenchmarkActuatorFaults regenerates the §5.1.3 actuator-fault accuracy.
func BenchmarkActuatorFaults(b *testing.B) {
	proto := eval.ActuatorProtocol(benchProto())
	for i := 0; i < b.N; i++ {
		r, err := eval.EvaluateDataset(benchSpec("D_houseA"), benchSeed, proto)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(r.Detection.Recall(), "det-recall")
		b.ReportMetric(r.Identification.Precision(), "id-precision")
	}
}

// BenchmarkMultiFault regenerates the §VI multi-fault experiment (three
// simultaneous faults, numThre=3).
func BenchmarkMultiFault(b *testing.B) {
	proto := eval.MultiFaultProtocol(benchProto(), 3)
	for i := 0; i < b.N; i++ {
		r, err := eval.EvaluateDataset(benchSpec("D_houseA"), benchSeed, proto)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(r.Identification.Recall(), "id-recall")
	}
}

// BenchmarkAblations regenerates the §VI parameter study (here: the
// 2-minute duration variant).
func BenchmarkAblations(b *testing.B) {
	proto := benchProto()
	proto.WindowsPerAggregate = 2
	for i := 0; i < b.N; i++ {
		r, err := eval.RunAblation(benchSpec("D_houseA"), benchSeed, proto, "duration 2m")
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(r.Identification.Recall(), "id-recall")
		b.ReportMetric(float64(r.NumGroups), "groups")
	}
}

// BenchmarkBaselines regenerates the quantified Table 2.1 comparison on a
// compact dataset.
func BenchmarkBaselines(b *testing.B) {
	cfg := baseline.CompareConfig{PrecomputeHours: 48, SegmentHours: 6, Trials: 6, Seed: benchSeed}
	for i := 0; i < b.N; i++ {
		rows, err := baseline.Compare(benchSpec("houseB"), benchSeed, cfg)
		if err != nil {
			b.Fatal(err)
		}
		for _, row := range rows {
			b.ReportMetric(row.Recall, row.Detector+"-recall")
		}
	}
}

// scanBenchContext builds a synthetic context with size groups over a
// 128-bit state set (80 binary + 16 numeric sensors), clustered the way real
// catalogues are: near-neighbour variants of a few dozen base patterns.
func scanBenchContext(b *testing.B, size int) (*core.Context, *bitvec.Vec, *bitvec.Vec) {
	b.Helper()
	reg := device.NewRegistry()
	for i := 0; i < 80; i++ {
		reg.MustAdd(fmt.Sprintf("bin-%03d", i), device.Binary, device.Motion, "room")
	}
	thre := make([]float64, 16)
	for i := range thre {
		reg.MustAdd(fmt.Sprintf("num-%03d", i), device.Numeric, device.Temperature, "room")
		thre[i] = 20
	}
	layout := window.NewLayout(reg)
	cb, err := core.NewContextBuilder(layout, time.Minute, thre)
	if err != nil {
		b.Fatal(err)
	}
	nbits := layout.NumBinary() + core.BitsPerNumeric*layout.NumNumeric()
	rng := rand.New(rand.NewSource(benchSeed))
	seeds := make([]*bitvec.Vec, 32)
	for i := range seeds {
		v := bitvec.New(nbits)
		for j := 0; j < nbits; j++ {
			if rng.Float64() < 0.25 {
				v.Set(j)
			}
		}
		seeds[i] = v
	}
	for cb.NumGroups() < size {
		g := seeds[rng.Intn(len(seeds))].Clone()
		for f := rng.Intn(8); f > 0; f-- {
			g.Flip(rng.Intn(nbits))
		}
		cb.AddGroup(g)
	}
	ctx, err := cb.Build()
	if err != nil {
		b.Fatal(err)
	}
	member, err := ctx.Group(size / 2)
	if err != nil {
		b.Fatal(err)
	}
	mainQuery := member.Clone()
	missQuery := member.Clone()
	missQuery.Flip(0)
	missQuery.Flip(nbits / 2)
	missQuery.Flip(nbits - 1)
	return ctx, mainQuery, missQuery
}

// BenchmarkScan measures the correlation scan — the per-window hot
// operation of the real-time phase — at catalogue sizes 10^2/10^3/10^4, on
// both paths (main-group exact match, and a violation near-miss), for the
// indexed implementation against the retained naive reference.
func BenchmarkScan(b *testing.B) {
	const maxDist = 4
	for _, size := range []int{100, 1000, 10000} {
		ctx, mainQ, missQ := scanBenchContext(b, size)
		scratch := new(core.ScanScratch)
		b.Run(fmt.Sprintf("indexed/main/%d", size), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if c := ctx.ScanWith(scratch, mainQ, maxDist); c.Main == core.NoGroup {
					b.Fatal("lost main group")
				}
			}
		})
		b.Run(fmt.Sprintf("naive/main/%d", size), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if c := ctx.ScanNaive(mainQ, maxDist); c.Main == core.NoGroup {
					b.Fatal("lost main group")
				}
			}
		})
		b.Run(fmt.Sprintf("indexed/violation/%d", size), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if c := ctx.ScanWith(scratch, missQ, maxDist); c.Main != core.NoGroup {
					b.Fatal("unexpected main group")
				}
			}
		})
		b.Run(fmt.Sprintf("naive/violation/%d", size), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if c := ctx.ScanNaive(missQ, maxDist); c.Main != core.NoGroup {
					b.Fatal("unexpected main group")
				}
			}
		})
	}
}

// BenchmarkEvaluateParallel measures the worker-pool evaluation harness at
// 1/2/4 workers over one shared precomputation. On multi-core hardware the
// per-op time should scale near-linearly to 4 workers; results are
// bit-identical at every width (TestEvaluateTrainedParallelDeterminism).
func BenchmarkEvaluateParallel(b *testing.B) {
	t := benchTrained(b, "houseB")
	for _, workers := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				r, err := eval.EvaluateTrainedWorkers(t, workers)
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(r.Detection.Recall(), "det-recall")
			}
		})
	}
}

// BenchmarkTrainingThroughput measures precomputation cost per window on
// the paper's own testbed deployment.
func BenchmarkTrainingThroughput(b *testing.B) {
	spec := benchSpec("D_houseA")
	h, err := simhome.New(spec, benchSeed)
	if err != nil {
		b.Fatal(err)
	}
	windows := h.WindowRange(0, 24*60)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.TrainWindows(h.Layout(), time.Minute, windows); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(len(windows)), "windows/op")
}

// BenchmarkFaultInjection measures the injector overhead per window.
func BenchmarkFaultInjection(b *testing.B) {
	t := benchTrained(b, "D_houseA")
	fs, err := t.PlanFaults(0)
	if err != nil {
		b.Fatal(err)
	}
	inj, err := t.InjectorFor(0, fs)
	if err != nil {
		b.Fatal(err)
	}
	o := t.Home.Window(50 * 60)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		inj.Apply(o, i%360)
	}
}

// Sanity check that the bench fixtures stay valid as the code evolves.
func TestBenchFixtures(t *testing.T) {
	for _, name := range []string{"houseA", "houseB", "twor", "hh102", "D_houseA"} {
		spec := benchSpec(name)
		if spec.Hours != 96 {
			t.Errorf("%s: hours = %d", name, spec.Hours)
		}
	}
	p := benchProto()
	if p.PrecomputeHours != 48 || p.Trials != 8 {
		t.Errorf("benchProto: %+v", p)
	}
	if len(faults.SensorTypes()) != 5 {
		t.Error("sensor fault classes changed; update benches")
	}
	if fmt.Sprintf("%d", benchSeed) != "42" {
		t.Error("bench seed drifted")
	}
}
