package eval

import (
	"time"

	"repro/internal/core"
	"repro/internal/faults"
	"repro/internal/simhome"
)

// DatasetResult aggregates every per-dataset quantity the paper reports:
// Fig 5.1 accuracy, Fig 5.2 latency, Fig 5.3 computation time, Table 5.1
// per-check detection time, Table 5.2 correlation degree, and Fig 5.4
// detection-ratio by fault type.
type DatasetResult struct {
	Name       string
	NumSensors int
	NumGroups  int
	Degree     float64
	TrainTime  time.Duration

	// Detection/identification accuracy (Fig 5.1).
	Detection      Metrics
	Identification Metrics

	// Latency in minutes from fault onset (Fig 5.2).
	MeanDetectMinutes   float64
	MeanIdentifyMinutes float64

	// Detection time split by the check that fired (Table 5.1), minutes.
	DetectMinutesByCheck map[string]float64

	// Mean per-window stage cost (Fig 5.3). The check times average every
	// fault-free window; IdentifyTime averages the faulty trials' windows
	// inside an identification episode, the only windows that run it.
	CorrelationCheckTime time.Duration
	TransitionCheckTime  time.Duration
	IdentifyTime         time.Duration

	// Detection counts per fault type and check family (Fig 5.4).
	// Key: fault type name -> [correlation, transition] counts.
	DetectByType map[string][2]int

	// Raw counts for transparency.
	FaultySegments    int
	DetectedSegments  int
	FaultFreeSegments int
	FalsePositives    int

	// EvalTime is the wall-clock cost of the evaluation passes (fault-free
	// plus faulty), excluding training. With Workers > 1 this shrinks while
	// every metric above stays bit-identical.
	EvalTime time.Duration
	// Workers is the pool size the evaluation actually ran with.
	Workers int
}

// EvaluateDataset runs the full §V protocol for one dataset spec with the
// default worker pool (GOMAXPROCS).
func EvaluateDataset(spec simhome.Spec, seed int64, proto Protocol) (*DatasetResult, error) {
	return EvaluateDatasetWorkers(spec, seed, proto, 0)
}

// EvaluateDatasetWorkers is EvaluateDataset with an explicit worker count
// (<= 0 means GOMAXPROCS).
func EvaluateDatasetWorkers(spec simhome.Spec, seed int64, proto Protocol, workers int) (*DatasetResult, error) {
	t, err := Train(spec, seed, proto)
	if err != nil {
		return nil, err
	}
	return EvaluateTrainedWorkers(t, workers)
}

// EvaluateTrained runs the protocol against an existing precomputation with
// the default worker pool (GOMAXPROCS).
func EvaluateTrained(t *Trained) (*DatasetResult, error) {
	return EvaluateTrainedWorkers(t, 0)
}

// trialRun carries one faulty trial's plan and outcome from the worker pool
// to the serial fold.
type trialRun struct {
	fs  []faults.Fault
	out SegmentOutcome
}

// EvaluateTrainedWorkers runs the protocol against an existing
// precomputation, fanning the fault-free segments and the faulty trials
// across a pool of workers goroutines (<= 0 means GOMAXPROCS).
//
// Determinism guarantee: every per-trial random draw is derived from the
// protocol seed and the trial index alone (PlanFaults, InjectorFor, and the
// simulator's hashed sampling), workers write their outcomes into
// index-addressed slots, and all aggregation happens afterwards in a single
// serial fold over those slots in index order. The resulting DatasetResult
// metrics are therefore bit-identical at any worker count; only the
// wall-clock fields (TrainTime, EvalTime, and the per-stage timing means)
// vary run to run.
func EvaluateTrainedWorkers(t *Trained, workers int) (*DatasetResult, error) {
	proto := t.Protocol
	r := &DatasetResult{
		Name:                 t.Home.Spec().Name,
		NumSensors:           t.Home.Registry().NumSensors(),
		NumGroups:            t.Context.NumGroups(),
		Degree:               t.Context.CorrelationDegree(),
		TrainTime:            t.TrainTime,
		DetectMinutesByCheck: make(map[string]float64),
		DetectByType:         make(map[string][2]int),
		Workers:              resolveWorkers(workers, proto.Trials+t.NumSegments()),
	}
	evalStart := time.Now()

	// PlanFaults lazily builds the shared fault-pool binarizer; force it
	// before the fan-out so workers only read the Trained.
	if err := t.ensureBinarizer(); err != nil {
		return nil, err
	}

	// Fault-free pass over every distinct segment (precision).
	segOuts := make([]SegmentOutcome, t.NumSegments())
	err := forEachIndex(workers, t.NumSegments(), func(seg int) error {
		out, err := t.RunSegment(seg, nil)
		segOuts[seg] = out
		return err
	})
	if err != nil {
		return nil, err
	}
	var corrT, transT MeanAccumulator
	falsePos := 0
	for _, out := range segOuts {
		if out.Detected {
			falsePos++
		}
		if out.TimedWindows > 0 {
			corrT.Add(float64(out.MeanCorrelation))
			transT.Add(float64(out.MeanTransition))
		}
	}
	r.FaultFreeSegments = t.NumSegments()
	r.FalsePositives = falsePos
	fpRate := float64(falsePos) / float64(t.NumSegments())

	// Faulty pass: Trials segments, cycling through the distinct segments
	// with a fresh random fault each trial (§4.2: sensor, fault type, and
	// insertion time chosen randomly). Each trial is independent — a fresh
	// detector over a read-only context and a purely functional simulated
	// home — so trials fan out, and the fold below runs serially in trial
	// order for bit-identical aggregation.
	trials := make([]trialRun, proto.Trials)
	err = forEachIndex(workers, proto.Trials, func(trial int) error {
		fs, err := t.PlanFaults(trial)
		if err != nil {
			return err
		}
		inj, err := t.InjectorFor(trial, fs)
		if err != nil {
			return err
		}
		out, err := t.RunSegment(trial%t.NumSegments(), inj)
		if err != nil {
			return err
		}
		trials[trial] = trialRun{fs: fs, out: out}
		return nil
	})
	if err != nil {
		return nil, err
	}

	var detLatency, identLatency MeanAccumulator
	latencyByCheck := map[string]*MeanAccumulator{
		core.FamilyCorrelation: {}, core.FamilyTransition: {},
		core.FamilyTiming: {}, core.FamilyGhost: {}, core.FamilyLiveness: {},
	}
	minutesPerWindow := float64(proto.WindowsPerAggregate)
	var identTotal time.Duration
	identWindows := 0
	for trial := 0; trial < proto.Trials; trial++ {
		fs, out := trials[trial].fs, trials[trial].out
		r.FaultySegments++
		identTotal += out.IdentifyTotal
		identWindows += out.IdentifyWindows
		onset := fs[0].Onset
		for _, f := range fs[1:] {
			if f.Onset < onset {
				onset = f.Onset
			}
		}
		typeName := fs[0].Type.String()
		if out.Detected {
			r.DetectedSegments++
			r.Detection.AddTP(1)
			lat := float64(out.DetectedWindow-onset) * minutesPerWindow
			if lat < 0 {
				lat = 0
			}
			detLatency.Add(lat)
			family := out.Cause.Family()
			latencyByCheck[family].Add(lat)
			cnt := r.DetectByType[typeName]
			if family == core.FamilyCorrelation {
				cnt[0]++
			} else {
				cnt[1]++
			}
			r.DetectByType[typeName] = cnt
		} else {
			r.Detection.AddFN(1)
		}
		// Identification scoring: micro-averaged set overlap between the
		// first alert and the injected devices.
		actual := make(map[int]bool, len(fs))
		for _, f := range fs {
			actual[int(f.Device)] = true
		}
		if out.Identified != nil {
			hits := 0
			for _, id := range out.Identified {
				if actual[int(id)] {
					hits++
				}
			}
			r.Identification.AddTP(float64(hits))
			r.Identification.AddFP(float64(len(out.Identified) - hits))
			r.Identification.AddFN(float64(len(fs) - hits))
			identLatency.Add(float64(out.IdentifiedWindow-onset) * minutesPerWindow)
		} else {
			r.Identification.AddFN(float64(len(fs)))
		}
	}
	// Detection false positives: the fault-free FP rate scaled to the same
	// number of trials, so precision is comparable to the paper's
	// 100-vs-100 protocol even when the recording has fewer distinct
	// segments.
	r.Detection.AddFP(fpRate * float64(proto.Trials))

	r.MeanDetectMinutes = detLatency.Mean()
	r.MeanIdentifyMinutes = identLatency.Mean()
	for k, acc := range latencyByCheck {
		if acc.N() > 0 {
			r.DetectMinutesByCheck[k] = acc.Mean()
		}
	}
	r.CorrelationCheckTime = time.Duration(corrT.Mean())
	r.TransitionCheckTime = time.Duration(transT.Mean())
	if identWindows > 0 {
		r.IdentifyTime = identTotal / time.Duration(identWindows)
	}
	r.EvalTime = time.Since(evalStart)
	return r, nil
}

// EvaluateAll runs the protocol for every dataset spec given, fanning each
// dataset's segments and trials across workers goroutines (<= 0 means
// GOMAXPROCS). Datasets run in order — training is inherently serial — and
// progress, when non-nil, is called with each dataset's name before its run.
func EvaluateAll(specs []simhome.Spec, seed int64, proto Protocol, workers int, progress func(name string)) ([]*DatasetResult, error) {
	out := make([]*DatasetResult, 0, len(specs))
	for _, s := range specs {
		if progress != nil {
			progress(s.Name)
		}
		r, err := EvaluateDatasetWorkers(s, seed, proto, workers)
		if err != nil {
			return nil, err
		}
		out = append(out, r)
	}
	return out, nil
}

// ActuatorProtocol adapts a protocol for the §5.1.3 actuator-fault
// experiment.
func ActuatorProtocol(p Protocol) Protocol {
	p.FaultClasses = faults.ActuatorTypes()
	return p
}

// MultiFaultProtocol adapts a protocol for the §VI multi-fault experiment:
// up to n simultaneous faults with numThre = n.
func MultiFaultProtocol(p Protocol, n int) Protocol {
	p.FaultsPerSegment = n
	p.Config.MaxFaults = n
	return p
}

// AblationResult captures one parameter-sweep cell (§VI "impact of
// different parameters").
type AblationResult struct {
	Label               string
	PrecomputeHours     int
	SegmentHours        int
	DurationMinutes     int
	Detection           Metrics
	Identification      Metrics
	MeanDetectMinutes   float64
	MeanIdentifyMinutes float64
	NumGroups           int
}

// RunAblation evaluates one parameter variation on a dataset.
func RunAblation(spec simhome.Spec, seed int64, proto Protocol, label string) (*AblationResult, error) {
	r, err := EvaluateDataset(spec, seed, proto)
	if err != nil {
		return nil, err
	}
	return &AblationResult{
		Label:               label,
		PrecomputeHours:     proto.normalize().PrecomputeHours,
		SegmentHours:        proto.normalize().SegmentHours,
		DurationMinutes:     proto.normalize().WindowsPerAggregate,
		Detection:           r.Detection,
		Identification:      r.Identification,
		MeanDetectMinutes:   r.MeanDetectMinutes,
		MeanIdentifyMinutes: r.MeanIdentifyMinutes,
		NumGroups:           r.NumGroups,
	}, nil
}
