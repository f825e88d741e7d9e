package eval

import (
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/device"
	"repro/internal/faults"
	"repro/internal/simhome"
	"repro/internal/telemetry"
	"repro/internal/window"
)

// Protocol fixes the experimental parameters of §V.
type Protocol struct {
	// PrecomputeHours is the training prefix (paper: 300).
	PrecomputeHours int
	// SegmentHours is the evaluation segment length (paper: 6).
	SegmentHours int
	// Trials is the number of faulty segments evaluated per dataset
	// (paper: 100, mirrored by an equal number of fault-free segments).
	Trials int
	// MinOnset/MaxOnset bound the fault onset within a segment, in
	// windows; fault devices, classes, and onsets are drawn randomly
	// (§4.2).
	MinOnset int
	MaxOnset int
	// FaultClasses are the classes drawn from (defaults to the four
	// non-fail-stop classes plus fail-stop).
	FaultClasses []faults.Type
	// FaultsPerSegment is the number of simultaneous faults (paper: 1 in
	// the main experiment, 1-3 in the multi-fault discussion).
	FaultsPerSegment int
	// Detector configuration.
	Config core.Config
	// WindowsPerAggregate merges k consecutive one-minute simulator
	// windows into one detector window (k=1 reproduces the paper's 1-min
	// duration; the duration ablation uses k>1).
	WindowsPerAggregate int
	// Seed drives fault placement.
	Seed int64
	// Telemetry, when non-nil, instruments every segment's detector
	// against one shared registry. Instruments are get-or-create, so the
	// parallel worker pool aggregates into the same series without
	// coordination; counters are commutative, so the aggregate is
	// deterministic for a fixed protocol (timing histograms excepted).
	Telemetry *telemetry.Registry
}

// DefaultProtocol returns the paper's settings.
func DefaultProtocol() Protocol {
	return Protocol{
		PrecomputeHours:     300,
		SegmentHours:        6,
		Trials:              100,
		MinOnset:            60,
		MaxOnset:            180,
		FaultClasses:        faults.SensorTypes(),
		FaultsPerSegment:    1,
		WindowsPerAggregate: 1,
		Seed:                1,
	}
}

func (p Protocol) normalize() Protocol {
	d := DefaultProtocol()
	if p.PrecomputeHours <= 0 {
		p.PrecomputeHours = d.PrecomputeHours
	}
	if p.SegmentHours <= 0 {
		p.SegmentHours = d.SegmentHours
	}
	if p.Trials <= 0 {
		p.Trials = d.Trials
	}
	if p.MaxOnset <= p.MinOnset {
		p.MinOnset, p.MaxOnset = d.MinOnset, d.MaxOnset
	}
	if len(p.FaultClasses) == 0 {
		p.FaultClasses = d.FaultClasses
	}
	if p.FaultsPerSegment <= 0 {
		p.FaultsPerSegment = 1
	}
	if p.WindowsPerAggregate <= 0 {
		p.WindowsPerAggregate = 1
	}
	return p
}

// segmentWindows returns windows per segment after aggregation.
func (p Protocol) segmentWindows() int {
	return p.SegmentHours * 60 / p.WindowsPerAggregate
}

// Trained bundles a home with its trained context, so several experiments
// can share one precomputation.
type Trained struct {
	Home     *simhome.Home
	Context  *core.Context
	Protocol Protocol
	// TrainWindows is the number of aggregated windows trained on.
	TrainWindows int
	// TrainTime is the wall-clock cost of the precomputation phase.
	TrainTime time.Duration
	// firstSegment is the first aggregated window index of real-time data.
	firstSegment int
	// numSegments is how many whole segments the real-time suffix holds.
	numSegments int
	// bin is a lazily built binarizer for fault-pool selection; binOnce
	// guards the build so concurrent PlanFaults calls from the evaluation
	// worker pool stay race-free.
	bin     *core.Binarizer
	binOnce sync.Once
	binErr  error
}

// ensureBinarizer builds the shared fault-pool binarizer exactly once.
// After it returns nil the Trained is read-only and safe to share across
// the evaluation worker pool.
func (t *Trained) ensureBinarizer() error {
	t.binOnce.Do(func() {
		t.bin, t.binErr = core.NewBinarizer(t.Home.Layout(), t.Context.ValueThre())
	})
	return t.binErr
}

// aggregate merges k one-minute observations into one k-minute observation
// (bitwise OR of binary firings, concatenated numeric samples, unioned
// actuations), mirroring how a longer duration would have been recorded.
func aggregate(layout *window.Layout, obs []*window.Observation, index int) *window.Observation {
	if len(obs) == 1 {
		o := obs[0]
		o.Index = index
		return o
	}
	out := layout.NewObservation(index)
	seen := make(map[device.ID]bool)
	for _, o := range obs {
		for i, b := range o.Binary {
			if b {
				out.Binary[i] = true
			}
		}
		for j, s := range o.Numeric {
			out.Numeric[j] = append(out.Numeric[j], s...)
		}
		for _, a := range o.Actuated {
			if !seen[a] {
				seen[a] = true
				out.Actuated = append(out.Actuated, a)
			}
		}
	}
	return out
}

// aggWindow produces the detector window with aggregated index i.
func (t *Trained) aggWindow(i int) *window.Observation {
	return t.aggWindowFrom(t.Home, i)
}

// aggWindowFrom is aggWindow reading from an alternative home view (used
// to inject actuator faults with physical consequences).
func (t *Trained) aggWindowFrom(h *simhome.Home, i int) *window.Observation {
	k := t.Protocol.WindowsPerAggregate
	if k == 1 {
		return h.Window(i)
	}
	raw := make([]*window.Observation, 0, k)
	for j := 0; j < k; j++ {
		raw = append(raw, h.Window(i*k+j))
	}
	return aggregate(h.Layout(), raw, i)
}

// Train runs the precomputation phase for a dataset spec under the
// protocol.
func Train(spec simhome.Spec, seed int64, proto Protocol) (*Trained, error) {
	proto = proto.normalize()
	h, err := simhome.New(spec, seed)
	if err != nil {
		return nil, err
	}
	k := proto.WindowsPerAggregate
	totalAgg := h.Windows() / k
	trainAgg := proto.PrecomputeHours * 60 / k
	if trainAgg >= totalAgg {
		return nil, fmt.Errorf("eval: %s has %d windows, cannot train on %d",
			spec.Name, totalAgg, trainAgg)
	}
	t := &Trained{Home: h, Protocol: proto}
	start := time.Now()
	tr := core.NewTrainer(h.Layout(), time.Duration(k)*time.Minute)
	for i := 0; i < trainAgg; i++ {
		if err := tr.Calibrate(t.aggWindow(i)); err != nil {
			return nil, err
		}
	}
	if err := tr.FinishCalibration(); err != nil {
		return nil, err
	}
	for i := 0; i < trainAgg; i++ {
		if err := tr.Learn(t.aggWindow(i)); err != nil {
			return nil, err
		}
	}
	ctx, err := tr.Context()
	if err != nil {
		return nil, err
	}
	t.Context = ctx
	t.TrainTime = time.Since(start)
	t.TrainWindows = trainAgg
	t.firstSegment = trainAgg
	t.numSegments = (totalAgg - trainAgg) / proto.segmentWindows()
	if t.numSegments == 0 {
		return nil, fmt.Errorf("eval: %s leaves no full segments after training", spec.Name)
	}
	return t, nil
}

// NumSegments returns the number of distinct fault-free segments available.
func (t *Trained) NumSegments() int { return t.numSegments }

// SegmentOutcome is the result of running one segment through DICE.
type SegmentOutcome struct {
	// Faults lists the injected faults (nil for a fault-free segment).
	Faults []faults.Fault
	// Detected is true when any violation was raised.
	Detected bool
	// DetectedWindow is the segment-relative window of first detection
	// (-1 when undetected).
	DetectedWindow int
	// Cause is the check that first detected.
	Cause core.CheckKind
	// Identified lists the devices of the first alert (nil when
	// identification never concluded).
	Identified []device.ID
	// IdentifiedWindow is the segment-relative window of the first alert
	// (-1 when none).
	IdentifiedWindow int
	// Timing aggregates mean per-window stage costs.
	MeanBinarize    time.Duration
	MeanCorrelation time.Duration
	MeanTransition  time.Duration
	// IdentifyTotal is the identification cost summed over the
	// IdentifyWindows windows that ran inside an identification episode.
	// It is a sum with its window count, not a per-window mean, so trials
	// pool by window: identification runs on a handful of a faulty
	// segment's windows and on none of a clean one's.
	IdentifyTotal   time.Duration
	IdentifyWindows int
}

// RunSegment evaluates segment seg (0-based), optionally corrupted by an
// injector. The detector is fresh (reset) at segment start, mirroring the
// paper's independent six-hour segments. For a faulty segment, detections
// and alerts raised before the earliest fault onset are residual false
// positives, not fault detections, and are excluded from the outcome.
func (t *Trained) RunSegment(seg int, inj *faults.Injector) (SegmentOutcome, error) {
	out := SegmentOutcome{DetectedWindow: -1, IdentifiedWindow: -1}
	if seg < 0 || seg >= t.numSegments {
		return out, fmt.Errorf("eval: segment %d out of range [0, %d)", seg, t.numSegments)
	}
	ignoreBefore := 0
	if inj != nil {
		first := -1
		for _, f := range inj.Faults() {
			if first < 0 || f.Onset < first {
				first = f.Onset
			}
		}
		if first > 0 {
			ignoreBefore = first
		}
	}
	det, err := core.New(t.Context,
		core.WithConfig(t.Protocol.Config),
		core.WithTelemetry(t.Protocol.Telemetry))
	if err != nil {
		return out, err
	}
	if inj != nil {
		out.Faults = inj.Faults()
	}
	segLen := t.Protocol.segmentWindows()
	base := t.firstSegment + seg*segLen

	// Actuator faults change what the actuators physically do, so they are
	// injected at the simulation level; sensor faults corrupt observations
	// and stay with the observation-level injector.
	src := t.Home
	applyObs := inj != nil
	if inj != nil {
		af := simhome.ActuatorFaults{
			Dead:     make(map[device.ID]bool),
			Spurious: make(map[device.ID]bool),
			Seed:     t.Protocol.Seed*131 + int64(seg),
		}
		hasActFaults := false
		for _, f := range inj.Faults() {
			if !f.Type.IsActuatorFault() {
				continue
			}
			hasActFaults = true
			af.FromMinute = (base + f.Onset) * t.Protocol.WindowsPerAggregate
			if f.Type == faults.ActuatorDead {
				af.Dead[f.Device] = true
			} else {
				af.Spurious[f.Device] = true
			}
		}
		if hasActFaults {
			src = t.Home.WithActuatorFaults(af)
			applyObs = false // plans never mix sensor and actuator faults
		}
	}

	var bSum, cSum, tSum time.Duration
	for w := 0; w < segLen; w++ {
		o := t.aggWindowFrom(src, base+w)
		if applyObs {
			o = inj.Apply(o, w)
		}
		res, err := det.Process(o)
		if err != nil {
			return out, err
		}
		bSum += res.Timing.Binarize
		cSum += res.Timing.Correlation
		tSum += res.Timing.Transition
		if res.Identifying {
			out.IdentifyTotal += res.Timing.Identify
			out.IdentifyWindows++
		}
		if res.Detected && !out.Detected && w >= ignoreBefore {
			out.Detected = true
			out.DetectedWindow = w
			out.Cause = res.Violation
		}
		if res.Alert != nil && out.Identified == nil && w >= ignoreBefore {
			out.Identified = res.Alert.Devices
			out.IdentifiedWindow = w
		}
	}
	n := time.Duration(segLen)
	out.MeanBinarize = bSum / n
	out.MeanCorrelation = cSum / n
	out.MeanTransition = tSum / n
	return out, nil
}

// PlanFaults draws the fault assignment for trial i under the protocol:
// the onset is drawn first, then the target devices are drawn from the
// pool of devices exercised shortly after the onset. Faulting a device
// that never reports during the segment would produce a byte-identical
// segment (undefined ground truth), and the paper's minutes-scale
// detection times imply its faulted sensors were in active use when the
// fault struck.
func (t *Trained) PlanFaults(trial int) ([]faults.Fault, error) {
	p := t.Protocol
	rng := rand.New(rand.NewSource(int64(uint64(p.Seed)*0x9E3779B9 + uint64(trial))))
	// Onset bounds are specified in minutes; convert to aggregated windows
	// and clamp into the segment.
	k := p.WindowsPerAggregate
	minOnset := p.MinOnset / k
	maxOnset := p.MaxOnset / k
	segW := t.Protocol.segmentWindows()
	if maxOnset > segW/2 {
		maxOnset = segW / 2
	}
	if minOnset >= maxOnset {
		minOnset = maxOnset / 2
	}
	if maxOnset <= minOnset {
		maxOnset = minOnset + 1
	}
	onset := minOnset + rng.Intn(maxOnset-minOnset)
	actuatorFaults := p.FaultClasses[0].IsActuatorFault()
	// The pool: devices active within 45 minutes after onset, widening to
	// the rest of the segment (and then to every device) when a quiet
	// stretch leaves the near-onset pool too small.
	pool, err := t.exercisedDevices(trial%t.numSegments, onset, onset+45, actuatorFaults)
	if err != nil {
		return nil, err
	}
	if len(pool) < p.FaultsPerSegment {
		pool, err = t.exercisedDevices(trial%t.numSegments, onset, t.Protocol.segmentWindows(), actuatorFaults)
		if err != nil {
			return nil, err
		}
	}
	if len(pool) < p.FaultsPerSegment {
		return faults.Plan(t.Home.Layout(), rng, p.FaultsPerSegment, p.FaultClasses, onset, onset+1)
	}
	fs, err := faults.PlanPool(rng, pool, p.FaultsPerSegment, p.FaultClasses, onset, onset+1)
	if err != nil {
		return nil, err
	}
	return fs, nil
}

// exercisedDevices lists the devices that produce an observable signal in
// segment seg within windows [from, to): binary sensors that fire, numeric
// sensors with at least one active state-set bit, and actuators that
// activate.
func (t *Trained) exercisedDevices(seg, from, to int, actuators bool) ([]device.ID, error) {
	if err := t.ensureBinarizer(); err != nil {
		return nil, err
	}
	segLen := t.Protocol.segmentWindows()
	base := t.firstSegment + seg*segLen
	if to > segLen {
		to = segLen
	}
	active := make(map[device.ID]bool)
	for w := from; w < to; w++ {
		o := t.aggWindow(base + w)
		if actuators {
			for _, id := range o.Actuated {
				active[id] = true
			}
			continue
		}
		v, err := t.bin.StateSet(o)
		if err != nil {
			return nil, err
		}
		for _, bit := range v.Ones() {
			id, err := t.bin.DeviceForBit(bit)
			if err != nil {
				return nil, err
			}
			active[id] = true
		}
	}
	out := make([]device.ID, 0, len(active))
	for id := range active {
		out = append(out, id)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out, nil
}

// InjectorFor builds the injector for trial i.
func (t *Trained) InjectorFor(trial int, fs []faults.Fault) (*faults.Injector, error) {
	return faults.NewInjector(t.Home.Layout(), int64(uint64(t.Protocol.Seed)*31+uint64(trial)), fs...)
}
