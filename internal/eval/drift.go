package eval

import (
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/device"
	"repro/internal/faults"
	"repro/internal/simhome"
)

// The drift benchmark: a context is trained on a home's original routine,
// the residents then adopt new activities (seeded behaviour drift — every
// post-onset window is legitimate), and the same drifted stream is
// replayed through a static detector and an adapter-backed one. The static
// arm turns the new routines into false alarms forever; the adaptive arm
// must absorb them — and still catch real faults injected after it has
// adapted.
const (
	// driftTrainHours is the precomputation prefix.
	driftTrainHours = 72
	// driftDays is how many days of drifted behaviour each arm replays.
	driftDays = 8
	// driftExtraActivities is how many new ADLs the residents adopt.
	driftExtraActivities = 5
	// driftTrials is the number of injected-fault trials per arm after the
	// adaptation phase.
	driftTrials = 12
	// driftAdmitAfter is the adapter's sustained-observation threshold: the
	// bench compresses weeks of routine change into a few simulated days,
	// so the production threshold is scaled down with it.
	driftAdmitAfter = 5
	// driftSeed drives the simulation and fault placement.
	driftSeed = 29
)

// DriftArmResult is one arm's outcome over the drifted stream.
type DriftArmResult struct {
	// FalseAlarms is the number of concluded alerts on the fault-free
	// drifted stream — every one of them blames healthy devices.
	FalseAlarms int
	// ViolationWindows is the number of windows that raised any violation.
	ViolationWindows int
	// MissedFaults is how many injected-fault trials the arm failed to
	// detect after the fault's onset.
	MissedFaults int
	// ReplayMS is the wall-clock cost of the arm's drift replay.
	ReplayMS float64
}

// DriftBenchResult is the outcome of one drift benchmark run.
type DriftBenchResult struct {
	TrainHours      int
	DriftDays       int
	ExtraActivities int
	DriftWindows    int
	Trials          int
	AdmitAfter      int
	Seed            int64

	Static   DriftArmResult
	Adaptive DriftArmResult

	// FalseAlarmReductionPct is how much of the static arm's false-alarm
	// load adaptation removed (100 = all of it).
	FalseAlarmReductionPct float64

	// Adaptation trajectory over the drift replay.
	FinalEpoch     uint64
	GroupsAdmitted int64
	EdgesAdmitted  int64
	DecayedEdges   int64
	BaseGroups     int
	AdaptedGroups  int
}

// RunDriftBench trains a context on the original routine, replays the
// drifted stream through both arms, then injects sensor faults into the
// post-adaptation stream and scores detection per arm. The properties the
// adapter exists to provide are floors on the result's Record.
func RunDriftBench() (*DriftBenchResult, error) {
	spec := simhome.SpecDHouseA()
	spec.Name = "drift-bench"
	const trialSegW = 3 * 60 // 3h fault segments
	trialW := 24 * 60        // one day of post-adaptation stream for trials
	spec.Hours = driftTrainHours + driftDays*24 + trialW/60
	home, err := simhome.New(spec, driftSeed)
	if err != nil {
		return nil, err
	}
	trainW := driftTrainHours * 60
	drifted, err := home.WithDrift(simhome.Drift{ExtraActivities: driftExtraActivities, FromMinute: trainW})
	if err != nil {
		return nil, err
	}

	// Precompute on the shared prefix (bit-identical across base/drifted).
	tr := core.NewTrainer(home.Layout(), time.Minute)
	for i := 0; i < trainW; i++ {
		if err := tr.Calibrate(home.Window(i)); err != nil {
			return nil, err
		}
	}
	if err := tr.FinishCalibration(); err != nil {
		return nil, err
	}
	for i := 0; i < trainW; i++ {
		if err := tr.Learn(home.Window(i)); err != nil {
			return nil, err
		}
	}
	cctx, err := tr.Context()
	if err != nil {
		return nil, err
	}

	driftW := driftDays * 24 * 60
	res := &DriftBenchResult{
		TrainHours:      driftTrainHours,
		DriftDays:       driftDays,
		ExtraActivities: driftExtraActivities,
		DriftWindows:    driftW,
		Trials:          driftTrials,
		AdmitAfter:      driftAdmitAfter,
		Seed:            driftSeed,
		BaseGroups:      cctx.NumGroups(),
	}

	// Static arm: the frozen context grinds through the drifted stream.
	staticDet, err := core.New(cctx)
	if err != nil {
		return nil, err
	}
	start := time.Now()
	for i := trainW; i < trainW+driftW; i++ {
		r, err := staticDet.Process(drifted.Window(i))
		if err != nil {
			return nil, err
		}
		if r.Violation != core.CheckNone {
			res.Static.ViolationWindows++
		}
		if r.Alert != nil {
			res.Static.FalseAlarms++
		}
	}
	res.Static.ReplayMS = float64(time.Since(start).Microseconds()) / 1000

	// Adaptive arm: same stream, same base context, adapter in the loop.
	adaptDet, err := core.New(cctx)
	if err != nil {
		return nil, err
	}
	adapter, err := core.NewAdapter(cctx, core.WithAdmitAfter(driftAdmitAfter))
	if err != nil {
		return nil, err
	}
	start = time.Now()
	for i := trainW; i < trainW+driftW; i++ {
		w := drifted.Window(i)
		r, err := adaptDet.Process(w)
		if err != nil {
			return nil, err
		}
		if r.Violation != core.CheckNone {
			res.Adaptive.ViolationWindows++
		}
		if r.Alert != nil {
			res.Adaptive.FalseAlarms++
		}
		pub, err := adapter.Observe(w, r)
		if err != nil {
			return nil, err
		}
		if pub != nil {
			if err := adaptDet.SwapContext(pub); err != nil {
				return nil, err
			}
		}
	}
	res.Adaptive.ReplayMS = float64(time.Since(start).Microseconds()) / 1000
	adapted := adapter.Context()
	res.FinalEpoch = adapted.Epoch()
	res.GroupsAdmitted = adapter.GroupsAdmitted()
	res.EdgesAdmitted = adapter.EdgesAdmitted()
	res.DecayedEdges = adapter.DecayedEdges()
	res.AdaptedGroups = adapted.NumGroups()
	if res.Static.FalseAlarms > 0 {
		res.FalseAlarmReductionPct = 100 * (1 - float64(res.Adaptive.FalseAlarms)/float64(res.Static.FalseAlarms))
	}

	// Fault trials on the post-adaptation day: each trial injects one
	// sensor fault into a 3h segment of the still-drifted stream and runs a
	// fresh detector per arm. The adaptive arm scans the adapted context —
	// admitting the new routines must not have taught it to excuse faults.
	bin, err := core.NewBinarizer(home.Layout(), cctx.ValueThre())
	if err != nil {
		return nil, err
	}
	classes := faults.SensorTypes()
	faultBase := trainW + driftW
	numSegs := trialW / trialSegW
	for trial := 0; trial < driftTrials; trial++ {
		segBase := faultBase + (trial%numSegs)*trialSegW
		onset := 45 + (trial*13)%45
		pool, err := exercisedSensors(drifted, bin, segBase+onset, segBase+onset+45)
		if err != nil {
			return nil, err
		}
		if len(pool) == 0 {
			return nil, fmt.Errorf("eval: drift trial %d has no exercised sensors", trial)
		}
		f := faults.Fault{
			Device: pool[trial%len(pool)],
			Type:   classes[trial%len(classes)],
			Onset:  onset,
		}
		for arm, ctx := range map[*DriftArmResult]*core.Context{&res.Static: cctx, &res.Adaptive: adapted} {
			inj, err := faults.NewInjector(home.Layout(), driftSeed*31+int64(trial), f)
			if err != nil {
				return nil, err
			}
			det, err := core.New(ctx)
			if err != nil {
				return nil, err
			}
			detected := false
			for w := 0; w < trialSegW; w++ {
				r, err := det.Process(inj.Apply(drifted.Window(segBase+w), w))
				if err != nil {
					return nil, err
				}
				if r.Detected && w >= onset {
					detected = true
				}
			}
			if !detected {
				arm.MissedFaults++
			}
		}
	}
	return res, nil
}

// Record is the drift record. Its floors: the adaptive arm misses no
// injected fault and raises fewer false alarms than the static arm; the
// five adaptation counts are fixed by the replay; the false-alarm
// reduction may fall at most 15% below the baseline's.
func (res *DriftBenchResult) Record() *Record {
	r := &Record{Experiment: "drift"}
	r.fixed("train_hours", float64(res.TrainHours), "h")
	r.fixed("drift_days", float64(res.DriftDays), "d")
	r.fixed("extra_activities", float64(res.ExtraActivities), "count")
	r.fixed("drift_windows", float64(res.DriftWindows), "count")
	r.fixed("trials", float64(res.Trials), "count")
	r.fixed("admit_after", float64(res.AdmitAfter), "count")
	r.fixed("seed", float64(res.Seed), "")
	for _, arm := range []struct {
		name string
		res  DriftArmResult
	}{{"static", res.Static}, {"adaptive", res.Adaptive}} {
		r.count(arm.name+".false_alarms", arm.res.FalseAlarms, Lower)
		r.count(arm.name+".violation_windows", arm.res.ViolationWindows, Lower)
		missed := Metric{Name: arm.name + ".missed_faults", Value: float64(arm.res.MissedFaults), Unit: "count", Better: Lower}
		if arm.name == "adaptive" {
			missed.Max = limit(0)
		}
		r.gate(missed)
		r.ms(arm.name+".replay_ms", arm.res.ReplayMS)
	}
	r.gate(Metric{Name: "false_alarms_avoided", Value: float64(res.Static.FalseAlarms - res.Adaptive.FalseAlarms),
		Unit: "count", Better: Higher, Min: limit(1)})
	r.gate(Metric{Name: "false_alarm_reduction_pct", Value: res.FalseAlarmReductionPct, Unit: "pct", Better: Higher, Bound: 0.15})
	r.fixed("final_epoch", float64(res.FinalEpoch), "count")
	r.fixed("groups_admitted", float64(res.GroupsAdmitted), "count")
	r.fixed("edges_admitted", float64(res.EdgesAdmitted), "count")
	r.fixed("decayed_edges", float64(res.DecayedEdges), "count")
	r.count("base_groups", res.BaseGroups, Higher)
	r.fixed("adapted_groups", float64(res.AdaptedGroups), "count")
	return r
}

// exercisedSensors lists the sensors with at least one active state-set bit
// in windows [from, to) — faulting a silent device would leave the segment
// byte-identical and the ground truth undefined.
func exercisedSensors(h *simhome.Home, bin *core.Binarizer, from, to int) ([]device.ID, error) {
	active := make(map[device.ID]bool)
	var order []device.ID
	for w := from; w < to; w++ {
		v, err := bin.StateSet(h.Window(w))
		if err != nil {
			return nil, err
		}
		for _, bit := range v.Ones() {
			id, err := bin.DeviceForBit(bit)
			if err != nil {
				return nil, err
			}
			if !active[id] {
				active[id] = true
				order = append(order, id)
			}
		}
	}
	for i := 1; i < len(order); i++ {
		for j := i; j > 0 && order[j] < order[j-1]; j-- {
			order[j], order[j-1] = order[j-1], order[j]
		}
	}
	return order, nil
}
