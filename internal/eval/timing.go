package eval

import (
	"fmt"
	"slices"
	"time"

	"repro/internal/core"
	"repro/internal/device"
	"repro/internal/faults"
	"repro/internal/simhome"
)

// The timing-check benchmark: a context is trained on a home's routine
// (recording interval sketches), and the same injected timing faults —
// delayed actuators and slowly degrading sensors, which are structurally
// invisible because every transition they produce is a trained one — are
// replayed through a structural-only arm (WithChecks without the timing
// stage) and a timing-aware arm. The timing arm must catch what the
// structural arm misses while flagging nothing on a clean replay.
const (
	// timingTrainHours is the precomputation prefix: the interval sketches
	// need >= core.DefaultTimingMinSamples repeats of each edge before
	// their bands arm, and the thinnest daily-routine edges collect well
	// under one sample per day.
	timingTrainHours = 960
	// timingCleanHours is the fault-free replay both arms must stay silent
	// on.
	timingCleanHours = 24
	// timingTrials is the number of injected-fault trials per arm,
	// alternating delayed-actuator and slow-degradation faults.
	timingTrials = 12
	// timingDelayWindows is how many hold windows each fault inserts before
	// its triggers: at the paper's one-minute windows, over two hours'
	// hesitation, landing the stretched dwell in log2 bucket 7, clear of
	// the bucket<=5 dwell bands the D_houseA routine trains plus the
	// detector's slack bucket.
	timingDelayWindows = 135
	// timingSeed drives the simulation.
	timingSeed = 31
)

// TimingArmResult is one arm's outcome.
type TimingArmResult struct {
	// CleanFalseAlarms / CleanViolationWindows score the fault-free replay:
	// concluded alerts and windows raising any violation.
	CleanFalseAlarms      int
	CleanViolationWindows int
	// Caught / Missed score the injected-fault trials (detection at or
	// after the fault's onset).
	Caught int
	Missed int
}

// TimingBenchResult is the outcome of one timing benchmark run.
type TimingBenchResult struct {
	TrainHours   int
	CleanHours   int
	Trials       int
	DelayWindows int
	Seed         int64
	Groups       int

	Structural TimingArmResult
	Timing     TimingArmResult

	// CleanTimingFlags is the number of clean-replay windows the timing arm
	// flagged with cause=timing. The bench requires zero: the check must add
	// detection without adding false alarms.
	CleanTimingFlags int
	// ExtraFalseAlarms is the timing arm's clean-replay alert count beyond
	// the structural arm's.
	ExtraFalseAlarms int

	// StructuralMissed is how many trials the structural arm missed
	// entirely; TimingCaughtOfMissed is how many of those the timing arm
	// caught, and CatchPct the resulting percentage — the headline number.
	StructuralMissed     int
	TimingCaughtOfMissed int
	CatchPct             float64
	// TimingCauseDetections counts trial detections whose violation was
	// cause=timing (as opposed to a structural side effect of the stretch).
	TimingCauseDetections int
}

// RunTimingBench trains a timing-capable context, verifies the clean
// replay stays silent under the timing check, then scores both arms on
// stream-stretch fault trials. What the timing check must achieve is a set
// of floors on the result's Record.
func RunTimingBench() (*TimingBenchResult, error) {
	spec := simhome.SpecDHouseA()
	spec.Name = "timing-bench"
	const trialSegW = 6 * 60 // 6h fault segments
	trialDayW := 24 * 60
	spec.Hours = timingTrainHours + timingCleanHours + trialDayW/60
	home, err := simhome.New(spec, timingSeed)
	if err != nil {
		return nil, err
	}

	trainW := timingTrainHours * 60
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
	ctx, err := tr.Context()
	if err != nil {
		return nil, err
	}
	if !ctx.TimingCapable() {
		return nil, fmt.Errorf("eval: trained context is not timing capable")
	}

	res := &TimingBenchResult{
		TrainHours:   timingTrainHours,
		CleanHours:   timingCleanHours,
		Trials:       timingTrials,
		DelayWindows: timingDelayWindows,
		Seed:         timingSeed,
		Groups:       ctx.NumGroups(),
	}

	newArm := func(timing bool) (*core.Detector, error) {
		if timing {
			return core.New(ctx)
		}
		structural := slices.DeleteFunc(core.DefaultChecks(), func(c core.Check) bool {
			return c.Cause() == core.CheckTiming
		})
		return core.New(ctx, core.WithChecks(structural...))
	}

	// Clean replay: both arms over the same fault-free day(s).
	cleanW := timingCleanHours * 60
	for _, arm := range []struct {
		res    *TimingArmResult
		timing bool
	}{{&res.Structural, false}, {&res.Timing, true}} {
		det, err := newArm(arm.timing)
		if err != nil {
			return nil, err
		}
		for i := trainW; i < trainW+cleanW; i++ {
			r, err := det.Process(home.Window(i))
			if err != nil {
				return nil, err
			}
			if r.Violation != core.CheckNone {
				arm.res.CleanViolationWindows++
				if r.Violation == core.CheckTiming {
					res.CleanTimingFlags++
				}
			}
			if r.Alert != nil {
				arm.res.CleanFalseAlarms++
			}
		}
	}
	res.ExtraFalseAlarms = res.Timing.CleanFalseAlarms - res.Structural.CleanFalseAlarms

	// Fault trials: stream-stretch faults on segments of the final day,
	// alternating delayed-actuator and slow-degradation targets. Sites are
	// precomputed as (segment, device) pairs whose device triggers after the
	// latest possible onset — overnight segments have nothing to delay.
	faultBase := trainW + cleanW
	numSegs := trialDayW / trialSegW
	const onsetMin, onsetSpread = 30, 30 // onsets in [30, 60)
	type trialSite struct {
		segBase int
		target  device.ID
	}
	// A delayed trigger only produces a flaggable window if it survives the
	// stretch's end-of-segment truncation, so a site's device must trigger
	// after the latest onset but early enough that trigger+Delay still fits.
	var actSites, binSites []trialSite
	for s := 0; s < numSegs; s++ {
		b := faultBase + s*trialSegW
		lo, hi := b+onsetMin+onsetSpread, b+trialSegW-timingDelayWindows
		if hi <= lo {
			continue
		}
		for _, id := range activeIDs(home.ActuatorFirings(lo, hi), 1) {
			actSites = append(actSites, trialSite{b, id})
		}
		for _, id := range activeIDs(home.BinaryFlips(lo, hi), 1) {
			binSites = append(binSites, trialSite{b, id})
		}
	}
	if len(actSites) == 0 || len(binSites) == 0 {
		return nil, fmt.Errorf("eval: no timing-fault sites in the trial day (%d actuator, %d sensor)",
			len(actSites), len(binSites))
	}

	for trial := 0; trial < timingTrials; trial++ {
		onset := onsetMin + (trial*13)%onsetSpread
		var site trialSite
		var f faults.TimingFault
		if trial%2 == 0 {
			site = actSites[(trial/2)%len(actSites)]
			f = faults.TimingFault{Device: site.target, Type: faults.ActuatorDelayed, Onset: onset, Delay: timingDelayWindows}
		} else {
			site = binSites[(trial/2)%len(binSites)]
			f = faults.TimingFault{Device: site.target, Type: faults.SlowDegradation, Onset: onset, Delay: timingDelayWindows}
		}
		seg := home.WindowRange(site.segBase, site.segBase+trialSegW)
		faulty, err := faults.StretchStream(home.Layout(), seg, f)
		if err != nil {
			return nil, err
		}

		structCaught := false
		timingCaught := false
		timingCause := false
		for _, arm := range []struct {
			res    *TimingArmResult
			timing bool
			caught *bool
		}{{&res.Structural, false, &structCaught}, {&res.Timing, true, &timingCaught}} {
			det, err := newArm(arm.timing)
			if err != nil {
				return nil, err
			}
			for w, obs := range faulty {
				r, err := det.Process(obs)
				if err != nil {
					return nil, err
				}
				if r.Detected && w >= onset {
					*arm.caught = true
					if r.Violation == core.CheckTiming {
						timingCause = true
					}
				}
			}
			if *arm.caught {
				arm.res.Caught++
			} else {
				arm.res.Missed++
			}
		}
		if !structCaught {
			res.StructuralMissed++
			if timingCaught {
				res.TimingCaughtOfMissed++
			}
		}
		if timingCause {
			res.TimingCauseDetections++
		}
	}
	if res.StructuralMissed > 0 {
		res.CatchPct = 100 * float64(res.TimingCaughtOfMissed) / float64(res.StructuralMissed)
	}
	return res, nil
}

// Record is the timing record. Its floors: no timing-flagged clean window,
// no extra clean false alarm, a structural arm that misses something (or
// the benchmark is vacuous), and a timing arm that catches at least 80% of
// what it misses, at most 15% below the baseline's catch rate.
func (res *TimingBenchResult) Record() *Record {
	r := &Record{Experiment: "timing"}
	r.fixed("train_hours", float64(res.TrainHours), "h")
	r.fixed("clean_hours", float64(res.CleanHours), "h")
	r.fixed("trials", float64(res.Trials), "count")
	r.fixed("delay_windows", float64(res.DelayWindows), "count")
	r.fixed("seed", float64(res.Seed), "")
	r.count("groups", res.Groups, Higher)
	for _, arm := range []struct {
		name string
		res  TimingArmResult
	}{{"structural", res.Structural}, {"timing", res.Timing}} {
		r.count(arm.name+".clean_false_alarms", arm.res.CleanFalseAlarms, Lower)
		r.count(arm.name+".clean_violation_windows", arm.res.CleanViolationWindows, Lower)
		r.count(arm.name+".caught", arm.res.Caught, Higher)
		r.count(arm.name+".missed", arm.res.Missed, Lower)
	}
	r.gate(Metric{Name: "clean_timing_flags", Value: float64(res.CleanTimingFlags), Unit: "count", Better: Lower, Max: limit(0)})
	r.gate(Metric{Name: "extra_false_alarms", Value: float64(res.ExtraFalseAlarms), Unit: "count", Better: Lower, Max: limit(0)})
	r.gate(Metric{Name: "structural_missed", Value: float64(res.StructuralMissed), Unit: "count", Better: Higher, Min: limit(1)})
	r.count("timing_caught_of_missed", res.TimingCaughtOfMissed, Higher)
	r.gate(Metric{Name: "catch_pct", Value: res.CatchPct, Unit: "pct", Better: Higher, Bound: 0.15, Min: limit(80)})
	r.count("timing_cause_detections", res.TimingCauseDetections, Higher)
	return r
}

// activeIDs returns the IDs with at least min occurrences, ascending.
func activeIDs(counts map[device.ID]int, min int) []device.ID {
	var out []device.ID
	for id, n := range counts {
		if n >= min {
			out = append(out, id)
		}
	}
	for i := 1; i < len(out); i++ {
		for j := i; j > 0 && out[j] < out[j-1]; j-- {
			out[j], out[j-1] = out[j-1], out[j]
		}
	}
	return out
}
