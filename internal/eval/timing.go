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

// TimingBench configures the timing-check benchmark: a context is trained
// on a home's routine (recording interval sketches), and the same injected
// timing faults — delayed actuators and slowly degrading sensors, which are
// structurally invisible because every transition they produce is a trained
// one — are replayed through a structural-only arm (WithChecks without the
// timing stage) and a timing-aware arm. The timing arm must catch what the
// structural arm misses while flagging nothing on a clean replay.
type TimingBench struct {
	// TrainHours is the precomputation prefix (default 960 — the interval
	// sketches need >= core.DefaultTimingMinSamples repeats of each edge
	// before their bands arm, and the thinnest daily-routine edges collect
	// well under one sample per day).
	TrainHours int
	// CleanHours is the fault-free replay both arms must stay silent on
	// (default 24).
	CleanHours int
	// Trials is the number of injected-fault trials per arm, alternating
	// delayed-actuator and slow-degradation faults (default 12).
	Trials int
	// DelayWindows is how many hold windows each fault inserts before its
	// triggers (default 135 — at the paper's one-minute windows over two
	// hours' hesitation, landing the stretched dwell in log2 bucket 7,
	// clear of the bucket<=5 dwell bands the D_houseA routine trains plus
	// the detector's slack bucket).
	DelayWindows int
	// Seed drives the simulation (default 31).
	Seed int64
}

func (o TimingBench) normalize() TimingBench {
	if o.TrainHours <= 0 {
		o.TrainHours = 960
	}
	if o.CleanHours <= 0 {
		o.CleanHours = 24
	}
	if o.Trials <= 0 {
		o.Trials = 12
	}
	if o.DelayWindows <= 0 {
		o.DelayWindows = 135
	}
	if o.Seed == 0 {
		o.Seed = 31
	}
	return o
}

// TimingArmResult is one arm's outcome.
type TimingArmResult struct {
	// CleanFalseAlarms / CleanViolationWindows score the fault-free replay:
	// concluded alerts and windows raising any violation.
	CleanFalseAlarms      int `json:"clean_false_alarms"`
	CleanViolationWindows int `json:"clean_violation_windows"`
	// Caught / Missed score the injected-fault trials (detection at or
	// after the fault's onset).
	Caught int `json:"caught"`
	Missed int `json:"missed"`
}

// TimingBenchResult is the outcome of one timing benchmark run.
type TimingBenchResult struct {
	TrainHours   int   `json:"train_hours"`
	CleanHours   int   `json:"clean_hours"`
	Trials       int   `json:"trials"`
	DelayWindows int   `json:"delay_windows"`
	Seed         int64 `json:"seed"`
	Groups       int   `json:"groups"`

	Structural TimingArmResult `json:"structural"`
	Timing     TimingArmResult `json:"timing"`

	// CleanTimingFlags is the number of clean-replay windows the timing arm
	// flagged with cause=timing. The bench requires zero: the check must add
	// detection without adding false alarms.
	CleanTimingFlags int `json:"clean_timing_flags"`
	// ExtraFalseAlarms is the timing arm's clean-replay alert count beyond
	// the structural arm's.
	ExtraFalseAlarms int `json:"extra_false_alarms"`

	// StructuralMissed is how many trials the structural arm missed
	// entirely; TimingCaughtOfMissed is how many of those the timing arm
	// caught, and CatchPct the resulting percentage — the headline number.
	StructuralMissed     int     `json:"structural_missed"`
	TimingCaughtOfMissed int     `json:"timing_caught_of_missed"`
	CatchPct             float64 `json:"catch_pct"`
	// TimingCauseDetections counts trial detections whose violation was
	// cause=timing (as opposed to a structural side effect of the stretch).
	TimingCauseDetections int `json:"timing_cause_detections"`
}

// RunTimingBench trains a timing-capable context, verifies the clean
// replay stays silent under the timing check, then scores both arms on
// stream-stretch fault trials. It errors when the timing check flags clean
// windows, when the structural arm misses nothing (a vacuous benchmark), or
// when the timing arm catches fewer than 80% of the structurally missed
// trials.
func RunTimingBench(o TimingBench) (*TimingBenchResult, error) {
	o = o.normalize()
	spec := simhome.SpecDHouseA()
	spec.Name = "timing-bench"
	const trialSegW = 6 * 60 // 6h fault segments
	trialDayW := 24 * 60
	spec.Hours = o.TrainHours + o.CleanHours + trialDayW/60
	home, err := simhome.New(spec, o.Seed)
	if err != nil {
		return nil, err
	}

	trainW := o.TrainHours * 60
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
		TrainHours:   o.TrainHours,
		CleanHours:   o.CleanHours,
		Trials:       o.Trials,
		DelayWindows: o.DelayWindows,
		Seed:         o.Seed,
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
	cleanW := o.CleanHours * 60
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
		lo, hi := b+onsetMin+onsetSpread, b+trialSegW-o.DelayWindows
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

	for trial := 0; trial < o.Trials; trial++ {
		onset := onsetMin + (trial*13)%onsetSpread
		var site trialSite
		var f faults.TimingFault
		if trial%2 == 0 {
			site = actSites[(trial/2)%len(actSites)]
			f = faults.TimingFault{Device: site.target, Type: faults.ActuatorDelayed, Onset: onset, Delay: o.DelayWindows}
		} else {
			site = binSites[(trial/2)%len(binSites)]
			f = faults.TimingFault{Device: site.target, Type: faults.SlowDegradation, Onset: onset, Delay: o.DelayWindows}
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

	switch {
	case res.CleanTimingFlags > 0:
		return res, fmt.Errorf("eval: timing check flagged %d clean windows", res.CleanTimingFlags)
	case res.ExtraFalseAlarms > 0:
		return res, fmt.Errorf("eval: timing arm raised %d extra clean false alarms", res.ExtraFalseAlarms)
	case res.StructuralMissed == 0:
		return res, fmt.Errorf("eval: structural arm missed nothing — the benchmark is vacuous")
	case res.CatchPct < 80:
		return res, fmt.Errorf("eval: timing arm caught %.0f%% of structurally missed faults, want >= 80%%", res.CatchPct)
	}
	return res, nil
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
