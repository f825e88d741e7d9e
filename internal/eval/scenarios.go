package eval

import (
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/device"
	"repro/internal/faults"
	"repro/internal/simhome"
	"repro/internal/window"
)

// The adversarial scenario library: seeded, deterministic stress cases the
// multi-fault detector is graded on. Each scenario instantiates to a
// faults.Scenario (plus, for the occupancy cases, a simhome view) applied
// to one segment of a trial day. The library covers the attack and
// nuisance classes the robustness issue names: spoofed ghost devices,
// replayed event sequences, malicious actuator triggering, benign
// occupancy changes that must NOT alert, and mixed-fault storms of 2–4
// point+stream faults with staggered onsets.

// Scenario library names.
const (
	ScenarioGhostDevice       = "ghost-device"
	ScenarioReplayAttack      = "replay-attack"
	ScenarioMaliciousActuator = "malicious-actuator"
	ScenarioBenignGuest       = "benign-guest"
	ScenarioBenignVacation    = "benign-vacation"
	ScenarioStorm2            = "storm-2"
	ScenarioStorm3            = "storm-3"
	ScenarioStorm4            = "storm-4"
)

// ScenarioNames lists the library in report order.
func ScenarioNames() []string {
	return []string{
		ScenarioGhostDevice, ScenarioReplayAttack, ScenarioMaliciousActuator,
		ScenarioBenignGuest, ScenarioBenignVacation,
		ScenarioStorm2, ScenarioStorm3, ScenarioStorm4,
	}
}

// ScenarioInstance is one concrete, seeded trial of a library scenario:
// which segment of the recording it plays out on, what gets injected, and
// the ground truth the identifier is graded against.
type ScenarioInstance struct {
	Name        string
	Description string
	Benign      bool
	// DetectOnly marks scenarios graded on detection alone (replays: the
	// faulty party is the network, not a device).
	DetectOnly bool
	// SegBase/SegLen locate the trial segment in absolute recording
	// windows.
	SegBase, SegLen int
	// Onset is the first in-segment window index at which anything is
	// wrong; detection before it does not count.
	Onset int
	// Scenario carries the injections (zero-valued for benign instances).
	Scenario faults.Scenario
	// Occupancy is the benign occupancy change, nil for device scenarios.
	Occupancy *simhome.OccupancyChange
	// GroundTruth is the device set an identifier should name, ascending.
	GroundTruth []device.ID
	// MaxFaults is the concurrent-episode cap the detector needs for this
	// scenario (the paper's numThre).
	MaxFaults int
}

// Windows materializes the trial's segment: the occupancy view generates
// it, then the scenario corrupts it.
func (si *ScenarioInstance) Windows(h *simhome.Home) ([]*window.Observation, error) {
	view := h
	if si.Occupancy != nil {
		view = h.WithOccupancy(*si.Occupancy)
	}
	seg := view.WindowRange(si.SegBase, si.SegBase+si.SegLen)
	if si.Benign {
		return seg, nil
	}
	return si.Scenario.Apply(h.Layout(), seg)
}

// ScenarioLibrary instantiates the library against one simulated home. The
// trial area starts at window faultBase (everything before it belongs to
// training and the clean replay) and spans the given number of whole days;
// trials rotate through the days so repeated trials of one scenario see
// different routine instances.
type ScenarioLibrary struct {
	home      *simhome.Home
	faultBase int
	days      int
}

// NewScenarioLibrary validates the trial area and builds the library.
func NewScenarioLibrary(home *simhome.Home, faultBase, days int) (*ScenarioLibrary, error) {
	if home == nil {
		return nil, fmt.Errorf("eval: nil home")
	}
	if days < 1 {
		return nil, fmt.Errorf("eval: scenario library needs >= 1 trial day")
	}
	if faultBase < 0 || faultBase+days*minutesPerDay > home.Windows() {
		return nil, fmt.Errorf("eval: trial area [%d, %d) exceeds the %d-window recording",
			faultBase, faultBase+days*minutesPerDay, home.Windows())
	}
	return &ScenarioLibrary{home: home, faultBase: faultBase, days: days}, nil
}

const (
	minutesPerDay = 24 * 60
	// scenarioSegW is the fault-segment length (6h, like the timing bench).
	scenarioSegW = 6 * 60
	// scenarioStreamDelay is the hold-window count stream faults insert —
	// two hours' hesitation, clear of the trained dwell buckets.
	scenarioStreamDelay = 135
)

// ghostID returns a device ID the registry has never issued, well clear of
// any future additions.
func (l *ScenarioLibrary) ghostID() device.ID {
	return device.ID(l.home.Registry().Len() + 1000)
}

// daySeg returns the base of the trial-day segment starting at hour h.
func (l *ScenarioLibrary) daySeg(trial, hour int) int {
	return l.faultBase + (trial%l.days)*minutesPerDay + hour*60
}

// activeBinaries returns binary sensors with >= min state flips in
// [lo, hi), ascending — fault targets whose corruption is observable.
func (l *ScenarioLibrary) activeBinaries(lo, hi, min int) []device.ID {
	return activeIDs(l.home.BinaryFlips(lo, hi), min)
}

// Trial instantiates one seeded trial of the named scenario.
func (l *ScenarioLibrary) Trial(name string, trial int, seed int64) (*ScenarioInstance, error) {
	if trial < 0 {
		return nil, fmt.Errorf("eval: negative trial %d", trial)
	}
	reg := l.home.Registry()
	acts := reg.Actuators()
	nums := reg.Numerics()
	if len(acts) == 0 || len(nums) == 0 {
		return nil, fmt.Errorf("eval: scenario library needs actuators and numeric sensors")
	}
	trialSeed := seed + int64(trial)*1009
	si := &ScenarioInstance{Name: name, SegLen: scenarioSegW, MaxFaults: 2}
	switch name {
	case ScenarioGhostDevice:
		si.Description = "spoofed device announces actuations under an ID the home never registered"
		si.SegBase = l.daySeg(trial, 8)
		si.Onset = 30
		si.Scenario = faults.Scenario{
			Name: name, Seed: trialSeed,
			Ghosts: []faults.GhostSpec{{Device: l.ghostID(), Onset: si.Onset, Every: 3}},
		}
	case ScenarioReplayAttack:
		si.Description = "an hour of captured evening traffic replayed into the night"
		si.DetectOnly = true
		si.SegBase = l.daySeg(trial, 18)
		si.Onset = 270
		si.Scenario = faults.Scenario{
			Name: name, Seed: trialSeed,
			Replays: []faults.ReplaySpec{{SrcFrom: 10 + (trial*17)%40, SrcLen: 60, At: si.Onset}},
		}
	case ScenarioMaliciousActuator:
		si.Description = "compromised actuator triggers on its own, outside every learned context"
		si.SegBase = l.daySeg(trial, 8)
		si.Onset = 40
		si.Scenario = faults.Scenario{
			Name: name, Seed: trialSeed,
			Faults: []faults.Fault{{Device: acts[trial%len(acts)], Type: faults.ActuatorSpurious, Onset: si.Onset}},
		}
	case ScenarioBenignGuest:
		si.Description = "a guest adopts the household routine for the day (must not alert)"
		si.Benign = true
		si.SegBase = l.daySeg(trial, 8)
		si.SegLen = 12 * 60
		si.Occupancy = &simhome.OccupancyChange{
			GuestFrom: si.SegBase, GuestTo: si.SegBase + si.SegLen,
		}
	case ScenarioBenignVacation:
		si.Description = "the house empties for a seven-hour day trip (must not alert)"
		si.Benign = true
		si.SegBase = l.daySeg(trial, 8)
		si.SegLen = 12 * 60
		si.Occupancy = &simhome.OccupancyChange{
			VacationFrom: si.SegBase + 2*60, VacationTo: si.SegBase + 9*60,
		}
	case ScenarioStorm2, ScenarioStorm3, ScenarioStorm4:
		si.SegBase = l.daySeg(trial, 8)
		sensorOnset := 30 + (trial*7)%15
		si.Onset = sensorOnset
		bins := l.activeBinaries(si.SegBase+sensorOnset, si.SegBase+si.SegLen, 3)
		if len(bins) == 0 {
			return nil, fmt.Errorf("eval: %s trial %d: no active binary sensors in segment", name, trial)
		}
		sensor := bins[trial%len(bins)]
		sc := faults.Scenario{Name: name, Seed: trialSeed, Faults: []faults.Fault{
			{Device: sensor, Type: faults.FailStop, Onset: sensorOnset},
			{Device: acts[trial%len(acts)], Type: faults.ActuatorSpurious, Onset: 120},
		}}
		si.Description = "fail-stopped sensor + rogue actuator with staggered onsets"
		if name == ScenarioStorm3 || name == ScenarioStorm4 {
			si.MaxFaults = 3
			si.Description = "storm-2 plus a slowly degrading sensor (stream fault)"
			slow := pickOther(bins, sensor, trial)
			if slow == sensor {
				return nil, fmt.Errorf("eval: %s trial %d: no second active binary sensor", name, trial)
			}
			sc.Faults = append(sc.Faults, faults.Fault{
				Device: slow, Type: faults.SlowDegradation, Onset: 60, Delay: scenarioStreamDelay,
			})
		}
		if name == ScenarioStorm4 {
			si.MaxFaults = 4
			si.Description = "storm-3 plus a stuck-at numeric sensor — four concurrent faults"
			sc.Faults = append(sc.Faults, faults.Fault{
				Device: nums[trial%len(nums)], Type: faults.StuckAt, Onset: 90,
			})
		}
		si.Scenario = sc
	default:
		return nil, fmt.Errorf("eval: unknown scenario %q (known: %v)", name, ScenarioNames())
	}
	if !si.Benign {
		si.GroundTruth = si.Scenario.FaultyDevices()
		if n := len(si.GroundTruth); n > si.MaxFaults {
			si.MaxFaults = n
		}
	}
	return si, nil
}

// pickOther returns a trial-rotated member of ids different from skip, or
// skip itself when ids has no other member.
func pickOther(ids []device.ID, skip device.ID, trial int) device.ID {
	if len(ids) < 2 {
		return skip
	}
	for i := 0; i < len(ids); i++ {
		c := ids[(trial+1+i)%len(ids)]
		if c != skip {
			return c
		}
	}
	return skip
}

// The scenario-library benchmark's settings.
const (
	// scenarioTrainHours is the precomputation prefix, enough to arm the
	// interval sketches the storm-3/4 stream faults are caught by.
	scenarioTrainHours = 960
	// scenarioCleanHours is the fault-free replay that must stay silent.
	scenarioCleanHours = 24
	// scenarioTrials is the seeded trial count per scenario.
	scenarioTrials = 5
	// scenarioSeed drives the simulation and every injection.
	scenarioSeed = 17
)

// ScenarioResult scores one scenario across its trials.
type ScenarioResult struct {
	Name       string
	Benign     bool
	DetectOnly bool
	Trials     int
	// Detected counts trials with any violation at or after the onset.
	Detected     int
	DetectionPct float64
	// FalseAlarms counts concluded alerts on benign trials (the floor says
	// zero).
	FalseAlarms int
	// Identification micro-counts across trials: alerts naming ground-truth
	// devices (TP), alerts naming innocents (FP), ground-truth devices no
	// alert named (FN).
	TruePositives  int
	FalsePositives int
	FalseNegatives int
	IdentPrecision float64
	IdentRecall    float64
	// AllNamed counts trials whose alerts covered every injected device —
	// the storm-2 gate quantity.
	AllNamed    int
	AllNamedPct float64
}

// ScenarioBenchResult is the outcome of one scenario-library run.
type ScenarioBenchResult struct {
	TrainHours int
	CleanHours int
	Trials     int
	Seed       int64
	Groups     int
	// CleanFalseAlarms scores the fault-free replay through the multi-fault
	// detector (must be zero for the benign floors to mean anything).
	CleanFalseAlarms int
	// BenignFalseAlarms totals alerts across the benign scenarios' trials
	// (floor: zero).
	BenignFalseAlarms int
	// Storm2AllNamedPct is the gated headline: trials of the two-fault
	// storm whose alerts named every injected device (floor: >= 80).
	Storm2AllNamedPct float64

	Scenarios []ScenarioResult
}

// RunScenarioBench trains a multi-fault detector's context on the
// two-resident testbed home, replays a clean day, then runs every library
// scenario. The accuracy floors are declared on the result's Record.
func RunScenarioBench() (*ScenarioBenchResult, error) {
	spec := simhome.SpecDTwoR()
	spec.Name = "scenario-bench"
	const trialDays = 2
	spec.Hours = scenarioTrainHours + scenarioCleanHours + trialDays*24
	home, err := simhome.New(spec, scenarioSeed)
	if err != nil {
		return nil, err
	}

	trainW := scenarioTrainHours * 60
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

	res := &ScenarioBenchResult{
		TrainHours: scenarioTrainHours,
		CleanHours: scenarioCleanHours,
		Trials:     scenarioTrials,
		Seed:       scenarioSeed,
		Groups:     ctx.NumGroups(),
	}

	// Clean replay through the multi-fault configuration.
	cleanW := scenarioCleanHours * 60
	det, err := core.New(ctx, core.WithConfig(core.Config{MaxFaults: 2}))
	if err != nil {
		return nil, err
	}
	for i := trainW; i < trainW+cleanW; i++ {
		r, err := det.Process(home.Window(i))
		if err != nil {
			return nil, err
		}
		res.CleanFalseAlarms += len(r.Alerts)
	}

	lib, err := NewScenarioLibrary(home, trainW+cleanW, trialDays)
	if err != nil {
		return nil, err
	}
	for _, name := range ScenarioNames() {
		sr, err := runScenario(ctx, home, lib, name)
		if err != nil {
			return res, err
		}
		res.Scenarios = append(res.Scenarios, *sr)
		if sr.Benign {
			res.BenignFalseAlarms += sr.FalseAlarms
		}
		if sr.Name == ScenarioStorm2 {
			res.Storm2AllNamedPct = sr.AllNamedPct
		}
	}
	return res, nil
}

// Record is the scenarios record. Its floors: no alert on the clean replay
// or any benign scenario, at least one scenario run, and the two-fault
// storm naming every injected device in at least 80% of trials, at most
// 15% below the baseline's rate. The per-scenario rows are detail.
func (res *ScenarioBenchResult) Record() *Record {
	r := &Record{Experiment: "scenarios"}
	r.fixed("train_hours", float64(res.TrainHours), "h")
	r.fixed("clean_hours", float64(res.CleanHours), "h")
	r.fixed("trials", float64(res.Trials), "count")
	r.fixed("seed", float64(res.Seed), "")
	r.count("groups", res.Groups, Higher)
	r.gate(Metric{Name: "clean_false_alarms", Value: float64(res.CleanFalseAlarms), Unit: "count", Better: Lower, Max: limit(0)})
	r.gate(Metric{Name: "benign_false_alarms", Value: float64(res.BenignFalseAlarms), Unit: "count", Better: Lower, Max: limit(0)})
	r.gate(Metric{Name: "storm2_all_named_pct", Value: res.Storm2AllNamedPct, Unit: "pct", Better: Higher, Bound: 0.15, Min: limit(80)})
	r.gate(Metric{Name: "scenarios", Value: float64(len(res.Scenarios)), Unit: "count", Better: Higher, Min: limit(1)})
	for _, sc := range res.Scenarios {
		p := sc.Name + "."
		r.fixed(p+"benign", boolValue(sc.Benign), "bool")
		r.fixed(p+"detect_only", boolValue(sc.DetectOnly), "bool")
		r.fixed(p+"trials", float64(sc.Trials), "count")
		r.count(p+"detected", sc.Detected, Higher)
		r.add(p+"detection_pct", sc.DetectionPct, "pct", Higher)
		r.count(p+"false_alarms", sc.FalseAlarms, Lower)
		r.count(p+"true_positives", sc.TruePositives, Higher)
		r.count(p+"false_positives", sc.FalsePositives, Lower)
		r.count(p+"false_negatives", sc.FalseNegatives, Lower)
		r.add(p+"ident_precision", sc.IdentPrecision, "ratio", Higher)
		r.add(p+"ident_recall", sc.IdentRecall, "ratio", Higher)
		r.count(p+"all_named", sc.AllNamed, Higher)
		r.add(p+"all_named_pct", sc.AllNamedPct, "pct", Higher)
	}
	return r
}

// runScenario scores all trials of one scenario.
func runScenario(ctx *core.Context, home *simhome.Home, lib *ScenarioLibrary, name string) (*ScenarioResult, error) {
	sr := &ScenarioResult{Name: name, Trials: scenarioTrials}
	for trial := 0; trial < scenarioTrials; trial++ {
		si, err := lib.Trial(name, trial, scenarioSeed*1000)
		if err != nil {
			return nil, err
		}
		sr.Benign = si.Benign
		sr.DetectOnly = si.DetectOnly
		win, err := si.Windows(home)
		if err != nil {
			return nil, err
		}
		det, err := core.New(ctx, core.WithConfig(core.Config{MaxFaults: si.MaxFaults}))
		if err != nil {
			return nil, err
		}
		detected := false
		named := make(map[device.ID]bool)
		alerts := 0
		for w, obs := range win {
			r, err := det.Process(obs)
			if err != nil {
				return nil, err
			}
			if r.Violation != core.CheckNone && w >= si.Onset {
				detected = true
			}
			for _, al := range r.Alerts {
				alerts++
				for _, id := range al.Devices {
					named[id] = true
				}
			}
		}
		if si.Benign {
			sr.FalseAlarms += alerts
			continue
		}
		if detected {
			sr.Detected++
		}
		if si.DetectOnly {
			continue
		}
		truth := make(map[device.ID]bool, len(si.GroundTruth))
		for _, id := range si.GroundTruth {
			truth[id] = true
		}
		covered := 0
		for id := range named {
			if truth[id] {
				sr.TruePositives++
				covered++
			} else {
				sr.FalsePositives++
			}
		}
		sr.FalseNegatives += len(si.GroundTruth) - covered
		if covered == len(si.GroundTruth) {
			sr.AllNamed++
		}
	}
	if !sr.Benign {
		sr.DetectionPct = 100 * float64(sr.Detected) / float64(sr.Trials)
		if tp := sr.TruePositives; tp+sr.FalsePositives > 0 {
			sr.IdentPrecision = float64(tp) / float64(tp+sr.FalsePositives)
		}
		if tp := sr.TruePositives; tp+sr.FalseNegatives > 0 {
			sr.IdentRecall = float64(tp) / float64(tp+sr.FalseNegatives)
		}
		if !sr.DetectOnly {
			sr.AllNamedPct = 100 * float64(sr.AllNamed) / float64(sr.Trials)
		}
	}
	return sr, nil
}
