package core

import (
	"fmt"
	"slices"
	"time"

	"repro/internal/bitvec"
	"repro/internal/device"
	"repro/internal/window"
)

// CheckKind names which check flagged a window.
type CheckKind int

// Violation causes. CheckG2G/CheckG2A/CheckA2G are the three transition
// cases of §3.3.2.
const (
	CheckNone CheckKind = iota
	CheckCorrelation
	CheckG2G
	CheckG2A
	CheckA2G
	// CheckLiveness is raised by the gateway, not the detector: a device
	// exceeded its silence threshold — the paper's outage (fail-stop)
	// fault class surfacing at the transport layer before any window-level
	// evidence accumulates.
	CheckLiveness
	// CheckTiming flags a structurally valid transition whose inter-window
	// gap falls outside the interval band learned during training: the
	// right transition at the wrong pace (a delayed actuator, a slowly
	// degrading sensor). It sits after CheckLiveness so the earlier causes
	// keep their values.
	CheckTiming
	// CheckGhost flags actuator events from a device ID the layout does
	// not know — a spoofed or ghost device injecting traffic into the
	// home. It sits last so the earlier causes keep their values.
	CheckGhost
)

// String returns the check name.
func (k CheckKind) String() string {
	switch k {
	case CheckNone:
		return "none"
	case CheckCorrelation:
		return "correlation"
	case CheckG2G:
		return "g2g"
	case CheckG2A:
		return "g2a"
	case CheckA2G:
		return "a2g"
	case CheckLiveness:
		return "liveness"
	case CheckTiming:
		return "timing"
	case CheckGhost:
		return "ghost"
	default:
		return fmt.Sprintf("CheckKind(%d)", int(k))
	}
}

// IsTransition reports whether the check is one of the transition cases.
func (k CheckKind) IsTransition() bool {
	return k == CheckG2G || k == CheckG2A || k == CheckA2G
}

// Timing carries per-stage wall-clock costs for one window (Figure 5.3).
// Process times one window in timingEvery; on the others Timing is zero.
type Timing struct {
	Binarize    time.Duration
	Correlation time.Duration
	Transition  time.Duration
	Identify    time.Duration
	// Sampled marks a window whose stages were timed.
	Sampled bool
}

// Total returns the summed stage cost.
func (t Timing) Total() time.Duration {
	return t.Binarize + t.Correlation + t.Transition + t.Identify
}

// Alert is the final output of an identification episode: the devices DICE
// believes are faulty.
type Alert struct {
	// Devices are the probable faulty devices, ascending by ID.
	Devices []device.ID
	// Cause is the check that detected the episode.
	Cause CheckKind
	// DetectedWindow is the window index at which the violation was first
	// detected; ReportedWindow is when identification concluded. Their
	// difference (times the duration) is the identification latency on top
	// of detection.
	DetectedWindow int
	ReportedWindow int
	// EarlyWeight is true when a device weight (§VI) forced an early
	// report.
	EarlyWeight bool
	// Explain is the decision trace behind the alert: the opening window,
	// matched/probable groups, violated transition, and intersection
	// history. Every alert carries one.
	Explain *Explain `json:"explain,omitempty"`
}

// Result describes what the detector concluded about one window.
type Result struct {
	// WindowIndex echoes the observation index.
	WindowIndex int
	// MainGroup is the exactly matching group, or NoGroup.
	MainGroup int
	// Violation is the check that flagged this window (CheckNone if clean).
	// During an identification episode only the episode-opening window
	// carries the original cause; probe windows report their own findings.
	Violation CheckKind
	// Detected is true exactly on a window that opens an episode (the
	// first violation, or — with MaxFaults > 1 — a violation disjoint from
	// every open episode that splits off a new one).
	Detected bool
	// Identifying is true while an episode is in progress (including the
	// opening and reporting windows).
	Identifying bool
	// Probable is the union of the open episodes' probable faulty devices,
	// ascending; nil outside episodes.
	Probable []device.ID
	// Alert is non-nil on a window that concludes an episode; when several
	// episodes conclude on the same window it is the first of Alerts.
	Alert *Alert
	// Alerts carries every episode concluded on this window, in episode
	// opening order. With MaxFaults == 1 it holds at most one entry
	// (identical to Alert).
	Alerts []*Alert
	// Timing carries the per-stage costs for this window.
	Timing Timing
}

// episode tracks one in-progress identification.
type episode struct {
	cause          CheckKind
	detectedWindow int
	// intersection and openingActs are device sets (set.go): ascending,
	// duplicate-free, and never aliased by anything the detector hands out.
	intersection []device.ID
	stalls       int
	normalStreak int
	length       int
	// corroboration counts the informative windows that fed this episode,
	// including the opening one. Multi-fault mode requires a minimum
	// corroboration before alerting, so one-off transition glitches
	// (a benign occupancy change clipping a window) die quietly.
	corroboration int
	// missingEffect is true when the opening diff showed only bits that
	// were expected to be set but were not — the signature of a missing
	// actuator effect; surplusEffect is the inverse signature (only
	// unexpected extra bits), raised by a spuriously acting actuator.
	missingEffect bool
	surplusEffect bool
	// openingActs are the actuators that fired in the opening window.
	openingActs []device.ID
	// openingPrev is the previous-window group at the opening window.
	openingPrev int
	// trace accumulates the Explain record reported with the alert.
	trace *Explain
}

// Detector runs the real-time phase against a trained context. It is not
// safe for concurrent use; the gateway serializes windows into it.
type Detector struct {
	cfg Config
	ctx *Context
	bin *Binarizer

	prevGroup int
	prevActs  []device.ID
	// eps holds the open identification episodes in opening order. With
	// MaxFaults == 1 (the paper's numThre default) at most one episode is
	// ever open and the behavior matches the single-fault pipeline bit for
	// bit; with MaxFaults > 1 up to MaxFaults episodes run concurrently,
	// each tracking one suspected fault.
	eps []*episode

	// checks is the ordered detection pipeline; DefaultChecks unless the
	// detector was built WithChecks.
	checks []Check

	// dwell counts the consecutive windows spent in prevGroup, and lastFire
	// maps each actuator slot to the window index of its most recent firing
	// (-1 = never). They mirror the trainer's bookkeeping exactly, so the
	// gaps the timing check measures are the gaps training recorded.
	dwell    int
	lastFire []int

	// stateVec and scanScratch are per-window scratch: the detector is
	// serial by contract, so one reusable state-set vector and one scan
	// scratch keep the clean-window hot path allocation-free.
	stateVec    *bitvec.Vec
	scanScratch ScanScratch

	// lastDiffMissingOnly / lastDiffSurplusOnly report the direction of the
	// most recent diffSuspects call: only expected-but-absent bits, or only
	// present-but-unexpected bits.
	lastDiffMissingOnly bool
	lastDiffSurplusOnly bool

	// ids is diffSuspects' scratch for collecting owning sensors, and sus
	// holds the window's suspect set while it feeds multi-fault episodes.
	ids []device.ID
	sus []device.ID

	// met holds the telemetry instruments (all nil when uninstrumented;
	// every update below is nil-safe and allocation-free).
	met detMetrics
}

// minCorroboration is how many informative windows a multi-fault episode
// needs before it may alert; episodes that run out of patience below it are
// dismissed without alerting. Single-fault mode (MaxFaults == 1) does not
// apply it, preserving the paper's original conclusion rule.
const minCorroboration = 2

// newDetector is the single construction path behind New.
func newDetector(ctx *Context, o detOptions) (*Detector, error) {
	if ctx == nil {
		return nil, fmt.Errorf("core: nil context")
	}
	if ctx.NumGroups() == 0 {
		return nil, fmt.Errorf("core: context has no groups")
	}
	bin, err := NewBinarizer(ctx.Layout(), ctx.ValueThre())
	if err != nil {
		return nil, err
	}
	checks := o.checks
	if checks == nil {
		checks = DefaultChecks()
	}
	lastFire := make([]int, ctx.Layout().NumActuators())
	for i := range lastFire {
		lastFire[i] = -1
	}
	return &Detector{
		cfg:       o.cfg.Normalize(),
		ctx:       ctx,
		bin:       bin,
		prevGroup: NoGroup,
		checks:    checks,
		lastFire:  lastFire,
		stateVec:  bitvec.New(bin.NumBits()),
		met:       newDetMetrics(o.tel),
	}, nil
}

// Context returns the context snapshot the detector currently runs against.
func (d *Detector) Context() *Context { return d.ctx }

// SwapContext atomically replaces the context snapshot the detector scans
// against. The caller must serialize it with Process (the gateway holds its
// lock across both), and the new version must share the old one's layout,
// thresholds, and group-ID prefix — the guarantees Derive provides — so the
// detector's runtime state (previous group, episode references) stays valid
// across the swap. Between swaps the detector reads one immutable snapshot,
// which is what keeps the hot path allocation-free and bit-reproducible.
func (d *Detector) SwapContext(ctx *Context) error {
	if ctx == nil {
		return fmt.Errorf("core: swap to nil context")
	}
	if ctx == d.ctx {
		return nil
	}
	if ctx.Layout() != d.ctx.Layout() {
		return fmt.Errorf("core: swap to context with different layout")
	}
	if ctx.NumGroups() < d.ctx.NumGroups() {
		return fmt.Errorf("core: swap to context with %d groups, have %d (the catalogue is append-only)",
			ctx.NumGroups(), d.ctx.NumGroups())
	}
	for id := 0; id < d.ctx.NumGroups(); id++ {
		old, _ := d.ctx.Group(id)
		neu, err := ctx.Group(id)
		if err != nil || old.HammingDistance(neu) != 0 {
			return fmt.Errorf("core: swap renames group %d (IDs must be stable)", id)
		}
	}
	d.ctx = ctx
	return nil
}

// Reset clears all runtime state (previous group, actuators, any in-flight
// episodes). Use it between independent segments.
func (d *Detector) Reset() {
	d.prevGroup = NoGroup
	d.prevActs = d.prevActs[:0]
	d.eps = nil
	d.dwell = 0
	for i := range d.lastFire {
		d.lastFire[i] = -1
	}
}

// PrevGroup returns the group matched by the previous window, or NoGroup at
// the start of a segment. Exposed for custom checks.
func (d *Detector) PrevGroup() int { return d.prevGroup }

// DwellWindows returns how many consecutive windows the home has spent in
// the previous group. Exposed for custom checks.
func (d *Detector) DwellWindows() int { return d.dwell }

// LastFireWindow returns the window index of the given actuator slot's most
// recent firing, or -1 when it has not fired this segment. Exposed for
// custom checks.
func (d *Detector) LastFireWindow(slot int) int {
	if slot < 0 || slot >= len(d.lastFire) {
		return -1
	}
	return d.lastFire[slot]
}

// Identifying reports whether any identification episode is in progress.
func (d *Detector) Identifying() bool { return len(d.eps) > 0 }

// OpenEpisodes returns the number of identification episodes currently in
// flight (0 or 1 unless MaxFaults > 1).
func (d *Detector) OpenEpisodes() int { return len(d.eps) }

// clockAnchor is the origin of monoNow. A time.Time taken by time.Now
// carries a monotonic reading, so time.Since of it reads only the monotonic
// clock: one cheap clock read per stage boundary.
var clockAnchor = time.Now()

// monoNow returns the monotonic time elapsed since clockAnchor.
func monoNow() time.Duration { return time.Since(clockAnchor) }

// timingEvery is the stage-timing sample period: Process reads the clocks
// only on windows whose index is a multiple of it. Four clock reads cost
// about as much as the rest of a clean window, and only Figure 5.3 and the
// dice_scan_seconds histogram read them, both as distributions.
const timingEvery = 64

// stageClock reads the monotonic clock on sampled windows and returns 0 on
// the others, so unsampled windows compute zero stage costs.
func stageClock(sampled bool) time.Duration {
	if !sampled {
		return 0
	}
	return monoNow()
}

// Process runs one window through DICE and returns what was concluded.
// Windows must be fed in time order. On a sampled window (index a multiple
// of timingEvery) the stage costs in Result.Timing come from four monotonic
// clock reads: at the start, after binarization, after the catalogue scan,
// and after the checks or the identification step.
func (d *Detector) Process(o *window.Observation) (Result, error) {
	res := Result{WindowIndex: o.Index, MainGroup: NoGroup}
	sampled := o.Index%timingEvery == 0
	res.Timing.Sampled = sampled

	t0 := stageClock(sampled)
	v := d.stateVec
	if err := d.bin.StateSetInto(v, o); err != nil {
		return Result{}, err
	}
	t1 := stageClock(sampled)
	cands := d.ctx.ScanWith(&d.scanScratch, v, d.cfg.candidateDistance())
	t2 := stageClock(sampled)
	res.Timing.Binarize = t1 - t0
	res.Timing.Correlation = t2 - t1
	res.MainGroup = cands.Main

	if len(d.eps) > 0 {
		// §3.4: during the repetition, skip the checks and go straight to
		// identification.
		d.identifyStep(v, cands, o, &res)
		res.Timing.Identify = stageClock(sampled) - t2
		d.observeScan(cands, res.Timing)
		d.advance(cands.Main, o)
		return res, nil
	}

	// The ordered check pipeline: one clock measurement around the whole
	// run, charged to the stage the window's shape implies (no main group
	// means the cost went into correlation-style identification; otherwise
	// it went into transition checking).
	finding := d.runChecks(CheckInput{Obs: o, Vec: v, Cands: cands})
	cost := stageClock(sampled) - t2
	if cands.Main == NoGroup {
		res.Timing.Identify = cost
	} else {
		res.Timing.Transition = cost
	}
	d.observeScan(cands, res.Timing)

	if finding != nil {
		d.met.violation(finding.Cause)
		res.Violation = finding.Cause
		res.Detected = true
		res.Identifying = true
		ep := d.openEpisode(finding, cands, o)
		d.eps = append(d.eps[:0], ep)
		res.Probable = copyIDs(ep.intersection)
		ep.trace.addStep(ExplainStep{
			Window:       o.Index,
			Violation:    finding.Cause,
			Suspects:     finding.Suspects,
			Intersection: res.Probable,
		})
		d.concludeEpisodes(&res)
	}

	d.advance(cands.Main, o)
	return res, nil
}

// observeScan records one window's scan in the telemetry instruments; the
// scan latency only on sampled windows. It runs after the last stage clock
// read, so no stage is charged for it.
func (d *Detector) observeScan(cands Candidates, tm Timing) {
	d.met.windows.Inc()
	if tm.Sampled {
		d.met.scanSeconds.ObserveDuration(tm.Correlation)
	}
	if cands.Main != NoGroup {
		d.met.scanExact.Inc()
	} else {
		d.met.scanBucket.Inc()
		if cands.MinDistance != NoDistance {
			d.met.scanDistance.Observe(float64(cands.MinDistance))
		}
	}
}

// openEpisode builds a fresh episode from a finding. The caller appends it
// to d.eps and records the opening Explain step.
func (d *Detector) openEpisode(f *Finding, cands Candidates, o *window.Observation) *episode {
	return &episode{
		cause:          f.Cause,
		detectedWindow: o.Index,
		intersection:   toSet(f.Suspects),
		corroboration:  1,
		missingEffect:  d.lastDiffMissingOnly,
		surplusEffect:  d.lastDiffSurplusOnly,
		openingActs:    toSet(o.Actuated),
		openingPrev:    d.prevGroup,
		trace: &Explain{
			Cause:          f.Cause,
			DetectedWindow: o.Index,
			PrevGroup:      d.prevGroup,
			MainGroup:      cands.Main,
			ProbableGroups: append([]int(nil), cands.Probable...),
			MinDistance:    cands.MinDistance,
			Timing:         f.Timing,
		},
	}
}

// advance rolls the previous-window state forward. The dwell/lastFire
// update matches the trainer's: a repeated known group extends the dwell, a
// hop (or the first known group) restarts it at 1, and an unknown state set
// clears it.
func (d *Detector) advance(mainGroup int, o *window.Observation) {
	switch {
	case mainGroup == NoGroup:
		d.dwell = 0
	case mainGroup == d.prevGroup:
		d.dwell++
	default:
		d.dwell = 1
	}
	d.prevGroup = mainGroup
	d.prevActs = append(d.prevActs[:0], o.Actuated...)
	for _, act := range o.Actuated {
		if slot, ok := d.ctx.Layout().ActuatorSlot(act); ok {
			d.lastFire[slot] = o.Index
		}
	}
	d.met.episodesOpen.Set(int64(len(d.eps)))
}

// correlationSuspects implements identification for a missing main group:
// diff the live state set against every probable group, prune probable
// groups unreachable from the previous group, and union the sensors owning
// the differing bits.
func (d *Detector) correlationSuspects(v *bitvec.Vec, cands Candidates) []device.ID {
	probable := cands.Probable
	if d.prevGroup != NoGroup && len(probable) > 1 {
		var reachable []int
		for _, g := range probable {
			if d.ctx.G2G().Possible(d.prevGroup, g) {
				reachable = append(reachable, g)
			}
		}
		// Keep the unfiltered list when the filter would leave nothing to
		// diff against.
		if len(reachable) > 0 {
			probable = reachable
		}
	}
	return d.diffSuspects(v, probable)
}

// diffSuspects unions the owning sensors of bits where v differs from the
// given groups, considering only the groups at minimal Hamming distance
// from v: the nearest groups are the best explanations of what the state
// set should have been, and diffing against farther candidates only pads
// the suspect set with unrelated devices.
func (d *Detector) diffSuspects(v *bitvec.Vec, groups []int) []device.ID {
	minDist := -1
	var nearest []int
	for _, gid := range groups {
		g, err := d.ctx.Group(gid)
		if err != nil {
			continue
		}
		dist := v.HammingDistance(g)
		switch {
		case minDist < 0 || dist < minDist:
			minDist = dist
			nearest = nearest[:0]
			nearest = append(nearest, gid)
		case dist == minDist:
			nearest = append(nearest, gid)
		}
	}
	d.ids = d.ids[:0]
	missingOnly := len(nearest) > 0
	surplusOnly := len(nearest) > 0
	for _, gid := range nearest {
		g, err := d.ctx.Group(gid)
		if err != nil {
			continue
		}
		for _, bit := range v.Diff(g) {
			if v.Get(bit) {
				// The live set has a bit the expected group lacks: surplus
				// activity.
				missingOnly = false
			} else {
				surplusOnly = false
			}
			if id, err := d.bin.DeviceForBit(bit); err == nil {
				d.ids = append(d.ids, id)
			}
		}
	}
	d.lastDiffMissingOnly = missingOnly
	d.lastDiffSurplusOnly = surplusOnly
	return toSet(d.ids)
}

// identifyStep runs one repetition of the identification loop (§3.4): probe
// the window for its own probable-fault set, feed the open episodes, and
// conclude the ones whose intersection is small enough or whose patience
// ran out.
func (d *Detector) identifyStep(v *bitvec.Vec, cands Candidates, o *window.Observation, res *Result) {
	res.Identifying = true
	for _, ep := range d.eps {
		ep.length++
	}

	f := d.probe(v, cands, o)
	if f != nil {
		res.Violation = f.Cause
		d.met.violation(f.Cause)
	}

	if d.cfg.MaxFaults <= 1 {
		d.feedSingle(f, o, res)
	} else {
		d.feedMulti(f, cands, o, res)
		res.Probable = d.probableUnion()
	}
	d.concludeEpisodes(res)
}

// feedSingle is the single-fault identification step: intersect the one
// open episode with the window's suspect set, exactly as the paper's §3.4
// repetition describes.
func (d *Detector) feedSingle(f *Finding, o *window.Observation, res *Result) {
	ep := d.eps[0]
	if f != nil {
		ep.normalStreak = 0
		ep.corroboration++
		// Narrow in place: a disjoint intersection writes nothing.
		if next := intersect(ep.intersection[:0], ep.intersection, d.suspectSet(f)); len(next) == 0 {
			// Disjoint evidence: hold the current intersection, note the
			// stall.
			ep.stalls++
		} else {
			ep.intersection = next
		}
	} else {
		ep.normalStreak++
	}
	res.Probable = copyIDs(ep.intersection)
	if f != nil {
		ep.trace.addStep(ExplainStep{
			Window:       o.Index,
			Violation:    f.Cause,
			Suspects:     f.Suspects,
			Intersection: res.Probable,
		})
	}
}

// suspectSet returns f's suspects as a set in the detector's scratch,
// valid until the next call. A custom Check may return them unsorted or
// with duplicates.
func (d *Detector) suspectSet(f *Finding) []device.ID {
	d.sus = setOf(append(d.sus[:0], f.Suspects...))
	return d.sus
}

// feedMulti routes one window's evidence across the concurrent episodes:
// every episode whose suspect pool overlaps the window's suspects narrows
// on it; evidence disjoint from all open episodes splits off a new episode
// (up to MaxFaults); and episodes whose pools collapse into one another
// merge. Episodes untouched by an informative window treat it as quiet —
// in a storm the faults take turns corrupting windows, and counting a
// rival fault's evidence as a stall would conclude everything prematurely.
func (d *Detector) feedMulti(f *Finding, cands Candidates, o *window.Observation, res *Result) {
	if f == nil {
		for _, ep := range d.eps {
			ep.normalStreak++
		}
		return
	}
	sus := d.suspectSet(f)
	fed := false
	for _, ep := range d.eps {
		// Narrow in place: a disjoint intersection writes nothing.
		next := intersect(ep.intersection[:0], ep.intersection, sus)
		if len(next) == 0 {
			ep.normalStreak++
			continue
		}
		ep.intersection = next
		ep.normalStreak = 0
		ep.corroboration++
		ep.trace.addStep(ExplainStep{
			Window:       o.Index,
			Violation:    f.Cause,
			Suspects:     f.Suspects,
			Intersection: next,
		})
		fed = true
	}
	if !fed {
		if len(d.eps) < d.cfg.MaxFaults {
			// Split: evidence about a device set no open episode covers
			// opens a concurrent episode for the (suspected) second fault.
			ep := d.openEpisode(f, cands, o)
			d.eps = append(d.eps, ep)
			ep.trace.addStep(ExplainStep{
				Window:       o.Index,
				Violation:    f.Cause,
				Suspects:     f.Suspects,
				Intersection: ep.intersection,
			})
			d.met.concurrentEps.Inc()
			res.Detected = true
		} else {
			// At the episode cap, evidence nobody covers is a stall for
			// everyone: the numThre bound says it cannot be yet another
			// fault.
			for _, ep := range d.eps {
				ep.stalls++
			}
		}
	}
	d.mergeEpisodes(o.Index)
}

// mergeEpisodes folds together episodes whose suspect pools have collapsed
// into one another: when one pool is a subset of another the two episodes
// are explaining the same fault, so the earlier episode absorbs the later
// one, keeping the narrower pool and the combined corroboration.
func (d *Detector) mergeEpisodes(windowIdx int) {
	if len(d.eps) < 2 {
		return
	}
	for i := 0; i < len(d.eps); i++ {
		for j := i + 1; j < len(d.eps); {
			a, b := d.eps[i], d.eps[j]
			if !subsetOf(a.intersection, b.intersection) && !subsetOf(b.intersection, a.intersection) {
				j++
				continue
			}
			if len(b.intersection) < len(a.intersection) {
				a.intersection = b.intersection
			}
			a.corroboration += b.corroboration
			if b.stalls < a.stalls {
				a.stalls = b.stalls
			}
			if b.normalStreak < a.normalStreak {
				a.normalStreak = b.normalStreak
			}
			a.trace.addStep(ExplainStep{
				Window:       windowIdx,
				Violation:    b.cause,
				Suspects:     b.intersection,
				Intersection: a.intersection,
			})
			d.eps = append(d.eps[:j], d.eps[j+1:]...)
		}
	}
}

// probableUnion returns the sorted union of every open episode's suspect
// pool.
func (d *Detector) probableUnion() []device.ID {
	switch len(d.eps) {
	case 0:
		return nil
	case 1:
		return copyIDs(d.eps[0].intersection)
	}
	var u []device.ID
	for _, ep := range d.eps {
		u = union(u, ep.intersection)
	}
	return u
}

// probe evaluates a window during identification: the same check pipeline,
// but it never opens a new episode by itself — it only yields this window's
// finding. A clean window returns nil.
func (d *Detector) probe(v *bitvec.Vec, cands Candidates, o *window.Observation) *Finding {
	return d.runChecks(CheckInput{Obs: o, Vec: v, Cands: cands})
}

// concludeEpisodes closes every episode that is ready — intersection small
// enough, a weighted device demanding attention, or patience limits hit —
// and appends one Alert per concluded episode to the result.
func (d *Detector) concludeEpisodes(res *Result) {
	if len(d.eps) == 0 {
		return
	}
	keep := d.eps[:0]
	for _, ep := range d.eps {
		alert, done := d.concludeOne(ep, res)
		if !done {
			keep = append(keep, ep)
			continue
		}
		if alert != nil {
			res.Alerts = append(res.Alerts, alert)
		}
	}
	d.eps = keep
	if len(d.eps) == 0 {
		d.eps = nil
	}
	if len(res.Alerts) > 0 {
		res.Alert = res.Alerts[0]
	}
}

// concludeOne decides whether one episode is ready to close and, if so,
// builds its alert (nil when the episode is dismissed without alerting).
func (d *Detector) concludeOne(ep *episode, res *Result) (*Alert, bool) {
	multi := d.cfg.MaxFaults > 1
	size := len(ep.intersection)
	early := false
	if d.cfg.WeightAlarm > 0 {
		for _, id := range ep.intersection {
			if d.cfg.Weights[id] >= d.cfg.WeightAlarm {
				early = true
				break
			}
		}
	}
	var done bool
	if multi {
		// Per-fault alerts: narrow to a single device, with enough
		// corroborating windows to rule out a one-off glitch.
		done = size == 1 && ep.corroboration >= minCorroboration
	} else {
		done = size <= d.cfg.MaxFaults && size > 0
	}
	if !done && early {
		done = true
	}
	if !done && (ep.stalls >= DefaultMaxStalls ||
		ep.normalStreak >= d.cfg.IdentifyGiveUp ||
		ep.length >= d.cfg.MaxIdentifyWindows) {
		done = true
	}
	if !done {
		return nil, false
	}
	if multi && !early && ep.corroboration < minCorroboration {
		// A patience-concluded episode that only ever saw its opening
		// window: a transient (a benign occupancy shift, a splice edge),
		// not a fault. Dismiss without alerting.
		d.met.episodes.Inc()
		d.met.episodeLen.Observe(float64(res.WindowIndex - ep.detectedWindow + 1))
		d.met.suspects.Observe(float64(size))
		return nil, true
	}
	// A copy: Attest may modify its argument, and the alert must not alias
	// episode state.
	devices := copyIDs(ep.intersection)
	devices = d.attributeToActuator(ep, devices)
	if d.cfg.Attest != nil {
		devices = d.cfg.Attest(devices)
		slices.Sort(devices)
		if len(devices) == 0 {
			// Every probable device attested healthy: dismiss the episode
			// without an alert.
			d.met.episodes.Inc()
			d.met.episodeLen.Observe(float64(res.WindowIndex - ep.detectedWindow + 1))
			d.met.suspects.Observe(float64(size))
			return nil, true
		}
	}
	ep.trace.ReportedWindow = res.WindowIndex
	alert := &Alert{
		Devices:        devices,
		Cause:          ep.cause,
		DetectedWindow: ep.detectedWindow,
		ReportedWindow: res.WindowIndex,
		EarlyWeight:    early && size > 1,
		Explain:        ep.trace,
	}
	d.met.episodes.Inc()
	d.met.episodeLen.Observe(float64(res.WindowIndex - ep.detectedWindow + 1))
	d.met.suspects.Observe(float64(size))
	d.met.named.Add(int64(len(devices)))
	d.met.alert(ep.cause)
	return alert, true
}

// attributeToActuator re-attributes a "missing effect" anomaly to a silent
// actuator: when every suspect sensor belongs to the trained effect set of
// an actuator that never activated during the episode, the actuator — not
// the sensors dutifully reporting its absence — is the probable faulty
// device. An actuator that did fire during the episode keeps the blame on
// the sensors (its effect reached the home; the sensor misreported it).
func (d *Detector) attributeToActuator(ep *episode, devices []device.ID) []device.ID {
	if len(devices) == 0 {
		return devices
	}
	if ep.cause != CheckCorrelation && ep.cause != CheckG2G {
		return devices
	}
	layout := d.ctx.Layout()
	bestSlot, bestSize := -1, 0
	for slot := 0; slot < layout.NumActuators(); slot++ {
		if d.ctx.ActivationCount(slot) < 5 {
			continue
		}
		id := layout.ActuatorID(slot)
		// Dead: the opening context is one the actuator is known to fire
		// from (G2A expectation), its effect is missing, and it stayed
		// silent — a faulty sensor fails this guard because its actuator
		// fired normally. Spurious: the actuator fired in the very window
		// surplus effect bits appeared without the occupancy bits that
		// accompany a legitimate activation (a legitimate firing lands in
		// a trained group and raises no violation at all).
		_, opened := slices.BinarySearch(ep.openingActs, id)
		dead := ep.missingEffect && !opened &&
			ep.openingPrev != NoGroup && d.ctx.G2A().Possible(ep.openingPrev, slot)
		spurious := ep.surplusEffect && opened
		if !dead && !spurious {
			continue
		}
		effect := d.ctx.EffectDevices(slot, 0.6)
		if !subsetOf(devices, effect) {
			continue
		}
		if bestSlot < 0 || len(effect) < bestSize {
			bestSlot = slot
			bestSize = len(effect)
		}
	}
	if bestSlot < 0 {
		return devices
	}
	return []device.ID{layout.ActuatorID(bestSlot)}
}
