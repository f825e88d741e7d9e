package core

import (
	"slices"

	"repro/internal/bitvec"
	"repro/internal/device"
	"repro/internal/window"
)

// CheckInput is the per-window evidence the detector presents to each
// check: the raw observation, its binarized state set, and the catalogue
// scan result. The previous-window state (group, actuators, dwell, firing
// history) is read through the Detector the check receives.
type CheckInput struct {
	// Obs is the window under examination.
	Obs *window.Observation
	// Vec is the binarized state set (detector-owned scratch; checks must
	// not retain it past Run).
	Vec *bitvec.Vec
	// Cands is the catalogue scan result for Vec.
	Cands Candidates
}

// Finding is one check's verdict on a window: the cause it raises, the
// devices it suspects, and — for the timing check — the interval evidence
// behind the flag. A nil Finding means the check passed.
type Finding struct {
	// Cause is the violation the check raises.
	Cause Cause
	// Suspects is the window's probable-fault set, ascending by ID.
	Suspects []device.ID
	// Timing carries the gap/band evidence when Cause is CheckTiming.
	Timing *TimingEvidence
}

// Check is one named unit of the detection pipeline. The detector runs its
// checks in order on every non-episode window (and as the probe during
// identification episodes) and acts on the first non-nil Finding, so
// order encodes precedence: structure before pace, correlation before
// transitions. Run must not allocate on the no-finding path — the
// clean-window hot path stays allocation-free only if every check does.
//
// Checks are stateless values shared across windows; per-window state
// lives in the Detector they are handed.
type Check interface {
	// Name identifies the check in explain payloads and logs.
	Name() string
	// Cause is the violation kind the check raises.
	Cause() Cause
	// Run examines one window and returns a Finding, or nil to pass.
	Run(d *Detector, in CheckInput) *Finding
}

// DefaultChecks returns the standard pipeline in precedence order: the
// ghost-device check (an unknown device ID is unambiguous and cheap to
// test), then correlation, then the three structural transition cases of
// §3.3.2, then the interval-band timing check (which only structurally
// clean windows reach). The slice is freshly allocated; callers may
// reorder or extend it and pass the result to WithChecks.
func DefaultChecks() []Check {
	return []Check{
		GhostCheck{},
		CorrelationCheck{},
		G2GCheck{},
		G2ACheck{},
		A2GCheck{},
		TimingCheck{},
	}
}

// runChecks runs the pipeline and returns the first finding, or nil when
// every check passes.
func (d *Detector) runChecks(in CheckInput) *Finding {
	for _, c := range d.checks {
		if f := c.Run(d, in); f != nil {
			return f
		}
	}
	return nil
}

// GhostCheck flags actuator events attributed to a device ID the trained
// layout does not know: a spoofed or ghost device injecting traffic into
// the home (the Aegis-style device-spoofing attack). The structural checks
// silently skip unknown IDs — their ActuatorSlot lookup misses — so
// without this check a ghost device is invisible to the pipeline. The
// suspects are the ghost IDs themselves.
type GhostCheck struct{}

// Name implements Check.
func (GhostCheck) Name() string { return "ghost" }

// Cause implements Check.
func (GhostCheck) Cause() Cause { return CheckGhost }

// Run implements Check. The pass path is a slot lookup per actuated ID and
// never allocates.
func (GhostCheck) Run(d *Detector, in CheckInput) *Finding {
	layout := d.ctx.Layout()
	var ghosts []device.ID
	for _, act := range in.Obs.Actuated {
		if _, ok := layout.ActuatorSlot(act); !ok {
			ghosts = append(ghosts, act)
		}
	}
	if ghosts == nil {
		return nil
	}
	slices.Sort(ghosts)
	return &Finding{Cause: CheckGhost, Suspects: ghosts}
}

// CorrelationCheck flags windows whose state set matches no known group —
// the paper's correlation violation. Suspects are the sensors owning the
// bits that differ from the nearest probable groups.
type CorrelationCheck struct{}

// Name implements Check.
func (CorrelationCheck) Name() string { return "correlation" }

// Cause implements Check.
func (CorrelationCheck) Cause() Cause { return CheckCorrelation }

// Run implements Check.
func (CorrelationCheck) Run(d *Detector, in CheckInput) *Finding {
	if in.Cands.Main != NoGroup {
		return nil
	}
	return &Finding{
		Cause:    CheckCorrelation,
		Suspects: d.correlationSuspects(in.Vec, in.Cands),
	}
}

// G2GCheck flags case 1 of §3.3.2: a group-to-group transition that was
// never observed during precomputation.
type G2GCheck struct{}

// Name implements Check.
func (G2GCheck) Name() string { return "g2g" }

// Cause implements Check.
func (G2GCheck) Cause() Cause { return CheckG2G }

// Run implements Check.
func (G2GCheck) Run(d *Detector, in CheckInput) *Finding {
	cur := in.Cands.Main
	if cur == NoGroup || d.prevGroup == NoGroup {
		return nil
	}
	if d.ctx.G2G().Possible(d.prevGroup, cur) {
		return nil
	}
	// Identification mirrors the correlation case, with the previous
	// group's successors as the probable groups.
	return &Finding{
		Cause:    CheckG2G,
		Suspects: d.diffSuspects(in.Vec, d.ctx.G2G().Successors(d.prevGroup)),
	}
}

// G2ACheck flags case 2 of §3.3.2: actuators firing now that the previous
// group never triggered.
type G2ACheck struct{}

// Name implements Check.
func (G2ACheck) Name() string { return "g2a" }

// Cause implements Check.
func (G2ACheck) Cause() Cause { return CheckG2A }

// Run implements Check.
func (G2ACheck) Run(d *Detector, in CheckInput) *Finding {
	if in.Cands.Main == NoGroup || d.prevGroup == NoGroup {
		return nil
	}
	var bad []device.ID
	for _, act := range in.Obs.Actuated {
		slot, ok := d.ctx.Layout().ActuatorSlot(act)
		if !ok {
			continue
		}
		if !d.ctx.G2A().Possible(d.prevGroup, slot) {
			bad = append(bad, act)
		}
	}
	if len(bad) == 0 {
		return nil
	}
	return &Finding{Cause: CheckG2A, Suspects: bad}
}

// A2GCheck flags case 3 of §3.3.2: the current group never follows an
// actuator that fired in the previous window. Suspects are that actuator
// plus the sensors separating the window from the groups the actuator does
// lead to.
type A2GCheck struct{}

// Name implements Check.
func (A2GCheck) Name() string { return "a2g" }

// Cause implements Check.
func (A2GCheck) Cause() Cause { return CheckA2G }

// Run implements Check.
func (A2GCheck) Run(d *Detector, in CheckInput) *Finding {
	cur := in.Cands.Main
	if cur == NoGroup {
		return nil
	}
	for _, act := range d.prevActs {
		slot, ok := d.ctx.Layout().ActuatorSlot(act)
		if !ok {
			continue
		}
		if !d.ctx.A2G().Known(slot) || d.ctx.A2G().Possible(slot, cur) {
			continue
		}
		suspects := d.diffSuspects(in.Vec, d.ctx.A2G().Successors(slot))
		suspects = append(suspects, act)
		slices.Sort(suspects)
		return &Finding{Cause: CheckA2G, Suspects: suspects}
	}
	return nil
}
