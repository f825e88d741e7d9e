package core

import (
	"repro/internal/device"
	"repro/internal/markov"
)

const (
	// TimingA2GHorizon bounds how many windows after an actuator firing a
	// group change still counts as that firing's consequence. Trainer and
	// detector share the bound so the gap populations match.
	TimingA2GHorizon = 16

	// DefaultTimingMinSamples is the minimum number of recorded gaps an
	// edge's sketch needs before the timing check trusts its band. Thin
	// edges stay structural-only rather than alarm on noise.
	DefaultTimingMinSamples = 16

	// DefaultTimingSlackBuckets is how many log2 buckets beyond the learned
	// band a gap must land before it is flagged. One bucket of slack means
	// a gap must be at least ~2x the band edge — conservative enough that a
	// clean replay of the training distribution never alarms. The band
	// itself is the full observed range (sketch quantiles 0 and 1), so only
	// gaps beyond anything seen in training flag, and only late ones:
	// early arrivals are far more often benign.
	DefaultTimingSlackBuckets = 1
)

// TimingEvidence is the explain payload behind a CheckTiming violation: the
// edge whose pace broke, the observed gap, the learned band, and the raw
// bucket counts so an operator can see the distribution the gap fell out of.
type TimingEvidence struct {
	// Edge is which transition family the gap belongs to: "g2g", "g2a", or
	// "a2g".
	Edge string `json:"edge"`
	// From and To identify the edge. For g2g both are group IDs; for g2a
	// From is a group and To an actuator slot; for a2g From is an actuator
	// slot and To a group.
	From int `json:"from"`
	To   int `json:"to"`
	// GapWindows is the observed inter-window gap that fell out of band.
	GapWindows int `json:"gap_windows"`
	// BandLoWindows/BandHiWindows bound the learned band, expressed in
	// windows (bucket edges, not quantile interpolation). The gap overshot
	// BandHiWindows.
	BandLoWindows int `json:"band_lo_windows"`
	BandHiWindows int `json:"band_hi_windows"`
	// Samples is how many gaps the edge's sketch had recorded.
	Samples uint64 `json:"samples"`
	// Buckets is the sketch's log2 histogram at flag time.
	Buckets []uint32 `json:"buckets"`
}

// Clone returns a deep copy.
func (e *TimingEvidence) Clone() *TimingEvidence {
	if e == nil {
		return nil
	}
	cp := *e
	cp.Buckets = append([]uint32(nil), e.Buckets...)
	return &cp
}

// TimingCheck flags structurally valid transitions whose inter-window gap
// falls outside the interval band learned during training — the right
// transition at the wrong pace. It self-disables when the context predates
// interval sketches (schema v1); a structural-only detector drops it from
// WithChecks. It evaluates the edge families in blame order: A2G (a firing's
// consequence arrived off-pace — suspect the actuator), then G2A (a firing
// left its group off-pace — suspect the actuator), then G2G (a plain hop
// after an out-of-band dwell — suspect the sensors separating the groups).
type TimingCheck struct{}

// Name implements Check.
func (TimingCheck) Name() string { return "timing" }

// Cause implements Check.
func (TimingCheck) Cause() Cause { return CheckTiming }

// Run implements Check.
func (TimingCheck) Run(d *Detector, in CheckInput) *Finding {
	cur := in.Cands.Main
	if cur == NoGroup || !d.ctx.TimingCapable() {
		return nil
	}
	d.met.timingChecked.Inc()
	layout := d.ctx.Layout()
	// A2G: the hop into cur lands within the horizon of a firing.
	if d.prevGroup != NoGroup && cur != d.prevGroup {
		for slot, at := range d.lastFire {
			if at < 0 {
				continue
			}
			gap := in.Obs.Index - at
			if gap < 1 || gap > TimingA2GHorizon {
				continue
			}
			if ev := d.gapOutOfBand(d.ctx.A2GGaps(), slot, cur, gap, "a2g"); ev != nil {
				return &Finding{
					Cause:    CheckTiming,
					Suspects: []device.ID{layout.ActuatorID(slot)},
					Timing:   ev,
				}
			}
		}
	}
	// G2A: a firing out of the previous group after an off-pace dwell.
	if d.prevGroup != NoGroup && d.dwell > 0 {
		for _, act := range in.Obs.Actuated {
			slot, ok := layout.ActuatorSlot(act)
			if !ok {
				continue
			}
			if ev := d.gapOutOfBand(d.ctx.G2AGaps(), d.prevGroup, slot, d.dwell, "g2a"); ev != nil {
				return &Finding{
					Cause:    CheckTiming,
					Suspects: []device.ID{act},
					Timing:   ev,
				}
			}
		}
	}
	// G2G: a plain hop after an off-pace dwell.
	if d.prevGroup != NoGroup && cur != d.prevGroup && d.dwell > 0 {
		if ev := d.gapOutOfBand(d.ctx.G2GGaps(), d.prevGroup, cur, d.dwell, "g2g"); ev != nil {
			return &Finding{
				Cause:    CheckTiming,
				Suspects: d.diffSuspects(in.Vec, []int{d.prevGroup}),
				Timing:   ev,
			}
		}
	}
	return nil
}

// gapOutOfBand tests one observed gap against the edge's learned band and
// returns the evidence when it falls out. It allocates only on a flag, so
// the clean-window hot path stays allocation-free.
func (d *Detector) gapOutOfBand(ss *markov.SketchSet, from, to, gap int, edge string) *TimingEvidence {
	s := ss.Get(from, to)
	if s == nil || s.Total() < DefaultTimingMinSamples {
		return nil
	}
	lo, hi := s.Band()
	if markov.BucketFor(gap) <= hi+DefaultTimingSlackBuckets {
		return nil
	}
	d.met.timingFlag(edge)
	d.met.timingGap.Observe(float64(gap))
	return &TimingEvidence{
		Edge:          edge,
		From:          from,
		To:            to,
		GapWindows:    gap,
		BandLoWindows: markov.BucketMin(lo),
		BandHiWindows: markov.BucketMax(hi),
		Samples:       s.Total(),
		Buckets:       s.Buckets(),
	}
}
