package core

import (
	"fmt"

	"repro/internal/device"
)

// DetectorState is the JSON-serializable runtime state of a Detector: the
// previous-window group and actuators the transition checks compare
// against, the timing check's gap bookkeeping, and any in-flight
// identification episodes. A gateway checkpoints it so a restarted process
// resumes the transition check mid-stream instead of cold-starting with
// NoGroup (which would blind the G2G/G2A/A2G checks for the first
// post-restart window and abandon a half-finished identification).
type DetectorState struct {
	PrevGroup int         `json:"prev_group"`
	PrevActs  []device.ID `json:"prev_acts,omitempty"`
	// Episodes carries every open identification episode in opening order
	// (more than one only with MaxFaults > 1).
	Episodes []*EpisodeState `json:"episodes,omitempty"`
	// Dwell and LastFires carry the timing check's gap bookkeeping: the
	// consecutive windows spent in PrevGroup, and each actuator slot's most
	// recent firing window.
	Dwell     int         `json:"dwell,omitempty"`
	LastFires map[int]int `json:"last_fires,omitempty"`
}

// EpisodeState is the serialized form of an in-progress identification
// episode.
type EpisodeState struct {
	Cause          CheckKind   `json:"cause"`
	DetectedWindow int         `json:"detected_window"`
	Intersection   []device.ID `json:"intersection"`
	Stalls         int         `json:"stalls"`
	NormalStreak   int         `json:"normal_streak"`
	Length         int         `json:"length"`
	// Corroboration counts the informative windows that fed the episode,
	// the opening one included, so it is at least 1.
	Corroboration int         `json:"corroboration,omitempty"`
	MissingEffect bool        `json:"missing_effect,omitempty"`
	SurplusEffect bool        `json:"surplus_effect,omitempty"`
	OpeningActs   []device.ID `json:"opening_acts,omitempty"`
	OpeningPrev   int         `json:"opening_prev"`
	// Trace carries the episode's decision trace across restarts, so an
	// alert concluded after a restore explains itself identically to one
	// from an uninterrupted run.
	Trace *Explain `json:"trace,omitempty"`
}

// exportEpisode snapshots one episode.
func exportEpisode(ep *episode) *EpisodeState {
	return &EpisodeState{
		Cause:          ep.cause,
		DetectedWindow: ep.detectedWindow,
		Intersection:   copyIDs(ep.intersection),
		Stalls:         ep.stalls,
		NormalStreak:   ep.normalStreak,
		Length:         ep.length,
		Corroboration:  ep.corroboration,
		MissingEffect:  ep.missingEffect,
		SurplusEffect:  ep.surplusEffect,
		OpeningActs:    copyIDs(ep.openingActs),
		OpeningPrev:    ep.openingPrev,
		Trace:          ep.trace.Clone(),
	}
}

// restoreEpisode rebuilds one episode from its snapshot. The device lists
// go through toSet: a checkpoint is input, and the episode's sets must be
// ascending and duplicate-free whatever the file holds.
func restoreEpisode(eps *EpisodeState) *episode {
	return &episode{
		cause:          eps.Cause,
		detectedWindow: eps.DetectedWindow,
		intersection:   toSet(eps.Intersection),
		stalls:         eps.Stalls,
		normalStreak:   eps.NormalStreak,
		length:         eps.Length,
		corroboration:  eps.Corroboration,
		missingEffect:  eps.MissingEffect,
		surplusEffect:  eps.SurplusEffect,
		openingActs:    toSet(eps.OpeningActs),
		openingPrev:    eps.OpeningPrev,
		trace:          eps.Trace.Clone(),
	}
}

// ExportState snapshots the detector's runtime state. The snapshot shares
// nothing with the detector and stays valid across further Process calls.
func (d *Detector) ExportState() DetectorState {
	st := DetectorState{
		PrevGroup: d.prevGroup,
		PrevActs:  append([]device.ID(nil), d.prevActs...),
		Dwell:     d.dwell,
	}
	for slot, at := range d.lastFire {
		if at < 0 {
			continue
		}
		if st.LastFires == nil {
			st.LastFires = make(map[int]int)
		}
		st.LastFires[slot] = at
	}
	for _, ep := range d.eps {
		st.Episodes = append(st.Episodes, exportEpisode(ep))
	}
	return st
}

// RestoreState replaces the detector's runtime state with a snapshot taken
// by ExportState. A snapshot is input: group references are checked against
// the trained context, and every episode must carry its trace and at least
// its opening window's corroboration, as ExportState writes them.
func (d *Detector) RestoreState(st DetectorState) error {
	if err := d.checkGroupRef(st.PrevGroup); err != nil {
		return fmt.Errorf("core: restore prev group: %w", err)
	}
	for i, eps := range st.Episodes {
		if eps == nil || eps.Trace == nil {
			return fmt.Errorf("core: restore episode %d: no trace", i)
		}
		if eps.Corroboration < 1 {
			return fmt.Errorf("core: restore episode %d: corroboration %d, want at least 1", i, eps.Corroboration)
		}
		if err := d.checkGroupRef(eps.OpeningPrev); err != nil {
			return fmt.Errorf("core: restore episode opening group: %w", err)
		}
	}
	for slot := range st.LastFires {
		if slot < 0 || slot >= len(d.lastFire) {
			return fmt.Errorf("core: restore last-fire slot %d out of range (layout has %d actuators)",
				slot, len(d.lastFire))
		}
	}
	d.prevGroup = st.PrevGroup
	d.prevActs = append(d.prevActs[:0], st.PrevActs...)
	d.dwell = st.Dwell
	for i := range d.lastFire {
		d.lastFire[i] = -1
	}
	for slot, at := range st.LastFires {
		d.lastFire[slot] = at
	}
	d.eps = nil
	for _, eps := range st.Episodes {
		d.eps = append(d.eps, restoreEpisode(eps))
	}
	return nil
}

// checkGroupRef validates a serialized group reference (NoGroup is legal).
func (d *Detector) checkGroupRef(g int) error {
	if g == NoGroup {
		return nil
	}
	if g < 0 || g >= d.ctx.NumGroups() {
		return fmt.Errorf("group %d out of range (context has %d groups)", g, d.ctx.NumGroups())
	}
	return nil
}
