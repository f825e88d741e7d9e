package core

import "repro/internal/device"

// maxExplainSteps bounds the intersection history kept per episode so a
// pathological 480-window episode cannot grow an unbounded trace; the
// opening step and the most recent informative steps are what a debugging
// session actually reads.
const maxExplainSteps = 64

// Explain is the decision trace behind one alert: which window opened the
// episode, what the detector matched it against, which transition was
// violated, and how the probable-fault intersection evolved. It exists so
// a raised (or missed) alert can be debugged from the gateway's
// /alerts/last endpoint instead of re-running the offline harness.
type Explain struct {
	// Cause is the check that opened the episode.
	Cause CheckKind `json:"cause"`
	// DetectedWindow / ReportedWindow bracket the episode.
	DetectedWindow int `json:"detected_window"`
	ReportedWindow int `json:"reported_window"`
	// PrevGroup is the group the home was in before the opening window;
	// MainGroup is the opening window's matched group (NoGroup on a
	// correlation violation). Together with Cause they name the violated
	// transition: PrevGroup -> MainGroup for G2G, PrevGroup -> actuator
	// for G2A, actuator -> MainGroup for A2G.
	PrevGroup int `json:"prev_group"`
	MainGroup int `json:"main_group"`
	// ProbableGroups are the candidate groups the opening window was
	// diffed against (correlation violations only).
	ProbableGroups []int `json:"probable_groups,omitempty"`
	// MinDistance is the Hamming distance from the opening state set to
	// the nearest group (NoDistance when an exact match existed).
	MinDistance int `json:"min_distance"`
	// Timing is the interval evidence behind a CheckTiming episode: the
	// off-pace edge, the observed gap, the learned band, and the sketch's
	// bucket counts. Nil for every other cause.
	Timing *TimingEvidence `json:"timing,omitempty"`
	// Steps is the bounded intersection history: the opening window plus
	// every informative probe window, newest last. TruncatedSteps counts
	// informative windows dropped once the bound was hit.
	Steps          []ExplainStep `json:"steps,omitempty"`
	TruncatedSteps int           `json:"truncated_steps,omitempty"`
}

// ExplainStep is one informative window within an episode.
type ExplainStep struct {
	// Window is the window index.
	Window int `json:"window"`
	// Violation is what this window's probe found.
	Violation CheckKind `json:"violation"`
	// Suspects is the window's own probable-fault set.
	Suspects []device.ID `json:"suspects,omitempty"`
	// Intersection is the episode's running intersection after this
	// window.
	Intersection []device.ID `json:"intersection,omitempty"`
}

// addStep appends an informative window, enforcing the bound. Slices are
// copied (the caller's may alias detector scratch) and empty ones
// normalized to nil so a trace that round-trips through checkpoint JSON
// (where omitempty drops them) compares DeepEqual to the original.
func (e *Explain) addStep(s ExplainStep) {
	if len(e.Steps) >= maxExplainSteps {
		e.TruncatedSteps++
		return
	}
	s.Suspects = copyIDs(s.Suspects)
	s.Intersection = copyIDs(s.Intersection)
	e.Steps = append(e.Steps, s)
}

// copyIDs copies a slice, mapping empty to nil (see addStep).
func copyIDs(ids []device.ID) []device.ID {
	if len(ids) == 0 {
		return nil
	}
	return append([]device.ID(nil), ids...)
}

// Clone deep-copies the trace, so checkpoints and alert consumers cannot
// alias detector-owned state.
func (e *Explain) Clone() *Explain {
	if e == nil {
		return nil
	}
	out := *e
	out.ProbableGroups = append([]int(nil), e.ProbableGroups...)
	out.Timing = e.Timing.Clone()
	if e.Steps != nil {
		out.Steps = make([]ExplainStep, len(e.Steps))
		for i, s := range e.Steps {
			out.Steps[i] = ExplainStep{
				Window:       s.Window,
				Violation:    s.Violation,
				Suspects:     copyIDs(s.Suspects),
				Intersection: copyIDs(s.Intersection),
			}
		}
	}
	return &out
}
