// Package core implements DICE, the paper's contribution: faulty-device
// detection and identification for smart homes via context extraction.
//
// The package mirrors the paper's two phases:
//
//   - Precomputation (Trainer): windowed observations are binarized into
//     sensor state sets (Eqs. 3.1-3.4); each unique state set becomes a
//     group, and three Markov matrices — group-to-group (G2G),
//     group-to-actuator (G2A), and actuator-to-group (A2G) — are counted
//     over the window sequence. The result is a Context.
//   - Real time (Detector): each live window is binarized and put through a
//     correlation check (is there a main group at Hamming distance 0?) and a
//     transition check (three zero-probability cases). On a violation the
//     detector enters identification, intersecting per-window probable-fault
//     sets until at most numThre devices remain, then emits an Alert.
package core

import (
	"time"

	"repro/internal/device"
)

// Default tuning values; each mirrors either an explicit paper parameter or
// a documented extension (see DESIGN.md).
const (
	// DefaultDuration is the paper's empirically optimal window length.
	DefaultDuration = time.Minute
	// DefaultMaxFaults is the single-fault assumption of §V (numThre = 1).
	DefaultMaxFaults = 1
	// DefaultIdentifyGiveUp bounds how many consecutive uninformative
	// (violation-free) windows identification tolerates before reporting the
	// current intersection. It is deliberately patient (two hours at the
	// default duration): in a sparsely instrumented home the next piece of
	// evidence arrives with the next activity, and reporting early freezes
	// a still-wide intersection (the paper's houseA identification averages
	// 72.8 minutes for the same reason).
	DefaultIdentifyGiveUp = 120
	// DefaultMaxIdentifyWindows hard-caps an identification episode.
	DefaultMaxIdentifyWindows = 480
	// DefaultMaxStalls bounds how many times an empty intersection update is
	// ignored before the current intersection is reported as-is.
	DefaultMaxStalls = 5
)

// Config tunes DICE. The zero value is usable: Normalize fills defaults.
// The window duration belongs to the window layer (internal/window); the
// context carries the duration it was trained with.
type Config struct {
	// MaxFaults is the number of simultaneous faults the system considers.
	// It sets numThre (identification stops when the intersection has at
	// most this many devices) and the candidate distance: the maximum
	// Hamming distance at which a group is considered a probable group
	// during the correlation check. The paper uses MaxFaults bit-flips; the
	// detector uses 3*MaxFaults so that a numeric sensor fault, which owns
	// three bits, still finds its probable groups.
	MaxFaults int

	// IdentifyGiveUp is the number of consecutive uninformative windows
	// after which identification reports its current intersection.
	IdentifyGiveUp int

	// MaxIdentifyWindows hard-caps identification episode length.
	MaxIdentifyWindows int

	// Weights optionally assigns criticality/failure weights to devices
	// (§VI). When a device with weight >= WeightAlarm enters the probable
	// set, the alert fires immediately even above numThre.
	Weights map[device.ID]float64

	// WeightAlarm is the weight threshold for early alerts; <= 0 disables
	// the mechanism.
	WeightAlarm float64

	// Attest, when non-nil, is the optional attestation step of §3.4 ("we
	// may add an additional attestation step for a verification purpose"):
	// it is called with the devices identification is about to report and
	// returns the subset that failed attestation. Devices that pass (are
	// filtered out) are dropped from the alert; if every device passes,
	// the episode is dismissed as a false alarm and detection resumes.
	Attest func(devices []device.ID) []device.ID
}

// Normalize returns a copy of c with zero fields replaced by defaults.
func (c Config) Normalize() Config {
	if c.MaxFaults <= 0 {
		c.MaxFaults = DefaultMaxFaults
	}
	if c.IdentifyGiveUp <= 0 {
		c.IdentifyGiveUp = DefaultIdentifyGiveUp
	}
	if c.MaxIdentifyWindows <= 0 {
		c.MaxIdentifyWindows = DefaultMaxIdentifyWindows
	}
	return c
}

// candidateDistance is the probable-group Hamming radius: 3*MaxFaults (see
// MaxFaults).
func (c Config) candidateDistance() int { return 3 * c.MaxFaults }
