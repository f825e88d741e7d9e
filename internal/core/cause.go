package core

import (
	"encoding/json"
	"fmt"
)

// Cause is the canonical name for the alert-cause enum. CheckKind (in
// detector.go) remains the underlying type for compatibility; new code
// should say Cause.
type Cause = CheckKind

// Families of detection causes, used as metric labels and report keys so
// the strings cannot drift between the eval tables and /metrics.
const (
	FamilyCorrelation = "correlation"
	FamilyTransition  = "transition"
	FamilyLiveness    = "liveness"
	FamilyTiming      = "timing"
	FamilyGhost       = "ghost"
)

// Family buckets the cause into the check families: the correlation check,
// the structural transition check (G2G/G2A/A2G), the interval-band timing
// check, the gateway-level liveness tracker, or the ghost-device check.
func (k CheckKind) Family() string {
	switch {
	case k.IsTransition():
		return FamilyTransition
	case k == CheckLiveness:
		return FamilyLiveness
	case k == CheckTiming:
		return FamilyTiming
	case k == CheckGhost:
		return FamilyGhost
	default:
		return FamilyCorrelation
	}
}

// Causes returns every real violation cause in enum order (CheckNone is
// excluded). Metric vectors index counters by int(cause) - 1 against this
// slice.
func Causes() []CheckKind {
	return []CheckKind{CheckCorrelation, CheckG2G, CheckG2A, CheckA2G, CheckLiveness, CheckTiming, CheckGhost}
}

// CauseNames returns Causes rendered as strings, for metric label values.
func CauseNames() []string {
	cs := Causes()
	out := make([]string, len(cs))
	for i, c := range cs {
		out[i] = c.String()
	}
	return out
}

// ParseCheckKind is the inverse of String.
func ParseCheckKind(s string) (CheckKind, error) {
	switch s {
	case "none":
		return CheckNone, nil
	case "correlation":
		return CheckCorrelation, nil
	case "g2g":
		return CheckG2G, nil
	case "g2a":
		return CheckG2A, nil
	case "a2g":
		return CheckA2G, nil
	case "liveness":
		return CheckLiveness, nil
	case "timing":
		return CheckTiming, nil
	case "ghost":
		return CheckGhost, nil
	default:
		return CheckNone, fmt.Errorf("core: unknown cause %q", s)
	}
}

// MarshalJSON encodes the cause as its string name, so checkpoint files,
// alert payloads, and metric labels all carry the same vocabulary.
func (k CheckKind) MarshalJSON() ([]byte, error) {
	return json.Marshal(k.String())
}

// UnmarshalJSON accepts only the string form MarshalJSON writes.
func (k *CheckKind) UnmarshalJSON(data []byte) error {
	var s string
	if err := json.Unmarshal(data, &s); err != nil {
		return fmt.Errorf("core: cause must be a string: %s", data)
	}
	parsed, err := ParseCheckKind(s)
	if err != nil {
		return err
	}
	*k = parsed
	return nil
}
