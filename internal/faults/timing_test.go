package faults

import (
	"testing"

	"repro/internal/device"
	"repro/internal/window"
)

// quietObs: a window with nothing happening (m0 fired only, no actuators).
func quietObs(l *window.Layout, idx int, m1 bool) *window.Observation {
	o := l.NewObservation(idx)
	o.Binary[0] = true
	o.Binary[1] = m1
	o.Numeric[0] = []float64{20, 20}
	o.Numeric[1] = []float64{100, 100}
	return o
}

func TestStretchStreamDelaysActuatorFirings(t *testing.T) {
	l := faultLayout(t)
	// Windows 0-9 quiet, window 5 fires the bulb.
	obs := make([]*window.Observation, 10)
	for i := range obs {
		obs[i] = quietObs(l, i+100, false) // non-zero base index
	}
	obs[5].Actuated = []device.ID{4}

	out, err := StretchStream(l, obs, TimingFault{Device: 4, Type: ActuatorDelayed, Delay: 3})
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != len(obs) {
		t.Fatalf("stretched length %d, want %d (truncated)", len(out), len(obs))
	}
	for i, o := range out {
		if o.Index != 100+i {
			t.Fatalf("window %d has index %d, want contiguous from 100", i, o.Index)
		}
	}
	// The firing moved from position 5 to position 8 (3 holds inserted).
	for i, o := range out {
		fired := containsID(o.Actuated, 4)
		if fired != (i == 8) {
			t.Errorf("position %d fired=%v", i, fired)
		}
	}
	// Holds are clones of the pre-trigger window with no firings.
	for i := 5; i < 8; i++ {
		if len(out[i].Actuated) != 0 || !out[i].Binary[0] {
			t.Errorf("hold %d: %+v", i, out[i])
		}
	}
	// Input untouched.
	if obs[5].Index != 105 || !containsID(obs[5].Actuated, 4) {
		t.Error("input stream mutated")
	}
}

func TestStretchStreamDelaysBinaryFlips(t *testing.T) {
	l := faultLayout(t)
	obs := make([]*window.Observation, 8)
	for i := range obs {
		obs[i] = quietObs(l, i, i >= 4) // m1 flips on at window 4
	}
	out, err := StretchStream(l, obs, TimingFault{Device: 1, Type: SlowDegradation, Delay: 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != len(obs) {
		t.Fatalf("stretched length %d, want %d", len(out), len(obs))
	}
	// The flip moved from position 4 to position 6 (2 holds of the old state).
	for i, o := range out {
		if o.Binary[1] != (i >= 6) {
			t.Errorf("position %d m1=%v", i, o.Binary[1])
		}
	}
}

func TestStretchStreamSkipsTriggersAfterFirings(t *testing.T) {
	l := faultLayout(t)
	obs := make([]*window.Observation, 6)
	for i := range obs {
		obs[i] = quietObs(l, i, false)
	}
	// The window before the trigger fired an actuator: holding its state
	// could fabricate an untrained A2G edge, so the trigger passes through.
	obs[2].Actuated = []device.ID{4}
	obs[3].Actuated = []device.ID{4}
	out, err := StretchStream(l, obs, TimingFault{Device: 4, Type: ActuatorDelayed, Onset: 3, Delay: 2})
	if err != nil {
		t.Fatal(err)
	}
	for i, o := range out {
		if containsID(o.Actuated, 4) != (i == 2 || i == 3) {
			t.Errorf("position %d: %v", i, o.Actuated)
		}
	}
}

func TestStretchStreamHonorsOnset(t *testing.T) {
	l := faultLayout(t)
	obs := make([]*window.Observation, 10)
	for i := range obs {
		obs[i] = quietObs(l, i, false)
	}
	obs[2].Actuated = []device.ID{4}
	obs[7].Actuated = []device.ID{4}
	out, err := StretchStream(l, obs, TimingFault{Device: 4, Type: ActuatorDelayed, Onset: 5, Delay: 2})
	if err != nil {
		t.Fatal(err)
	}
	// Pre-onset firing stays at 2; post-onset firing slides from 7 to 9.
	for i, o := range out {
		if containsID(o.Actuated, 4) != (i == 2 || i == 9) {
			t.Errorf("position %d: %v", i, o.Actuated)
		}
	}
}

func TestStretchStreamValidation(t *testing.T) {
	l := faultLayout(t)
	obs := []*window.Observation{quietObs(l, 0, false)}
	cases := []TimingFault{
		{Device: 4, Type: ActuatorDead, Delay: 2},     // not a stream fault
		{Device: 4, Type: ActuatorDelayed, Delay: 0},  // no delay
		{Device: 0, Type: ActuatorDelayed, Delay: 2},  // sensor as delayed actuator
		{Device: 4, Type: SlowDegradation, Delay: 2},  // actuator as degrading sensor
		{Device: 2, Type: SlowDegradation, Delay: 2},  // numeric sensor (binary only)
		{Device: 99, Type: ActuatorDelayed, Delay: 2}, // unknown device
		{Device: 4, Type: ActuatorDelayed, Delay: 2, Onset: -1},
	}
	for _, f := range cases {
		if _, err := StretchStream(l, obs, f); err == nil {
			t.Errorf("%v accepted", f)
		}
	}
	if _, err := StretchStream(l, nil, TimingFault{Device: 4, Type: ActuatorDelayed, Delay: 1}); err == nil {
		t.Error("empty stream accepted")
	}
}

// Regression for the old Injector/StretchStream split: one injector now
// takes point and stream faults together. A stream fault without a delay is
// still rejected, and the per-window Apply pass leaves stream faults to
// ApplyStream.
func TestInjectorAcceptsStreamFaults(t *testing.T) {
	l := faultLayout(t)
	for _, typ := range TimingTypes() {
		if !typ.IsStreamFault() {
			t.Errorf("%s not a stream fault", typ)
		}
		if _, err := NewInjector(l, 1, Fault{Device: 4, Type: typ}); err == nil {
			t.Errorf("injector accepted stream fault %s with no delay", typ)
		}
	}
	if _, err := NewInjector(l, 1, Fault{Device: 4, Type: ActuatorDelayed, Delay: 2}); err != nil {
		t.Errorf("injector rejected delayed actuator fault: %v", err)
	}
	if _, err := NewInjector(l, 1, Fault{Device: 1, Type: SlowDegradation, Delay: 2}); err != nil {
		t.Errorf("injector rejected slow-degradation fault: %v", err)
	}
	if _, err := NewInjector(l, 1, Fault{Device: 2, Type: SlowDegradation, Delay: 2}); err == nil {
		t.Error("slow-degradation accepted on a numeric sensor")
	}
	if _, err := NewInjector(l, 1, Fault{Device: 0, Type: FailStop, Delay: 3}); err == nil {
		t.Error("point fault with a delay accepted")
	}
	for _, typ := range append(SensorTypes(), ActuatorTypes()...) {
		if typ.IsStreamFault() {
			t.Errorf("%s wrongly classified as stream fault", typ)
		}
	}
	if ActuatorDelayed.String() != "actuator-delayed" || SlowDegradation.String() != "slow-degradation" {
		t.Error("timing fault names changed")
	}
}

// Point + stream faults compose through one injector: ApplyStream stretches
// the segment for the delayed actuator exactly as StretchStream would, then
// Apply kills the fail-stopped motion sensor per window.
func TestInjectorComposesPointAndStreamFaults(t *testing.T) {
	l := faultLayout(t)
	obs := make([]*window.Observation, 0, 12)
	for i := 0; i < 12; i++ {
		o := l.NewObservation(i)
		o.Binary[0] = true
		if i == 6 {
			o.Actuated = []device.ID{4}
		}
		obs = append(obs, o)
	}
	in := mustInjector(t, l, 7,
		Fault{Device: 0, Type: FailStop, Onset: 0},
		Fault{Device: 4, Type: ActuatorDelayed, Delay: 3},
	)
	if !in.HasStreamFaults() {
		t.Fatal("HasStreamFaults = false")
	}
	stretched, err := in.ApplyStream(obs)
	if err != nil {
		t.Fatal(err)
	}
	want, err := StretchStream(l, obs, TimingFault{Device: 4, Type: ActuatorDelayed, Delay: 3})
	if err != nil {
		t.Fatal(err)
	}
	if len(stretched) != len(want) {
		t.Fatalf("stretched to %d windows, StretchStream gives %d", len(stretched), len(want))
	}
	fireAt := -1
	for i := range stretched {
		if containsID(stretched[i].Actuated, 4) != containsID(want[i].Actuated, 4) {
			t.Fatalf("window %d firing mismatch vs StretchStream", i)
		}
		if containsID(stretched[i].Actuated, 4) {
			fireAt = i
		}
	}
	if fireAt != 9 {
		t.Errorf("delayed firing at window %d, want 9", fireAt)
	}
	for i, o := range stretched {
		got := in.Apply(o, i)
		if got.Binary[0] {
			t.Fatalf("window %d: fail-stopped sensor still firing", i)
		}
		if containsID(got.Actuated, 4) != (i == fireAt) {
			t.Fatalf("window %d: point pass disturbed the stream fault", i)
		}
	}
	// Untouched windows: no stream faults means ApplyStream is the identity.
	only := mustInjector(t, l, 7, Fault{Device: 0, Type: FailStop})
	same, err := only.ApplyStream(obs)
	if err != nil {
		t.Fatal(err)
	}
	if len(same) != len(obs) || same[0] != obs[0] {
		t.Error("ApplyStream without stream faults did not return the input")
	}
}
