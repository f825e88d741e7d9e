package dice

import (
	"bytes"
	"fmt"
	"testing"
	"time"

	"repro/internal/core"
)

// buildHome assembles a two-room home through the public facade.
func buildHome(t testing.TB) (*Registry, *Layout) {
	t.Helper()
	reg := NewRegistry()
	reg.MustAdd("motion-kitchen", Binary, Motion, "kitchen")
	reg.MustAdd("sound-kitchen", Numeric, Sound, "kitchen")
	reg.MustAdd("motion-bedroom", Binary, Motion, "bedroom")
	reg.MustAdd("bulb-kitchen", Actuator, SmartBulb, "kitchen")
	return reg, NewLayout(reg)
}

// homeWindow synthesizes one observation: kitchen busy on even hours,
// bedroom on odd hours.
func homeWindow(l *Layout, w int, kitchenMotionDead bool) *Observation {
	o := l.NewObservation(w)
	kitchen := (w/60)%2 == 0
	sound := 31.0
	if kitchen {
		if !kitchenMotionDead {
			o.Binary[0] = true
		}
		sound = 55
		if w%60 == 0 {
			o.Actuated = append(o.Actuated, DeviceID(3))
		}
	} else {
		o.Binary[1] = true
	}
	o.Numeric[0] = []float64{sound, sound, sound}
	return o
}

func TestFacadeEndToEnd(t *testing.T) {
	_, layout := buildHome(t)
	history := make([]*Observation, 0, 24*60)
	for w := 0; w < 24*60; w++ {
		history = append(history, homeWindow(layout, w, false))
	}
	ctx, err := TrainWindows(layout, time.Minute, history)
	if err != nil {
		t.Fatal(err)
	}
	if ctx.NumGroups() == 0 {
		t.Fatal("no groups")
	}
	det, err := New(ctx)
	if err != nil {
		t.Fatal(err)
	}
	var alert *Alert
	for w := 0; w < 3*60 && alert == nil; w++ {
		res, err := det.Process(homeWindow(layout, w, w >= 30))
		if err != nil {
			t.Fatal(err)
		}
		alert = res.Alert
	}
	if alert == nil {
		t.Fatal("dead motion sensor never identified")
	}
	if len(alert.Devices) != 1 || alert.Devices[0] != 0 {
		t.Errorf("identified %v, want [0]", alert.Devices)
	}
	if alert.Cause != CheckCorrelation && !alert.Cause.IsTransition() {
		t.Errorf("cause = %v", alert.Cause)
	}
}

func TestFacadeContextPersistence(t *testing.T) {
	_, layout := buildHome(t)
	history := make([]*Observation, 0, 12*60)
	for w := 0; w < 12*60; w++ {
		history = append(history, homeWindow(layout, w, false))
	}
	ctx, err := TrainWindows(layout, time.Minute, history)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := ctx.Save(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadContext(&buf, layout)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.NumGroups() != ctx.NumGroups() {
		t.Errorf("groups after reload: %d vs %d", loaded.NumGroups(), ctx.NumGroups())
	}
	if _, err := New(loaded); err != nil {
		t.Fatalf("detector from reloaded context: %v", err)
	}
}

// The timing surface re-exported through the facade: schema-v2 contexts
// carry interval sketches through a save/load round trip, the check
// pipeline is inspectable and replaceable, and the timing cause belongs to
// its own family.
func TestFacadeTimingSurface(t *testing.T) {
	_, layout := buildHome(t)
	history := make([]*Observation, 0, 12*60)
	for w := 0; w < 12*60; w++ {
		history = append(history, homeWindow(layout, w, false))
	}
	ctx, err := TrainWindows(layout, time.Minute, history)
	if err != nil {
		t.Fatal(err)
	}
	if !ctx.TimingCapable() || ctx.SchemaVersion() != core.ContextSchemaV2 {
		t.Fatalf("trained context: capable=%v schema=%d, want capable v%d",
			ctx.TimingCapable(), ctx.SchemaVersion(), core.ContextSchemaV2)
	}
	var buf bytes.Buffer
	if err := ctx.Save(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadContext(&buf, layout)
	if err != nil {
		t.Fatal(err)
	}
	if !loaded.TimingCapable() {
		t.Error("timing capability lost across save/load")
	}

	checks := DefaultChecks()
	if len(checks) != 6 || checks[len(checks)-1].Cause() != CheckTiming {
		t.Fatalf("DefaultChecks = %d checks ending in %v, want 6 ending in timing",
			len(checks), checks[len(checks)-1].Cause())
	}
	if CheckTiming.Family() != FamilyTiming {
		t.Errorf("CheckTiming family = %q", CheckTiming.Family())
	}
	// A structural-only pipeline constructs.
	if _, err := New(loaded, WithChecks(checks[:5]...)); err != nil {
		t.Fatalf("WithChecks: %v", err)
	}
}

func TestFacadeBuilderIntegration(t *testing.T) {
	_, layout := buildHome(t)
	b := NewBuilder(layout, DefaultDuration)
	if b.Duration() != time.Minute {
		t.Errorf("duration = %v", b.Duration())
	}
}

func TestFacadeDeviceWeights(t *testing.T) {
	_, layout := buildHome(t)
	history := make([]*Observation, 0, 12*60)
	for w := 0; w < 12*60; w++ {
		history = append(history, homeWindow(layout, w, false))
	}
	ctx, err := TrainWindows(layout, time.Minute, history)
	if err != nil {
		t.Fatal(err)
	}
	// Weighting the kitchen motion sensor as critical must not break
	// normal operation.
	det, err := New(ctx, WithConfig(Config{
		Weights:     map[DeviceID]float64{0: 10},
		WeightAlarm: 5,
	}))
	if err != nil {
		t.Fatal(err)
	}
	for w := 0; w < 60; w++ {
		res, err := det.Process(homeWindow(layout, w, false))
		if err != nil {
			t.Fatal(err)
		}
		if res.Detected {
			t.Fatalf("false positive at %d with weights configured", w)
		}
	}
}

// ExampleTrainWindows shows the facade's core loop (compile-checked).
func ExampleTrainWindows() {
	reg := NewRegistry()
	reg.MustAdd("motion", Binary, Motion, "hall")
	layout := NewLayout(reg)
	var history []*Observation
	for w := 0; w < 120; w++ {
		o := layout.NewObservation(w)
		o.Binary[0] = w%2 == 0
		history = append(history, o)
	}
	ctx, _ := TrainWindows(layout, time.Minute, history)
	fmt.Println(ctx.NumGroups(), "groups")
	// Output: 2 groups
}
