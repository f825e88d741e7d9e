package gateway

import (
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/device"
	"repro/internal/event"
	"repro/internal/simhome"
	"repro/internal/window"
)

// trainedHome builds a small simulated home with a trained context.
func trainedHome(t testing.TB) (*simhome.Home, *core.Context) {
	t.Helper()
	spec := simhome.SpecDHouseA()
	spec.Name = "gw-test"
	spec.Hours = 5 * 24
	h, err := simhome.New(spec, 21)
	if err != nil {
		t.Fatal(err)
	}
	trainW := 3 * 24 * 60
	tr := core.NewTrainer(h.Layout(), time.Minute)
	for i := 0; i < trainW; i++ {
		if err := tr.Calibrate(h.Window(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := tr.FinishCalibration(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < trainW; i++ {
		if err := tr.Learn(h.Window(i)); err != nil {
			t.Fatal(err)
		}
	}
	ctx, err := tr.Context()
	if err != nil {
		t.Fatal(err)
	}
	return h, ctx
}

// TestGatewayZeroConfigIsDefault: a gateway built without WithConfig runs
// the zero core.Config, so passing WithConfig(core.Config{}) is redundant —
// on a faulty stream both give the same stats, alerts and Explain traces.
func TestGatewayZeroConfigIsDefault(t *testing.T) {
	h, ctx := trainedHome(t)
	evts := faultyAfternoon(t, h, 4)
	run := func(opts ...Option) (Stats, string) {
		gw, err := New(ctx, append([]Option{WithAlertBuffer(4096)}, opts...)...)
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range evts {
			if err := gw.Ingest(e); err != nil {
				t.Fatal(err)
			}
		}
		if err := gw.AdvanceTo(4 * time.Hour); err != nil {
			t.Fatal(err)
		}
		return gw.Stats(), alertsJSON(t, drainAlerts(gw))
	}
	defStats, defAlerts := run()
	zeroStats, zeroAlerts := run(WithConfig(core.Config{}))
	if defStats.Alerts == 0 {
		t.Fatal("faulty stream raised no alert; the comparison is vacuous")
	}
	if defStats != zeroStats {
		t.Errorf("stats differ:\n default: %+v\n zero:    %+v", defStats, zeroStats)
	}
	if defAlerts != zeroAlerts {
		t.Errorf("alerts differ:\n default: %s\n zero:    %s", defAlerts, zeroAlerts)
	}
}

func TestGatewayCleanStream(t *testing.T) {
	h, ctx := trainedHome(t)
	gw, err := New(ctx, WithConfig(core.Config{}))
	if err != nil {
		t.Fatal(err)
	}
	// Stream 4 hours of clean post-training data.
	start := 3 * 24 * 60
	evts := h.Events(start, start+4*60)
	for _, e := range evts {
		// Rebase to stream time zero.
		e.At -= time.Duration(start) * time.Minute
		if err := gw.Ingest(e); err != nil {
			t.Fatal(err)
		}
	}
	if err := gw.AdvanceTo(4 * time.Hour); err != nil {
		t.Fatal(err)
	}
	st := gw.Stats()
	if st.Windows != 4*60 {
		t.Errorf("windows = %d, want %d", st.Windows, 4*60)
	}
	if st.Events != int64(len(evts)) {
		t.Errorf("events = %d, want %d", st.Events, len(evts))
	}
	if st.Violations > 2 {
		t.Errorf("clean stream produced %d violations", st.Violations)
	}
}

func TestGatewayDetectsInjectedFault(t *testing.T) {
	h, ctx := trainedHome(t)
	gw, err := New(ctx, WithConfig(core.Config{}))
	if err != nil {
		t.Fatal(err)
	}
	// Fail-stop the kitchen light from stream minute 30 onward: drop its
	// events before ingestion, exactly what a dead sensor looks like on
	// the wire.
	target, ok := h.Registry().Lookup("light-kitchen")
	if !ok {
		t.Fatal("no kitchen light")
	}
	// Stream an afternoon: the kitchen must be used for the dead light to
	// manifest (a fault is invisible until its sensor would have reacted).
	start := 3*24*60 + 12*60
	evts := h.Events(start, start+6*60)
	for _, e := range evts {
		e.At -= time.Duration(start) * time.Minute
		if e.Device == target && e.At >= 30*time.Minute {
			continue
		}
		if err := gw.Ingest(e); err != nil {
			t.Fatal(err)
		}
	}
	if err := gw.AdvanceTo(6 * time.Hour); err != nil {
		t.Fatal(err)
	}
	st := gw.Stats()
	if st.Violations == 0 {
		t.Fatal("fault never detected")
	}
	select {
	case alert := <-gw.Alerts():
		found := false
		for _, d := range alert.Devices {
			if d.ID == target {
				found = true
			}
		}
		if !found {
			t.Errorf("alert devices %v do not include the dead sensor", alert.Devices)
		}
		if alert.ReportedAt < alert.DetectedAt {
			t.Error("reported before detected")
		}
	default:
		t.Fatal("no alert emitted")
	}
}

func TestGatewayRejectsRegression(t *testing.T) {
	_, ctx := trainedHome(t)
	gw, err := New(ctx, WithConfig(core.Config{}))
	if err != nil {
		t.Fatal(err)
	}
	if err := gw.AdvanceTo(10 * time.Minute); err != nil {
		t.Fatal(err)
	}
	err = gw.Ingest(event.Event{At: time.Minute, Device: 0, Value: 1})
	if err == nil {
		t.Error("regressed event accepted")
	}
}

func TestGatewayAdvanceIdempotent(t *testing.T) {
	_, ctx := trainedHome(t)
	gw, err := New(ctx, WithConfig(core.Config{}))
	if err != nil {
		t.Fatal(err)
	}
	if err := gw.AdvanceTo(5 * time.Minute); err != nil {
		t.Fatal(err)
	}
	if err := gw.AdvanceTo(5 * time.Minute); err != nil {
		t.Fatal(err)
	}
	if err := gw.AdvanceTo(3 * time.Minute); err != nil {
		t.Fatal(err)
	}
	if got := gw.Stats().Windows; got != 5 {
		t.Errorf("windows = %d, want 5", got)
	}
}

func TestWindowBuilderAdvanceTo(t *testing.T) {
	_, ctx := trainedHome(t)
	b := window.NewBuilder(ctx.Layout(), time.Minute)
	obs, err := b.AdvanceTo(3 * time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	if len(obs) != 3 {
		t.Fatalf("AdvanceTo(3m) emitted %d windows, want 3 empties", len(obs))
	}
	for i, o := range obs {
		if o.Index != i {
			t.Errorf("window %d has index %d", i, o.Index)
		}
	}
	// An event inside the open window still lands correctly.
	if _, err := b.Add(event.Event{At: 3*time.Minute + time.Second, Device: 0, Value: 1}); err != nil {
		t.Fatal(err)
	}
	// Events before the floor are rejected.
	if _, err := b.Add(event.Event{At: time.Second, Device: 0, Value: 1}); err == nil {
		t.Error("pre-floor event accepted")
	}
}

func TestGatewayWithActuatorFaultView(t *testing.T) {
	h, ctx := trainedHome(t)
	bulb, ok := h.Registry().Lookup("bulb-kitchen")
	if !ok {
		t.Fatal("no kitchen bulb")
	}
	start := 3*24*60 + 12*60
	faulty := h.WithActuatorFaults(simhome.ActuatorFaults{
		Spurious:   map[device.ID]bool{bulb: true},
		Seed:       3,
		FromMinute: start,
	})
	gw, err := New(ctx, WithConfig(core.Config{}))
	if err != nil {
		t.Fatal(err)
	}
	evts := faulty.Events(start, start+4*60)
	for _, e := range evts {
		e.At -= time.Duration(start) * time.Minute
		if err := gw.Ingest(e); err != nil {
			t.Fatal(err)
		}
	}
	if err := gw.AdvanceTo(4 * time.Hour); err != nil {
		t.Fatal(err)
	}
	if gw.Stats().Violations == 0 {
		t.Error("spurious bulb never flagged through the gateway")
	}
}
