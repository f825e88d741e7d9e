// Streaming: run the full simulated testbed through the live gateway — the
// deployment of Figure 3.1 — and inject a stuck-at fault mid-stream. The
// gateway ingests raw timestamped events, windows them, runs DICE online,
// and pushes an alert the moment identification concludes.
//
//	go run ./examples/streaming
package main

import (
	"fmt"
	"log"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/event"
	"repro/internal/faults"
	"repro/internal/gateway"
	"repro/internal/simhome"
	"repro/internal/window"
)

func main() {
	// Simulate the paper's testbed (6 binary, 31 numeric, 8 actuators) for
	// five days; train on the first three.
	spec := simhome.SpecDHouseA()
	spec.Hours = 5 * 24
	home, err := simhome.New(spec, 2026)
	if err != nil {
		log.Fatal(err)
	}
	const trainWindows = 3 * 24 * 60
	trainer := core.NewTrainer(home.Layout(), time.Minute)
	for w := 0; w < trainWindows; w++ {
		if err := trainer.Calibrate(home.Window(w)); err != nil {
			log.Fatal(err)
		}
	}
	if err := trainer.FinishCalibration(); err != nil {
		log.Fatal(err)
	}
	for w := 0; w < trainWindows; w++ {
		if err := trainer.Learn(home.Window(w)); err != nil {
			log.Fatal(err)
		}
	}
	ctx, err := trainer.Context()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("context: %d groups, degree %.1f, %d G2G transitions\n",
		ctx.NumGroups(), ctx.CorrelationDegree(), ctx.G2G().NumTransitions())

	gw, err := gateway.New(ctx)
	if err != nil {
		log.Fatal(err)
	}

	// Stream an afternoon; the kitchen gas sensor sticks at a wrong level
	// 45 minutes in.
	target, _ := home.Registry().Lookup("gas-kitchen")
	inj, err := faults.NewInjector(home.Layout(), 7,
		faults.Fault{Device: target, Type: faults.StuckAt, Onset: 45})
	if err != nil {
		log.Fatal(err)
	}

	start := trainWindows + 12*60 // day 3, noon
	for w := 0; w < 6*60; w++ {
		obs := inj.Apply(home.Window(start+w), w)
		for _, e := range observationEvents(home.Layout(), obs, time.Duration(w)*time.Minute) {
			if err := gw.Ingest(e); err != nil {
				log.Fatal(err)
			}
		}
		if err := gw.AdvanceTo(time.Duration(w+1) * time.Minute); err != nil {
			log.Fatal(err)
		}
		select {
		case a := <-gw.Alerts():
			names := make([]string, 0, len(a.Devices))
			for _, d := range a.Devices {
				names = append(names, d.Name)
			}
			fmt.Printf("t+%v ALERT faulty=%s cause=%s (fault injected at t+45m on gas-kitchen)\n",
				a.ReportedAt, strings.Join(names, ","), a.Cause)
			st := gw.Stats()
			fmt.Printf("gateway stats: %d events, %d windows, %d violations\n",
				st.Events, st.Windows, st.Violations)
			return
		default:
		}
	}
	fmt.Println("stream ended without an alert (the stuck level may have matched the quiet level; rerun with another seed)")
}

// observationEvents renders an observation back into raw events, as the
// device aggregators would have sent them.
func observationEvents(layout *window.Layout, o *window.Observation, base time.Duration) []event.Event {
	var out []event.Event
	for _, id := range o.Actuated {
		out = append(out, event.Event{At: base, Device: id, Value: 1})
	}
	for slot, fired := range o.Binary {
		if fired {
			out = append(out, event.Event{At: base + time.Second, Device: layout.BinaryID(slot), Value: 1})
		}
	}
	for slot, samples := range o.Numeric {
		step := time.Minute / time.Duration(len(samples)+1)
		for i, s := range samples {
			out = append(out, event.Event{At: base + time.Duration(i+1)*step, Device: layout.NumericID(slot), Value: s})
		}
	}
	return out
}
