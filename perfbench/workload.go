package main

import (
	"fmt"
	"math/rand"
	"sort"
	"time"

	"repro/internal/core"
	"repro/internal/device"
	"repro/internal/event"
	"repro/internal/simhome"
	"repro/internal/window"
)

// windowDur is the detector window every workload runs at (paper §III-B).
const windowDur = time.Minute

// size scales a workload. The full sizes are what the benchmark runs; the
// smoke test shrinks them so it finishes in seconds.
type size struct {
	homes      int // homes per workload (a multiple of 8)
	hours      int // stream hours per home
	trainHours int // training prefix per context
	minPasses  int // passes a run makes even if --seconds has elapsed
}

var fullSizes = map[string]size{
	"fleet-durable": {homes: 32, hours: 6, trainHours: 300, minPasses: 3},
	"sparse-faults": {homes: 32, hours: 72, trainHours: 300, minPasses: 3},
	"coap-devices":  {homes: 8, hours: 3, trainHours: 300, minPasses: 3},
}

// workloadNames lists the workloads in BENCHMARK.json order.
var workloadNames = []string{"fleet-durable", "sparse-faults", "coap-devices"}

// injected is one ground-truth fault: which device, from when (stream time).
type injected struct {
	dev   device.ID
	onset time.Duration
	kind  string
}

// spec is one trained-context source: its layout and the pre-generated
// training windows. Generating windows is input generation; training on
// them is set-up and is timed.
type spec struct {
	name   string
	layout *window.Layout
	train  []*window.Observation
}

// home is one tenant's generated input: its stream cut into batches, the
// stream end it advances to, and the faults injected into it.
type home struct {
	name   string
	spec   int // index into inputs.specs
	events []event.Event
	// starts[i] is the index of batch i's first event; batch i covers
	// events[starts[i]:starts[i+1]] (the last batch ends at len(events)).
	starts []int
	// phaseEnd[p] is the first batch index of round p+1: no batch spans
	// two rounds.
	phaseEnd []int
	end      time.Duration
	faults   []injected
}

func (h *home) batch(i int) []event.Event {
	hi := len(h.events)
	if i+1 < len(h.starts) {
		hi = h.starts[i+1]
	}
	return h.events[h.starts[i]:hi]
}

// inputs is everything a workload run feeds the program. It is built from
// the seed before any timing starts.
type inputs struct {
	specs     []spec
	homes     []home
	batchSize int
	// perWindow also ends a batch at every window boundary, as dice-device
	// flushes its agent at the end of each window it replays.
	perWindow bool
	maxFaults int
	durable   bool
	coap      bool
	// checkpoints are the round ends after which the durable workload
	// checkpoints.
	checkpoints []time.Duration
}

// generate builds a workload's inputs from the seed: the same seed always
// gives the same streams, contexts and fault plans.
func generate(workload string, seed int64, sz size) (*inputs, error) {
	switch workload {
	case "fleet-durable":
		return genFleet(seed, sz, true)
	case "coap-devices":
		return genFleet(seed, sz, false)
	case "sparse-faults":
		return genSparse(seed, sz)
	}
	return nil, fmt.Errorf("unknown workload %q (want one of %v)", workload, workloadNames)
}

// genFleet builds D_houseA testbed homes that share one trained context.
// Every home replays its own hour-offset slice of one simulated recording.
// A share of the homes carry a spurious or dead actuator, injected
// physically (simhome.WithActuatorFaults) so its effect reaches the
// sensors: a quarter on the durable fleet, and on the eight-home CoAP fleet
// every home, one per actuator, so that it too raises enough alerts to back
// an alert p99.
func genFleet(seed int64, sz size, durable bool) (*inputs, error) {
	sp := simhome.SpecDHouseA()
	sp.Hours = sz.trainHours + sz.homes + sz.hours + 1
	sim, err := simhome.New(sp, 1000+seed)
	if err != nil {
		return nil, err
	}
	trainW := sz.trainHours * 60
	in := &inputs{
		specs:     []spec{{name: sp.Name, layout: sim.Layout(), train: sim.WindowRange(0, trainW)}},
		batchSize: 64,
		durable:   durable,
		coap:      !durable,
	}
	if durable {
		in.checkpoints = []time.Duration{2 * time.Hour, 4 * time.Hour}
	} else {
		in.batchSize, in.perWindow = 16, true
	}
	every := 4
	if !durable {
		every = 1
	}
	// The faulty homes take the actuators in a seeded order, alternating
	// spurious and dead, so every seed faults the same mix of actuators and
	// only where, and on which household data, varies.
	rng := rand.New(rand.NewSource(seed))
	acts := sim.Registry().Actuators()
	order := rng.Perm(len(acts))
	faulty := 0
	for i := 0; i < sz.homes; i++ {
		start := trainW + i*60
		src := sim
		h := home{name: fmt.Sprintf("dhousea-%02d", i), end: time.Duration(sz.hours) * time.Hour}
		if i%every == 0 {
			dev := acts[order[faulty%len(acts)]]
			af := simhome.ActuatorFaults{Seed: seed + int64(i), FromMinute: start + 60}
			// A dead actuator only shows if it would have fired; one that
			// stays off after the onset is made spurious instead.
			kind := "actuator-spurious"
			if faulty%2 == 1 && sim.ActuatorFirings(start+60, start+sz.hours*60)[dev] > 0 {
				kind = "actuator-dead"
				af.Dead = map[device.ID]bool{dev: true}
			} else {
				af.Spurious = map[device.ID]bool{dev: true}
			}
			faulty++
			src = sim.WithActuatorFaults(af)
			h.faults = []injected{{dev: dev, onset: time.Hour, kind: kind}}
		}
		h.events = rebase(src.Events(start, start+sz.hours*60), start)
		in.homes = append(in.homes, h)
	}
	in.cut()
	return in, nil
}

// roundWindows is the stream windows every home sends per round. The
// homes move through stream time in lockstep: each round ends when every
// producer has sent its homes' next roundWindows windows and a DrainAll has
// returned. A home raises at most MaxFaults (at most 2 here) alerts a
// window, so a round fills at most 20 of its gateway's default 64 alert
// slots before the hub idles and the forwarders drain them; without the
// rounds the hub drops alerts (see hub.free_run_alerts_dropped). Rounds of
// one window raised the sparse workload's CPU per event by about half
// (about 1550 ns against 1050 on a 2-vCPU VM): the shards idle and wake
// every round.
const roundWindows = 10

// genSparse builds 8 homes each of four third-party datasets, one trained
// context per dataset, and injects event-level faults into half of them
// after the first stream hour; a quarter of the faulty homes carry two.
// Batches are cut the way dice-device sends a recording: one window's
// readings, flushed at the window's end, at most the agent's default 16
// per batch. A 64-event batch would span an hour of these sparse streams.
func genSparse(seed int64, sz size) (*inputs, error) {
	in := &inputs{batchSize: 16, perWindow: true, maxFaults: 2}
	rng := rand.New(rand.NewSource(seed))
	plan := &faultPlan{rng: rng}
	specs := []simhome.Spec{simhome.SpecHouseA(), simhome.SpecHouseB(), simhome.SpecHouseC(), simhome.SpecTwoR()}
	per := sz.homes / len(specs)
	trainW := sz.trainHours * 60
	for si, sp := range specs {
		sp.Hours = sz.trainHours + per*sz.hours + 1
		sim, err := simhome.New(sp, 2000+seed*16+int64(si))
		if err != nil {
			return nil, err
		}
		in.specs = append(in.specs, spec{name: sp.Name, layout: sim.Layout(), train: sim.WindowRange(0, trainW)})
		for j := 0; j < per; j++ {
			start := trainW + j*sz.hours*60
			h := home{
				name:   fmt.Sprintf("%s-%02d", sp.Name, j),
				spec:   si,
				events: rebase(sim.Events(start, start+sz.hours*60), start),
				end:    time.Duration(sz.hours) * time.Hour,
			}
			if j%2 == 1 {
				n := 1
				if j%4 == 3 {
					n = 2
				}
				h.events, h.faults = plan.inject(h.events, sim.Layout(), j/2, n, sp.Name == "twor")
			}
			in.homes = append(in.homes, h)
		}
	}
	in.cut()
	return in, nil
}

// rebase shifts a recording slice so the stream starts at zero.
func rebase(evts []event.Event, startMinute int) []event.Event {
	off := time.Duration(startMinute) * time.Minute
	for i := range evts {
		evts[i].At -= off
	}
	return evts
}

// cut splits every home's stream into rounds of roundWindows windows and
// batches of at most batchSize events, never letting a batch straddle two
// rounds (or, with perWindow, two windows).
func (in *inputs) cut() {
	for hi := range in.homes {
		h := &in.homes[hi]
		h.starts = h.starts[:0]
		h.phaseEnd = h.phaseEnd[:0]
		i := 0
		for lo := time.Duration(0); lo < h.end; lo += roundWindows * windowDur {
			lim := lo + roundWindows*windowDur
			if lim >= h.end {
				lim = h.end + 1 // the last round keeps events at the stream end
			}
			for i < len(h.events) && h.events[i].At < lim {
				h.starts = append(h.starts, i)
				blim := lim
				if in.perWindow {
					blim = min(lim, (h.events[i].At/windowDur+1)*windowDur)
				}
				n := 0
				for i < len(h.events) && h.events[i].At < blim && n < in.batchSize {
					i++
					n++
				}
			}
			h.phaseEnd = append(h.phaseEnd, len(h.starts))
		}
	}
}

// events counts every event the workload submits in one pass.
func (in *inputs) events() int {
	n := 0
	for _, h := range in.homes {
		n += len(h.events)
	}
	return n
}

// faultPlan injects the sparse workload's event-level faults. Fault kinds
// rotate through a fixed order, so every seed injects the same mix and only
// the devices, onsets and household data vary.
type faultPlan struct {
	rng             *rand.Rand
	binary, numeric int // faults of each family injected so far
}

var (
	binaryKinds  = []string{"fail-stop", "stuck-at", "spurious"}
	numericKinds = []string{"numeric-stuck", "numeric-spike"}
)

// inject corrupts one home's event stream the way failing devices would
// corrupt their reports, from a random onset in the second stream hour:
// fail-stop silences a sensor, stuck-at makes it report in every minute,
// spurious adds firings in minutes it was quiet. On homes with numeric
// sensors the second fault of a pair freezes or spikes a numeric sensor
// instead. Binary targets fire at least once an hour after the onset, so
// the fault is visible in the data; the rank-th faulty home of a dataset
// hits its rank-th most active sensor (the second fault rank+4), so seeds
// vary the data and the onsets but not how busy the faulted sensors are.
func (p *faultPlan) inject(evts []event.Event, layout *window.Layout, rank, n int, numerics bool) ([]event.Event, []injected) {
	end := evts[len(evts)-1].At
	onset := time.Hour + time.Duration(p.rng.Intn(60))*time.Minute
	fires := map[device.ID]int{}
	for _, e := range evts {
		if _, ok := layout.BinarySlot(e.Device); ok && e.At >= onset {
			fires[e.Device]++
		}
	}
	hours := int((end-onset)/time.Hour) + 1
	var pool []device.ID
	for id, c := range fires {
		if c >= hours {
			pool = append(pool, id)
		}
	}
	sort.Slice(pool, func(i, j int) bool {
		if fires[pool[i]] != fires[pool[j]] {
			return fires[pool[i]] > fires[pool[j]]
		}
		return pool[i] < pool[j]
	})
	var out []injected
	used := map[device.ID]bool{}
	for k := 0; k < n && k < len(pool); k++ {
		idx := (rank + 4*k) % len(pool)
		for used[pool[idx]] {
			idx = (idx + 1) % len(pool)
		}
		used[pool[idx]] = true
		f := injected{dev: pool[idx], onset: onset}
		if numerics && k == 1 && layout.NumNumeric() > 0 {
			f.dev = layout.NumericID(p.rng.Intn(layout.NumNumeric()))
			f.kind = numericKinds[p.numeric%len(numericKinds)]
			p.numeric++
		} else {
			f.kind = binaryKinds[p.binary%len(binaryKinds)]
			p.binary++
		}
		evts = applyFault(evts, f, end, p.rng)
		out = append(out, f)
	}
	return evts, out
}

// applyFault rewrites the stream for one fault and keeps it time-ordered.
func applyFault(evts []event.Event, f injected, end time.Duration, rng *rand.Rand) []event.Event {
	out := evts[:0:0]
	var stuck float64
	haveStuck := false
	fired := map[int]bool{}
	for _, e := range evts {
		if e.Device != f.dev || e.At < f.onset {
			out = append(out, e)
			continue
		}
		switch f.kind {
		case "fail-stop", "stuck-at":
			continue // stuck-at re-adds one reading per minute below
		case "spurious":
			fired[int(e.At/windowDur)] = true
		case "numeric-stuck":
			if !haveStuck {
				stuck, haveStuck = e.Value, true
			}
			e.Value = stuck
		case "numeric-spike":
			if int((e.At-f.onset)/windowDur)%5 < 2 {
				e.Value += 40
			}
		}
		out = append(out, e)
	}
	first, last := int(f.onset/windowDur), int(end/windowDur)
	for m := first; m <= last; m++ {
		at := time.Duration(m)*windowDur + 30*time.Second
		if at < f.onset || at > end {
			continue
		}
		switch {
		case f.kind == "stuck-at",
			f.kind == "spurious" && !fired[m] && rng.Float64() < 0.3:
			out = append(out, event.Event{At: at, Device: f.dev, Value: 1})
		}
	}
	event.Sort(out)
	return out
}

// train builds every context of the workload: the timed part of set-up.
func (in *inputs) train() ([]*core.Context, []time.Duration, error) {
	ctxs := make([]*core.Context, len(in.specs))
	took := make([]time.Duration, len(in.specs))
	for i, sp := range in.specs {
		t0 := time.Now()
		c, err := core.TrainWindows(sp.layout, windowDur, sp.train)
		if err != nil {
			return nil, nil, fmt.Errorf("train %s: %w", sp.name, err)
		}
		took[i] = time.Since(t0)
		ctxs[i] = c
	}
	return ctxs, took, nil
}
