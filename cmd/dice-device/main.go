// Command dice-device is a simulated device aggregator: it replays a slice
// of a dataset as live CoAP traffic against a dice-gateway, optionally
// corrupting one device's readings with an injected fault.
//
// Usage:
//
//	dice-device -data ./data/D_houseA -gateway 127.0.0.1:5683
//	            [-from 300] [-hours 6] [-speed 600]
//	            [-fault fail-stop:light-kitchen:60]
//	            [-chaos seed=42,drop=0.1,dup=0.05,reorder=0.02,delay=5ms]
//	            [-retries 4]
//
// Readings go out as DWB1 batch payloads (internal/wire), 16 per POST.
//
// -speed is the replay acceleration (600 = one recorded hour per six wall
// seconds; 0 = as fast as possible). -chaos wraps the CoAP link with
// seeded fault injection (drop/dup/reorder/corrupt/delay, both directions
// for drop and corrupt) to exercise the gateway's dedup and the client's
// retransmission under a lossy link.
package main

import (
	"flag"
	"fmt"
	"net"
	"os"
	"strconv"
	"strings"
	"time"

	"repro/internal/chaos"
	"repro/internal/dataset"
	"repro/internal/event"
	"repro/internal/faults"
	"repro/internal/gateway"
	"repro/internal/window"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "dice-device:", err)
		os.Exit(1)
	}
}

func run() error {
	dataDir := flag.String("data", "", "dataset directory (required)")
	gwAddr := flag.String("gateway", "127.0.0.1:5683", "gateway CoAP address")
	from := flag.Int("from", 300, "replay start, hours from recording start")
	hours := flag.Int("hours", 6, "replay length in hours")
	speed := flag.Float64("speed", 0, "replay acceleration factor (0 = no pacing)")
	faultSpec := flag.String("fault", "", "inject CLASS:DEVICE:ONSETMIN into the replay")
	chaosSpec := flag.String("chaos", "", "inject transport faults, e.g. seed=42,drop=0.1,dup=0.05")
	homeID := flag.String("home", "", "tenant home ID behind a multi-home hub (reports to /report/<home>)")
	retries := flag.Int("retries", 0, "reissue a timed-out exchange up to N times with exponential backoff + jitter")
	flag.Parse()

	if *dataDir == "" {
		return fmt.Errorf("-data is required")
	}
	ds, err := dataset.Load(*dataDir)
	if err != nil {
		return err
	}
	var inj *faults.Injector
	if *faultSpec != "" {
		inj, err = parseFault(ds, *faultSpec)
		if err != nil {
			return err
		}
	}

	var agent *gateway.Agent
	var link *chaos.Conn
	if *chaosSpec != "" {
		cfg, err := chaos.ParseSpec(*chaosSpec)
		if err != nil {
			return err
		}
		conn, err := net.Dial("udp", *gwAddr)
		if err != nil {
			return err
		}
		link = chaos.WrapConn(conn, cfg)
		agent = gateway.NewAgentConn(link)
		// A chaotic link needs a tighter retransmission schedule than the
		// RFC default (or a single dropped ACK stalls the replay for 2s) and
		// a per-request budget that fits the whole backoff ladder: a long
		// replay makes even 5-sigma loss streaks on one exchange likely.
		agent.Client().AckTimeout = 100 * time.Millisecond
		agent.Client().MaxRetransmit = 10
		agent.Timeout = 30 * time.Second
	} else {
		agent, err = gateway.NewAgent(*gwAddr)
		if err != nil {
			return err
		}
	}
	agent.Home = *homeID
	agent.Retries = *retries
	defer agent.Close()

	obs, err := ds.Windows()
	if err != nil {
		return err
	}
	start := *from * 60
	end := start + *hours*60
	if end > len(obs) {
		end = len(obs)
	}
	if start >= len(obs) {
		return fmt.Errorf("replay start beyond recording")
	}

	fmt.Fprintf(os.Stderr, "replaying windows %d..%d to %s\n", start, end, *gwAddr)
	wallStart := time.Now()
	for w := start; w < end; w++ {
		o := obs[w]
		if inj != nil {
			o = inj.Apply(o, w-start)
		}
		streamBase := time.Duration(w-start) * time.Minute
		for _, e := range windowEvents(ds, o, streamBase) {
			if err := agent.Report(e); err != nil {
				return err
			}
		}
		if err := agent.Advance(streamBase + time.Minute); err != nil {
			return err
		}
		if *speed > 0 {
			elapsed := time.Duration(float64(streamBase+time.Minute) / *speed)
			if sleep := time.Until(wallStart.Add(elapsed)); sleep > 0 {
				time.Sleep(sleep)
			}
		}
	}
	st, err := agent.Stats()
	if err != nil {
		return err
	}
	fmt.Printf("replay done: gateway saw %d events, %d windows, %d violations, %d alerts\n",
		st.Events, st.Windows, st.Violations, st.Alerts)
	if link != nil {
		cs := link.Stats()
		fmt.Printf("chaos link: %d sent, %d delivered, %d dropped, %d duplicated, %d reordered, %d corrupted\n",
			cs.Sent, cs.Delivered, cs.Dropped, cs.Dups, cs.Reordered, cs.Corrupted)
	}
	return nil
}

// windowEvents renders one observation as wire events relative to the
// stream clock.
func windowEvents(ds *dataset.Dataset, o *window.Observation, base time.Duration) []event.Event {
	var out []event.Event
	for _, id := range o.Actuated {
		out = append(out, event.Event{At: base, Device: id, Value: 1})
	}
	for slot, fired := range o.Binary {
		if fired {
			out = append(out, event.Event{At: base + time.Second, Device: ds.Layout.BinaryID(slot), Value: 1})
		}
	}
	for slot, samples := range o.Numeric {
		step := time.Minute / time.Duration(len(samples)+1)
		for i, s := range samples {
			out = append(out, event.Event{
				At:     base + time.Duration(i+1)*step,
				Device: ds.Layout.NumericID(slot),
				Value:  s,
			})
		}
	}
	return out
}

func parseFault(ds *dataset.Dataset, spec string) (*faults.Injector, error) {
	parts := strings.Split(spec, ":")
	if len(parts) != 3 {
		return nil, fmt.Errorf("bad -fault %q, want CLASS:DEVICE:ONSETMIN", spec)
	}
	var class faults.Type
	for _, t := range append(faults.SensorTypes(), faults.ActuatorTypes()...) {
		if t.String() == parts[0] {
			class = t
		}
	}
	if class == 0 {
		return nil, fmt.Errorf("unknown fault class %q", parts[0])
	}
	id, ok := ds.Registry.Lookup(parts[1])
	if !ok {
		return nil, fmt.Errorf("unknown device %q", parts[1])
	}
	onset, err := strconv.Atoi(parts[2])
	if err != nil {
		return nil, fmt.Errorf("bad onset %q: %w", parts[2], err)
	}
	return faults.NewInjector(ds.Layout, 1, faults.Fault{Device: id, Type: class, Onset: onset})
}
