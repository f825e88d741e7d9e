package main

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"time"

	"repro/internal/core"
)

// traced is the --trace 1 run. It makes untraced passes (the first gives
// the end-to-end CPU cost the ledger divides up, all of them the p99
// tails), one traced pass (spans, enqueue and queue-wait times), on the
// durable workload one pass without the WAL, one free-running pass (no
// rounds) that counts dropped alerts, the single-threaded layer
// baseline, and on the CoAP workload the echo pass. It prints the ledger
// and returns the per-layer metrics.
func (r *runner) traced(out io.Writer, ctxs []*core.Context, workload string, seed int64) (*result, error) {
	in := r.in
	if _, err := r.runPass(0); err != nil { // warm-up, as in the untraced run
		return nil, err
	}
	untraced, err := r.tails()
	if err != nil {
		return nil, err
	}
	pU := untraced[0]
	r.trace = true
	pT, err := r.runPass(len(untraced) + 1)
	r.trace = false
	if err != nil {
		return nil, err
	}
	spans := r.tracers
	var pN *pass
	if in.durable {
		r.noWAL = true
		pN, err = r.runPass(len(untraced) + 2)
		r.noWAL = false
		if err != nil {
			return nil, err
		}
	}
	r.freeRun = true
	pF, err := r.runPass(len(untraced) + 3)
	r.freeRun = false
	if err != nil {
		return nil, err
	}
	lc, err := baseline(in, ctxs, r.stateDir)
	if err != nil {
		return nil, err
	}
	var echo []time.Duration
	var echoCPU time.Duration
	if in.coap {
		c0 := readCPU()
		if echo, err = r.echoRTTs(); err != nil {
			return nil, err
		}
		echoCPU = readCPU().sub(c0).cpu
	}

	ev := float64(pU.events)
	nsPer := func(d time.Duration, n int) float64 { return ratio(float64(d.Nanoseconds()), float64(n)) }
	eps := (*pass).eventsPerSec
	tel := func(p *pass, name string) float64 {
		s := 0.0
		for _, m := range p.tenantTel {
			s += m[name]
		}
		return s
	}

	m := map[string]metric{}
	put := func(name string, v float64, unit string) { m[name] = metric{v, unit} }

	var acks, alerts []time.Duration
	for _, p := range untraced {
		acks = append(acks, p.acks...)
		alerts = append(alerts, p.alertLat...)
	}
	put("e2e.ack_p99_us", quantile(scaled(acks, time.Microsecond), 0.99), "us")
	put("e2e.alert_p99_ms", quantile(scaled(alerts, time.Millisecond), 0.99), "ms")
	put("wire.decode_ns_per_event", nsPer(lc.wireDecode, lc.events), "ns")
	put("wire.bytes_per_event", ratio(float64(lc.wireBytes), float64(lc.events)), "B")

	// Layers a workload does not use read 0.
	echoP50, frontP50 := 0.0, 0.0
	if in.coap {
		echoP50 = quantile(scaled(echo, time.Microsecond), 0.5)
		frontP50 = quantile(scaled(acks, time.Microsecond), 0.5) - echoP50
	}
	put("coap.echo_rtt_p50_us", echoP50, "us")
	put("coap.front_p50_us", frontP50, "us")
	put("coap.dropped", float64(pU.coapStats.dropped), "count")
	put("coap.deduped", float64(pU.coapStats.deduped), "count")

	enq := scaled(durations(spans, "hub.IngestBatch"), time.Microsecond)
	qw := scaled(pT.queueWait, time.Microsecond)
	put("hub.enqueue_p50_us", quantile(enq, 0.5), "us")
	put("hub.enqueue_p99_us", quantile(enq, 0.99), "us")
	put("hub.queue_wait_p50_us", quantile(qw, 0.5), "us")
	put("hub.queue_wait_p99_us", quantile(qw, 0.99), "us")
	var ops, maxOps, shed float64
	for _, s := range pU.shards {
		ops += float64(s.Ops)
		maxOps = max(maxOps, float64(s.Ops))
		shed += float64(s.Shed)
	}
	put("hub.shard_ops_skew", ratio(maxOps*float64(len(pU.shards)), ops), "ratio")
	put("hub.shed", shed, "count")
	put("hub.checkpoint_all_ms", mean(scaled(pU.checkpointAll, time.Millisecond)), "ms")
	put("hub.register_ms_per_home", float64(pU.register)/float64(time.Millisecond)/float64(len(in.homes)), "ms")
	put("hub.restore_ms_per_home", float64(pU.restore)/float64(time.Millisecond)/float64(len(in.homes)), "ms")
	put("hub.recover_s", pU.recover.Seconds(), "s")
	put("hub.free_run_alerts_dropped", float64(pF.alertsDropped), "count")

	put("gateway.ingest_ns_per_event", nsPer(lc.gwIngest, lc.events), "ns")
	put("gateway.recover_ns_per_record", nsPer(lc.gwRecover, lc.gwRecords), "ns")
	put("gateway.checkpoint_write_ms", ratio(float64(lc.ckptWrite)/float64(time.Millisecond), float64(lc.ckpts)), "ms")
	put("gateway.checkpoint_bytes", ratio(float64(lc.ckptBytes), float64(lc.ckpts)), "B")

	put("wal.append_ns_per_record", nsPer(lc.walAppend, lc.walRecords), "ns")
	put("wal.bytes_per_event", tel(pU, "dice_wal_append_bytes_total")/ev, "B")
	put("wal.syncs_per_kevent", 1000*tel(pU, "dice_wal_syncs_total")/ev, "count")
	put("wal.replay_ns_per_record", nsPer(lc.walReplay, lc.walRecords), "ns")
	put("wal.open_ms_per_home", float64(lc.walOpen)/float64(time.Millisecond)/float64(len(in.homes)), "ms")

	put("window.add_ns_per_event", nsPer(lc.windowAdd, lc.events), "ns")
	put("window.events_per_window", ratio(float64(lc.events), float64(lc.windows)), "count")

	prec, rec := score(in, r.ref)
	var trainMS []float64
	for _, d := range pU.train {
		trainMS = append(trainMS, float64(d)/float64(time.Millisecond))
	}
	put("core.process_clean_ns", nsPer(lc.clean, lc.nClean), "ns")
	put("core.process_open_ns", nsPer(lc.open, lc.nOpen), "ns")
	put("core.process_episode_ns", nsPer(lc.episode, lc.nEpisode), "ns")
	put("core.exact_hit_ratio", ratio(lc.exactHits, lc.scans), "ratio")
	put("core.windows_per_alert", ratio(float64(lc.windows), float64(lc.alerts)), "count")
	put("core.train_ms", mean(trainMS), "ms")
	put("core.ident_precision", prec, "ratio")
	put("core.ident_recall", rec, "ratio")

	put("runtime.allocs_per_event", pU.cpu.allocs/ev, "count")
	put("runtime.gc_cpu_fraction", ratio(pU.cpu.gc, pU.cpu.cpu.Seconds()), "ratio")

	// The ledger: the CPU each layer's baseline section took per event
	// (GC its allocations caused included) next to the CPU the whole
	// process spent per event during ingest. The gateway row is the solo
	// gateway's own share: its CPU minus the wal, window and core rows. The
	// coap row is the echo pass less the wire encode inside Agent.Flush,
	// which the wire row already counts.
	e2e := nsPer(pU.cpu.cpu, pU.events)
	wireNS := nsPer(lc.cpuWire, lc.events)
	encodeNS := wireNS * ratio(float64(lc.wireEncode), float64(lc.wireEncode+lc.wireDecode))
	walNS := nsPer(lc.cpuWAL, lc.events)
	windowNS := nsPer(lc.cpuWindow, lc.events)
	coreNS := nsPer(lc.cpuCore, lc.events)
	rows := []ledgerRow{
		{"wire", wireNS},
		{"coap", max(0, nsPer(echoCPU, lc.events)-encodeNS)},
		{"wal", walNS},
		{"window", windowNS},
		{"core", coreNS},
		{"gateway", max(0, nsPer(lc.cpuGateway, lc.events)-walNS-windowNS-coreNS)},
	}
	covered := 0.0
	for _, row := range rows {
		covered += row.NS
	}
	unaccounted := ratio(e2e-covered, e2e)
	walCost := 0.0
	if pN != nil {
		walCost = 1 - eps(pU)/eps(pN)
	}
	overhead := 1 - eps(pT)/eps(pU)
	put("ledger.e2e_cpu_ns_per_event", e2e, "ns")
	put("ledger.unaccounted_share", unaccounted, "ratio")
	put("ledger.wal_cost_share", walCost, "ratio")
	put("ledger.trace_overhead_share", overhead, "ratio")

	rep := ledger{
		Workload: workload, Seed: seed, E2ECPUNsPerEvent: e2e, GCNsPerEvent: pU.cpu.gc * 1e9 / ev, Rows: rows,
		UnaccountedShare: unaccounted, WALCostShare: walCost, TraceOverheadShare: overhead,
		FreeRunDropped: pF.alertsDropped, FreeRunAlerts: r.alerts,
		EventsPerSec: eps(pU), TracedEventsPerSec: eps(pT),
	}
	if pN != nil {
		rep.NoWALEventsPerSec = eps(pN)
	}
	rep.print(out)
	if err := os.MkdirAll(traceRoot, 0o755); err != nil {
		return nil, err
	}
	if err := writeSpans(filepath.Join(traceRoot, fmt.Sprintf("%s-seed%d.spans.jsonl", workload, seed)), spans); err != nil {
		return nil, err
	}
	res := &result{Correct: true, Metrics: m}
	for _, p := range append(untraced, pT, pN, pF) {
		if p != nil {
			res.Attempted += p.attempted
			res.Failed += p.failed
		}
	}
	return res, nil
}

// maxTailPasses caps how many untraced passes tails runs.
const maxTailPasses = 10

// tails runs untraced passes until they hold at least 1000 acks and 1000
// timed alerts, so each p99 has ten samples beyond it (or until
// maxTailPasses).
func (r *runner) tails() ([]*pass, error) {
	var ps []*pass
	acks, alerts := 0, 0
	for len(ps) == 0 || (acks < 1000 || alerts < 1000) && len(ps) < maxTailPasses {
		p, err := r.runPass(len(ps) + 1)
		if err != nil {
			return nil, err
		}
		ps = append(ps, p)
		acks += len(p.acks)
		alerts += len(p.alertLat)
	}
	return ps, nil
}

type ledgerRow struct {
	Layer string
	NS    float64
}

// ledger is the traced run's account of where the ingest CPU went.
type ledger struct {
	Workload           string
	Seed               int64
	E2ECPUNsPerEvent   float64
	GCNsPerEvent       float64
	Rows               []ledgerRow
	UnaccountedShare   float64
	EventsPerSec       float64
	TracedEventsPerSec float64
	TraceOverheadShare float64
	NoWALEventsPerSec  float64
	WALCostShare       float64
	// FreeRunDropped is the alerts the free-running pass dropped out of
	// FreeRunAlerts raised.
	FreeRunDropped, FreeRunAlerts int
}

func (l *ledger) print(w io.Writer) {
	fmt.Fprintf(w, "ledger %s seed %d: CPU ns per event during ingest\n", l.Workload, l.Seed)
	fmt.Fprintf(w, "  %-12s %10.1f\n", "end-to-end", l.E2ECPUNsPerEvent)
	for _, r := range l.Rows {
		fmt.Fprintf(w, "  %-12s %10.1f  %5.1f%%\n", r.Layer, r.NS, 100*ratio(r.NS, l.E2ECPUNsPerEvent))
	}
	fmt.Fprintf(w, "  %-12s %10.1f  %5.1f%%  (hub routing, scheduling, bench producers)\n", "unaccounted",
		l.UnaccountedShare*l.E2ECPUNsPerEvent, 100*l.UnaccountedShare)
	fmt.Fprintf(w, "  of which GC  %10.1f  %5.1f%%  (runtime, across all rows)\n", l.GCNsPerEvent, 100*ratio(l.GCNsPerEvent, l.E2ECPUNsPerEvent))
	fmt.Fprintf(w, "  events/s untraced %.0f, traced %.0f (tracing overhead %.1f%%)\n",
		l.EventsPerSec, l.TracedEventsPerSec, 100*l.TraceOverheadShare)
	if l.NoWALEventsPerSec > 0 {
		fmt.Fprintf(w, "  events/s with WAL %.0f, without %.0f (WAL cost %.1f%%)\n",
			l.EventsPerSec, l.NoWALEventsPerSec, 100*l.WALCostShare)
	}
	fmt.Fprintf(w, "  alerts dropped without rounds: %d of %d\n", l.FreeRunDropped, l.FreeRunAlerts)
}
