package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sort"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/event"
	"repro/internal/gateway"
	"repro/internal/hub"
	"repro/internal/wire"
)

// producers is the number of closed-loop client goroutines (or CoAP
// connections): one per CPU of the 2-CPU box the sizes were chosen on.
const producers = 2

// alertWait bounds how long a pass waits for the forwarders to hand the
// receiver every alert the tenants report having delivered.
const alertWait = 10 * time.Second

// alertRec is one alert as the receiver saw it.
type alertRec struct {
	home int
	a    gateway.Alert
	at   time.Time
}

// receiver drains hub.Alerts() on its own goroutine, stamping each alert
// on arrival. It is the bench's one alert-receiver goroutine.
type receiver struct {
	mu   sync.Mutex
	recs []alertRec
	stop chan struct{}
	done chan struct{}
}

func startReceiver(h *hub.Hub, idx map[string]int, recs []alertRec, tr *tracer) *receiver {
	r := &receiver{recs: recs, stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(r.done)
		for {
			select {
			case a := <-h.Alerts():
				now := time.Now()
				tr.point("alert.receive", now, idx[a.Home])
				r.mu.Lock()
				r.recs = append(r.recs, alertRec{home: idx[a.Home], a: a.Alert, at: now})
				r.mu.Unlock()
			case <-r.stop:
				return
			}
		}
	}()
	return r
}

// halt stops the receiver and waits for its goroutine to exit.
func (r *receiver) halt() []alertRec {
	close(r.stop)
	<-r.done
	return r.recs
}

// await waits until want() alerts have arrived, then stops the receiver.
// want is read afresh each time, since forwarders may still be counting
// drops while the receiver waits.
func (r *receiver) await(want func() int) ([]alertRec, error) {
	deadline := time.Now().Add(alertWait)
	for {
		r.mu.Lock()
		got := len(r.recs)
		r.mu.Unlock()
		n := want()
		if got >= n || time.Now().After(deadline) {
			recs := r.halt()
			if len(recs) != n {
				return nil, fmt.Errorf("alert receiver got %d alerts, tenants delivered %d", len(recs), n)
			}
			return recs, nil
		}
		time.Sleep(time.Millisecond)
	}
}

// clock is the pass's bookkeeping, allocated before the heap baseline so
// heap_mb counts only the hub. Each home's entries are written by its one
// producer (or, for hooks, its shard worker) and read after the producers
// joined and DrainAll returned.
type clock struct {
	// submitted[i][b] is when batch b of home i went to the wire encoder
	// (the device send); accepted[i][b] is when the submit returned (the
	// ack); applied[i][b] is when the shard worker applied its first event
	// (traced passes only).
	submitted, accepted, applied [][]time.Time
	recs                         []alertRec
}

func newClock(in *inputs, alerts int) *clock {
	c := &clock{recs: make([]alertRec, 0, alerts)}
	for _, hm := range in.homes {
		c.submitted = append(c.submitted, make([]time.Time, len(hm.starts)))
		c.accepted = append(c.accepted, make([]time.Time, len(hm.starts)))
		c.applied = append(c.applied, make([]time.Time, len(hm.starts)))
	}
	return c
}

// acks is every batch's submit-to-ack time.
func (c *clock) acks() []time.Duration {
	var out []time.Duration
	for i := range c.submitted {
		for b, t := range c.submitted[i] {
			out = append(out, c.accepted[i][b].Sub(t))
		}
	}
	return out
}

// queueWaits is, per batch, the time from the submit returning until the
// shard worker applied the batch's first event.
func (c *clock) queueWaits() []time.Duration {
	var out []time.Duration
	for i := range c.applied {
		for b, t := range c.applied[i] {
			if !t.IsZero() {
				out = append(out, max(0, t.Sub(c.accepted[i][b])))
			}
		}
	}
	return out
}

// pass is what one closed-loop pass over a workload measured.
type pass struct {
	setup         time.Duration // training + hub.New + Register (+ CoAP front)
	train         []time.Duration
	register      time.Duration
	ingest        time.Duration // first submit until DrainAll returns
	checkpointAll []time.Duration
	events        int
	recover       time.Duration // hub.New over killed state until all restored
	restore       time.Duration // the Tenant.Restore calls alone
	heapBytes     float64
	acks          []time.Duration
	alertLat      []time.Duration
	queueWait     []time.Duration
	attempted     int
	failed        int
	cpu           cpuSample // process CPU over the ingest phase
	shards        []hub.ShardStat
	tenantTel     []map[string]float64
	coapStats     struct{ dropped, deduped int64 }
	alertsDropped int // free-running passes only: gateway plus hub drops
}

// checkpoints is the wall time the pass spent in CheckpointAll, whose
// checkpoint files are fsynced to the disk.
func (p *pass) checkpoints() time.Duration {
	var d time.Duration
	for _, c := range p.checkpointAll {
		d += c
	}
	return d
}

// eventsPerSec is events applied per second of ingest, not counting the
// time spent waiting on checkpoint fsyncs.
func (p *pass) eventsPerSec() float64 {
	return float64(p.events) / (p.ingest - p.checkpoints()).Seconds()
}

// cpuPerEvent is the process CPU (all threads) spent per event during
// ingest. Unlike the wall-clock figures it leaves out time the machine's
// CPUs spent on other tenants.
func (p *pass) cpuPerEvent() float64 {
	return float64(p.cpu.cpu.Nanoseconds()) / float64(p.events)
}

// runner holds what stays fixed across the passes of one run.
type runner struct {
	in       *inputs
	ref      []outcome
	alerts   int // alerts the reference raised, summed over homes
	stateDir string
	noWAL    bool // durable workload run in memory: the ledger's WAL-cost arm
	freeRun  bool // a pass without rounds, all batches at once: the alert-drop probe
	trace    bool
	tmu      sync.Mutex // guards tracers
	tracers  []*tracer
}

func newRunner(in *inputs, ref []outcome, stateDir string) *runner {
	r := &runner{in: in, ref: ref, stateDir: stateDir}
	for _, o := range ref {
		r.alerts += len(o.alerts)
	}
	return r
}

func (r *runner) durable() bool { return r.in.durable && !r.noWAL }

// hubOptions is the hub's configuration: the defaults, plus on the durable
// workload the WAL and checkpoint directories and the WAL sync policy.
func (r *runner) hubOptions(dir string) []hub.Option {
	if !r.durable() {
		return nil
	}
	return []hub.Option{
		hub.WithWALDir(filepath.Join(dir, "wal")),
		hub.WithCheckpointDir(filepath.Join(dir, "ckpt")),
		hub.WithWALSync(walPolicy),
	}
}

// runPass runs one full pass: set-up, closed-loop ingest, the oracle, and
// on the durable workload a kill and recovery.
func (r *runner) runPass(n int) (*pass, error) {
	in := r.in
	dir := filepath.Join(r.stateDir, fmt.Sprintf("pass-%d", n))
	defer os.RemoveAll(dir)
	if err := os.MkdirAll(filepath.Join(dir, "ckpt"), 0o755); err != nil {
		return nil, err
	}
	r.tracers = nil
	mainTr := r.newTracer("main")
	c := newClock(in, r.alerts)
	p := &pass{events: in.events()}
	heap0 := liveHeap()

	// Set-up: train every context, start the hub, register every home.
	t0 := time.Now()
	ctxs, took, err := in.train()
	if err != nil {
		return nil, err
	}
	p.train = took
	sp := mainTr.begin("hub.New", -1, -1)
	h, err := hub.New(r.hubOptions(dir)...)
	mainTr.end(sp)
	if err != nil {
		return nil, err
	}
	defer h.Close() // a no-op after Kill or a successful Close
	idx := make(map[string]int, len(in.homes))
	tReg := time.Now()
	for i := range in.homes {
		hm := &in.homes[i]
		idx[hm.name] = i
		opts := in.gatewayOptions()
		if r.trace {
			opts = append(opts, gateway.WithIngestHook(firstEventHook(hm, c.applied[i])))
		}
		sp := mainTr.begin("hub.Register", -1, i)
		_, err := h.Register(hm.name, ctxs[hm.spec], opts...)
		mainTr.end(sp)
		if err != nil {
			return nil, err
		}
	}
	p.register = time.Since(tReg)
	var front *hub.Front
	if in.coap {
		if front, err = hub.ServeCoAP(h, "127.0.0.1:0"); err != nil {
			return nil, err
		}
		defer front.Close()
	}
	p.setup = time.Since(t0)

	rcv := startReceiver(h, idx, c.recs, r.newTracer("receiver"))
	if err := r.ingest(h, front, c, p, mainTr); err != nil {
		rcv.halt()
		return nil, err
	}

	// The oracle: every tenant must match its solo reference exactly, with
	// no alert dropped anywhere.
	stats := make([]gateway.Stats, len(in.homes))
	delivered := 0
	for i, hm := range in.homes {
		tn, ok := h.Tenant(hm.name)
		if !ok {
			rcv.halt()
			return nil, fmt.Errorf("tenant %s vanished", hm.name)
		}
		stats[i] = tn.Stats()
		delivered += int(stats[i].Alerts)
	}
	hubDropped := func() int { return int(h.Telemetry().SnapshotMap()["dice_hub_alerts_dropped_total"]) }
	recs, err := rcv.await(func() int { return delivered - hubDropped() })
	if err != nil {
		return nil, err
	}
	if r.freeRun {
		// The probe counts the drops the oracle would fail on.
		p.alertsDropped = hubDropped()
		for _, st := range stats {
			p.alertsDropped += int(st.AlertsDropped)
		}
		return p, h.Close()
	}
	p.heapBytes = liveHeap() - heap0
	runtime.KeepAlive(h)

	got := make([]outcome, len(in.homes))
	for i := range got {
		got[i].stats = stats[i]
		tn, _ := h.Tenant(in.homes[i].name)
		p.tenantTel = append(p.tenantTel, tn.Telemetry().SnapshotMap())
	}
	for _, rec := range recs {
		got[rec.home].add(rec.a)
	}
	if d := hubDropped(); d > 0 {
		return nil, fmt.Errorf("oracle: hub dropped %d alerts", d)
	}
	if err := compare(in, r.ref, got); err != nil {
		return nil, err
	}
	p.acks = c.acks()
	p.alertLat = alertLatencies(in, recs, c)
	if r.trace && front == nil {
		// Over CoAP the ack reaches the device after the enqueue, so the
		// ack-to-apply gap is not the queue wait.
		p.queueWait = c.queueWaits()
	}
	p.shards = h.ShardStats()
	if front != nil {
		st := front.ServerStats()
		p.coapStats.dropped, p.coapStats.deduped = st.Dropped, st.Deduped
	}
	if !r.durable() {
		return p, h.Close()
	}

	// Crash and recover: the tail after the last checkpoint replays from
	// the WAL, and every tenant must come back with its pre-kill stats.
	sp = mainTr.begin("hub.Kill", -1, -1)
	h.Kill()
	mainTr.end(sp)
	t1 := time.Now()
	sp = mainTr.begin("hub.New", -1, -1)
	h2, err := hub.New(r.hubOptions(dir)...)
	mainTr.end(sp)
	if err != nil {
		return nil, err
	}
	defer h2.Kill()
	// Replay re-delivers the alerts after each home's last checkpoint; the
	// receiver keeps the forwarders from dropping them.
	rcv2 := startReceiver(h2, idx, nil, nil)
	defer rcv2.halt()
	tenants := make([]*hub.Tenant, len(in.homes))
	for i, hm := range in.homes {
		sp := mainTr.begin("hub.Register", -1, i)
		tenants[i], err = h2.Register(hm.name, ctxs[hm.spec], in.gatewayOptions()...)
		mainTr.end(sp)
		if err != nil {
			return nil, err
		}
	}
	tRestore := time.Now()
	for i, tn := range tenants {
		sp := mainTr.begin("hub.Restore", -1, i)
		err := tn.Restore()
		mainTr.end(sp)
		if err != nil {
			return nil, fmt.Errorf("restore %s: %w", in.homes[i].name, err)
		}
	}
	p.restore = time.Since(tRestore)
	p.recover = time.Since(t1)
	for i, tn := range tenants {
		if got := tn.Stats(); got != stats[i] {
			return nil, fmt.Errorf("oracle: %s recovered stats %+v, pre-kill %+v", in.homes[i].name, got, stats[i])
		}
	}
	if d := h2.Telemetry().SnapshotMap()["dice_hub_alerts_dropped_total"]; d > 0 {
		return nil, fmt.Errorf("oracle: recovered hub dropped %v alerts", d)
	}
	return p, nil
}

// ingest runs the closed-loop producers round by round, closing each round
// with a DrainAll (a CheckpointAll, which drains first, at the durable
// workload's checkpoint times), and drains the hub.
func (r *runner) ingest(h *hub.Hub, front *hub.Front, c *clock, p *pass, mainTr *tracer) error {
	var agents []*gateway.Agent
	for w := 0; front != nil && w < producers; w++ {
		ag, err := gateway.NewAgent(front.Addr())
		if err != nil {
			return err
		}
		defer ag.Close()
		agents = append(agents, ag)
	}
	var mu sync.Mutex
	cpu0 := readCPU()
	tStart := time.Now()
	phases := len(r.in.homes[0].phaseEnd)
	if r.freeRun {
		phases = 1
	}
	for ph := 0; ph < phases; ph++ {
		last := ph == phases-1
		var wg sync.WaitGroup
		for w := 0; w < producers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				tr := r.newTracer(fmt.Sprintf("producer-%d-%d", w, ph))
				var att, fail int
				if front != nil {
					att, fail = r.produceCoAP(agents[w], w, ph, last, c, tr)
				} else {
					att, fail = r.produce(h, w, ph, last, c, tr)
				}
				mu.Lock()
				p.attempted += att
				p.failed += fail
				mu.Unlock()
			}(w)
		}
		wg.Wait()
		if last {
			break
		}
		if r.durable() && slices.Contains(r.in.checkpoints, time.Duration(ph+1)*roundWindows*windowDur) {
			sp := mainTr.begin("hub.CheckpointAll", -1, -1)
			t := time.Now()
			err := h.CheckpointAll()
			p.checkpointAll = append(p.checkpointAll, time.Since(t))
			mainTr.end(sp)
			if err != nil {
				return err
			}
		} else if err := h.DrainAll(); err != nil {
			return err
		}
	}
	sp := mainTr.begin("hub.DrainAll", -1, -1)
	err := h.DrainAll()
	mainTr.end(sp)
	p.ingest = time.Since(tStart)
	p.cpu = readCPU().sub(cpu0)
	return err
}

// share is producer w's homes and, per home, the batch range [next, end)
// it sends in round ph. A free-running pass sends everything in one round.
func (r *runner) share(w, ph int) (mine, next, end []int) {
	for i := w; i < len(r.in.homes); i += producers {
		hm := &r.in.homes[i]
		first, last := 0, len(hm.starts)
		if !r.freeRun {
			if ph > 0 {
				first = hm.phaseEnd[ph-1]
			}
			last = hm.phaseEnd[ph]
		}
		mine = append(mine, i)
		next = append(next, first)
		end = append(end, last)
	}
	return mine, next, end
}

// produce is one closed-loop in-process producer: it owns every
// producers-th home and submits their batches round robin, each through the
// DWB1 codec and hub.IngestBatch, then (in the last phase) advances them to
// their stream end. The next batch goes out only when the previous call
// returned. It returns the calls attempted and failed.
func (r *runner) produce(h *hub.Hub, w, ph int, last bool, c *clock, tr *tracer) (int, int) {
	in := r.in
	mine, next, end := r.share(w, ph)
	var enc []byte
	scratch := make([]event.Event, 0, in.batchSize)
	att, fail := 0, 0
	for busy := true; busy; {
		busy = false
		for k, i := range mine {
			hm := &in.homes[i]
			b := next[k]
			if b >= end[k] {
				continue
			}
			busy = true
			next[k]++
			t0 := time.Now()
			root := tr.beginAt("submit", t0, -1, i, b)
			sp := tr.begin("wire.AppendReport", root, i)
			enc = wire.AppendReport(enc[:0], hm.batch(b))
			tr.end(sp)
			sp = tr.begin("wire.DecodeBatch", root, i)
			dec, err := wire.DecodeBatch(enc, scratch[:0])
			tr.end(sp)
			att++
			if err == nil {
				sp = tr.begin("hub.IngestBatch", root, i)
				err = h.IngestBatch(hm.name, dec.Events)
				tr.end(sp)
			}
			t1 := time.Now()
			tr.endAt(root, t1)
			c.submitted[i][b], c.accepted[i][b] = t0, t1
			if err != nil {
				fail++
			}
		}
	}
	if last {
		for _, i := range mine {
			hm := &in.homes[i]
			att++
			enc = wire.AppendAdvance(enc[:0], hm.end)
			dec, err := wire.DecodeBatch(enc, scratch[:0])
			if err == nil {
				sp := tr.begin("hub.Advance", -1, i)
				err = h.Advance(hm.name, dec.At)
				tr.end(sp)
			}
			if err != nil {
				fail++
			}
		}
	}
	return att, fail
}

// firstEventHook returns an ingest hook that stamps the moment the shard
// worker starts applying each batch: the hook runs once per event, in
// order, so every batch start index marks a batch's first event.
func firstEventHook(hm *home, stamps []time.Time) func(event.Event) error {
	n, b := 0, 0
	return func(event.Event) error {
		if b < len(hm.starts) && n == hm.starts[b] {
			stamps[b] = time.Now()
			b++
		}
		n++
		return nil
	}
}

// alertLatencies measures, for every alert whose reporting window was
// closed by a reported event, receipt minus the submit time of the batch
// holding the first event at or after ReportedAt + window. Stream time
// never enters it. The few alerts that only the final advance closes (a
// handful a pass, about the size of the 1% tail) have no such batch and
// are left out, so they do not decide the p99.
func alertLatencies(in *inputs, recs []alertRec, c *clock) []time.Duration {
	out := make([]time.Duration, 0, len(recs))
	for _, rec := range recs {
		hm := &in.homes[rec.home]
		target := rec.a.ReportedAt + windowDur
		e := sort.Search(len(hm.events), func(k int) bool { return hm.events[k].At >= target })
		if e == len(hm.events) {
			continue
		}
		b := sort.Search(len(hm.starts), func(k int) bool { return hm.starts[k] > e }) - 1
		out = append(out, rec.at.Sub(c.submitted[rec.home][b]))
	}
	return out
}

// liveHeap is the live heap after a full collection.
func liveHeap() float64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc)
}

// trainContexts is the reference's own context set: training is
// deterministic, so it equals what every pass trains.
func trainContexts(in *inputs) ([]*core.Context, error) {
	ctxs, _, err := in.train()
	return ctxs, err
}
