// Package hub multiplexes many homes behind one gateway process. Each
// registered home (a tenant) owns a private gateway.Gateway — its own
// trained context, detector, window builder, and telemetry registry — and
// the hub routes ingress to it over a sharded worker pool: a home is pinned
// to a shard by consistent hash, each shard is one goroutine draining a
// bounded queue, so events for one home are always applied in arrival
// order while different homes proceed in parallel. Detection output is
// identical to running each home on its own gateway; the hub adds routing,
// lifecycle (register / evict / idle eviction), per-tenant checkpoints,
// and a merged metrics exposition where every per-tenant series carries a
// home label.
package hub

import (
	"context"
	"errors"
	"fmt"
	"hash/fnv"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/event"
	"repro/internal/gateway"
	"repro/internal/telemetry"
	"repro/internal/wal"
)

// ErrDeadline is returned by Ingest, IngestBatch and Advance when an
// ingest deadline is configured and the shard queue stayed full for its
// whole duration.
var ErrDeadline = errors.New("hub: ingest deadline exceeded, event shed")

// ErrClosed is returned by every operation on a closed hub.
var ErrClosed = errors.New("hub: closed")

// ErrUnknownHome wraps the home ID in errors for unregistered tenants.
var ErrUnknownHome = errors.New("hub: unknown home")

// TenantAlert is a gateway alert tagged with the home it came from.
type TenantAlert struct {
	Home string `json:"home"`
	gateway.Alert
}

// Hub metric names. Per-tenant pipeline series keep their dice_gateway_*
// (and dice_detector_*, dice_windows_*, dice_coap_*) names and gain a home
// label at exposition time; the dice_hub_* series below are the hub's own.
const (
	metricHubTenants       = "dice_hub_tenants"
	metricHubQueueDepth    = "dice_hub_shard_queue_depth"
	metricHubShed          = "dice_hub_shard_shed_total"
	metricHubOps           = "dice_hub_shard_ops_total"
	metricHubEvictions     = "dice_hub_evictions_total"
	metricHubRebalances    = "dice_hub_rebalances_total"
	metricHubAlertsDropped = "dice_hub_alerts_dropped_total"
	metricHubIngestErrors  = "dice_hub_ingest_errors_total"
	metricHubPanics        = "dice_hub_panics_total"
	metricHubRestarts      = "dice_hub_restarts_total"
	metricHubQuarantined   = "dice_hub_quarantined"
	metricHubDroppedOps    = "dice_hub_dropped_ops_total"
	metricHubDeadlineSheds = "dice_hub_degraded_sheds_total"
	metricHubCorruptCkpts  = "dice_hub_corrupt_checkpoints_total"
	metricHubBreakerTrips  = "dice_hub_breaker_trips_total"
)

type hubMetrics struct {
	tenants       *telemetry.Gauge
	evictions     *telemetry.Counter
	rebalances    *telemetry.Counter
	alertsDropped *telemetry.Counter
	ingestErrors  *telemetry.Counter
	panics        *telemetry.Counter
	restarts      *telemetry.Counter
	quarantined   *telemetry.Gauge
	droppedOps    *telemetry.Counter
	deadlineSheds *telemetry.Counter
	corruptCkpts  *telemetry.Counter
	breakerTrips  *telemetry.Counter
}

func newHubMetrics(reg *telemetry.Registry) hubMetrics {
	return hubMetrics{
		tenants:       reg.Gauge(metricHubTenants, "Homes currently registered with the hub."),
		evictions:     reg.Counter(metricHubEvictions, "Tenants evicted (explicitly or by idle timeout)."),
		rebalances:    reg.Counter(metricHubRebalances, "Shard pool resizes."),
		alertsDropped: reg.Counter(metricHubAlertsDropped, "Tenant alerts dropped because the hub buffer was full when Close or Kill began."),
		ingestErrors:  reg.Counter(metricHubIngestErrors, "Shard ops rejected by a tenant gateway."),
		panics:        reg.Counter(metricHubPanics, "Tenant dispatch panics caught by the supervisor."),
		restarts:      reg.Counter(metricHubRestarts, "Tenant gateways rebuilt from durable state after a panic."),
		quarantined:   reg.Gauge(metricHubQuarantined, "Tenants currently quarantined."),
		droppedOps:    reg.Counter(metricHubDroppedOps, "Ops dropped because their tenant was quarantined."),
		deadlineSheds: reg.Counter(metricHubDeadlineSheds, "Data ops shed by the ingest deadline."),
		corruptCkpts:  reg.Counter(metricHubCorruptCkpts, "Checkpoints rejected by the checksum envelope (cold start + WAL replay instead)."),
		breakerTrips:  reg.Counter(metricHubBreakerTrips, "Times a tenant's restart circuit breaker opened."),
	}
}

// opKind discriminates shard queue entries.
type opKind uint8

const (
	// opIngestBatch applies a batch of events in one gateway call (one WAL
	// append, one lock acquisition). Its events live in a hub-pooled slice
	// the worker recycles after apply.
	opIngestBatch opKind = iota
	opAdvance
	opBarrier
	// opStall parks the worker until done is closed by the sender — the
	// inverse of a barrier. Only tests enqueue it, to fill a queue
	// deterministically and observe shedding.
	opStall
)

// op is one unit of shard work. Barriers carry a done channel the worker
// closes when it reaches them; because a queue is FIFO, a barrier's close
// proves every op enqueued before it has been applied.
type op struct {
	t    *tenant
	kind opKind
	evs  *[]event.Event // opIngestBatch only; hub-pooled, worker-recycled
	at   time.Duration
	done chan struct{}
}

// batchPool recycles the event slices batch ops travel in. The front's
// decode scratch belongs to internal/wire's pool and is returned as soon as
// the enqueue copy is taken, because shard ops apply asynchronously — the
// hub must own the memory it queues.
var batchPool = sync.Pool{
	New: func() any {
		s := make([]event.Event, 0, 256)
		return &s
	},
}

// shard is one worker: a bounded op queue, the goroutine draining it, and
// its slice of the hub's per-shard instruments.
type shard struct {
	id     int
	ops    chan op
	done   chan struct{} // closed when the worker exits
	depth  *telemetry.Gauge
	shed   *telemetry.Counter
	opsCnt *telemetry.Counter
}

// tenant is the hub's private per-home state around the public gateway.
type tenant struct {
	home   string
	tel    *telemetry.Registry
	cpPath string

	// Rebuild inputs: after a panic the supervisor reconstructs the
	// gateway from the same trained context, resolved options (which embed
	// the telemetry registry, WAL, and dead-letter sink), and durable state.
	cctx   *core.Context
	gwOpts []gateway.Option
	wl     *wal.Log
	dl     *wal.DeadLetter

	// gw is the live gateway, swapped atomically on supervised restart so
	// shard workers and HTTP readers never see a torn pipeline.
	gw atomic.Pointer[gateway.Gateway]

	// restore runs at most once, on the first shard op (or the first
	// checkpoint/evict if no op ever arrives): lazy loading keeps hub
	// startup O(1) in tenants with checkpoints on disk.
	restore    sync.Once
	restoreErr error

	// lastOp is wall-clock nanos of the last applied op (or of Register),
	// for idle eviction; ops stamp it only when idle eviction is on.
	lastOp atomic.Int64

	// Supervision state: health is the stored state machine position,
	// suspect marks in-memory gateway state that must never be
	// checkpointed (set on panic, cleared by a successful restart), and
	// panicTimes is the circuit breaker's strike record (guarded by sup).
	health     atomic.Int32
	suspect    atomic.Bool
	panicTimes []time.Time

	// lastShed is wall-clock nanos of the last event the ingest deadline
	// cost this tenant; it drives HealthDegraded.
	lastShed atomic.Int64

	// sup serializes supervised restart against eviction.
	sup sync.Mutex
}

// gateway returns the tenant's live gateway.
func (t *tenant) gateway() *gateway.Gateway { return t.gw.Load() }

func (t *tenant) ensureRestored(h *Hub) error {
	t.restore.Do(func() { t.restoreErr = h.restoreGateway(t, t.gateway()) })
	return t.restoreErr
}

// restoreGateway loads the tenant's durable state into gw: the on-disk
// checkpoint if a valid one exists — a file that fails its checksum
// envelope is counted and treated as absent (cold start), per the
// corruption contract — followed by WAL replay of everything past it.
func (h *Hub) restoreGateway(t *tenant, gw *gateway.Gateway) error {
	if t.cpPath != "" {
		if _, serr := os.Stat(t.cpPath); serr == nil {
			cp, err := gateway.ReadCheckpoint(t.cpPath)
			switch {
			case errors.Is(err, gateway.ErrCorruptCheckpoint):
				h.met.corruptCkpts.Inc()
			case err != nil:
				return err
			case cp.Home != "" && cp.Home != t.home:
				return fmt.Errorf("hub: checkpoint %s belongs to home %q, not %q", t.cpPath, cp.Home, t.home)
			default:
				if err := gw.RestoreCheckpoint(cp); err != nil {
					return err
				}
			}
		} else if !errors.Is(serr, fs.ErrNotExist) {
			return serr
		}
	}
	return gw.RecoverWAL()
}

// Tenant is the public handle to one registered home.
type Tenant struct {
	h *Hub
	t *tenant
}

// Home returns the tenant's home ID.
func (tn *Tenant) Home() string { return tn.t.home }

// Stats snapshots the tenant gateway's counters. Queued-but-unapplied
// shard ops are not yet reflected; Drain first for a settled view.
func (tn *Tenant) Stats() gateway.Stats { return tn.t.gateway().Stats() }

// LastAlert returns the tenant's most recent alert with its Explain trace.
func (tn *Tenant) LastAlert() (gateway.Alert, bool) { return tn.t.gateway().LastAlert() }

// Liveness snapshots the tenant's silence tracker.
func (tn *Tenant) Liveness() []gateway.DeviceLiveness { return tn.t.gateway().Liveness() }

// ContextInfo snapshots the tenant's active context version and, when the
// gateway runs with adaptation, its online-adaptation progress.
func (tn *Tenant) ContextInfo() gateway.ContextInfo { return tn.t.gateway().ContextInfo() }

// Telemetry returns the tenant's private registry — the series that show
// up under this tenant's home label on the hub's merged /metrics.
func (tn *Tenant) Telemetry() *telemetry.Registry { return tn.t.tel }

// Option configures a Hub at construction.
type Option func(*options)

type options struct {
	shards         int
	queueDepth     int
	alertBuf       int
	cpPath         func(home string) string
	cpInterval     time.Duration
	idle           time.Duration
	walDir         string
	walSync        wal.SyncPolicy
	maxPanics      int
	panicWindow    time.Duration
	restartBackoff time.Duration
	ingestDeadline time.Duration
}

// WithShards sets the worker pool size (default 4). Any positive count
// produces identical per-home detection output; shards only set how many
// homes make progress concurrently.
func WithShards(n int) Option {
	return func(o *options) { o.shards = n }
}

// WithQueueDepth bounds each shard's op queue (default 256). Ingest blocks
// on a full queue (backpressure), for at most WithIngestDeadline if set.
func WithQueueDepth(n int) Option {
	return func(o *options) { o.queueDepth = n }
}

// WithAlertBuffer sets the hub alert channel capacity (default 256). A
// full buffer blocks the shard worker that raised the next alert until the
// consumer catches up, so ops queued behind it wait too; alerts are dropped
// (counted) only when Close or Kill begins while a send is blocked.
func WithAlertBuffer(n int) Option {
	return func(o *options) { o.alertBuf = n }
}

// WithCheckpointDir persists each tenant to dir/<home>.ckpt: written
// atomically on checkpoint ticks, eviction, and Close; restored lazily on
// the tenant's first op after registration.
func WithCheckpointDir(dir string) Option {
	return func(o *options) {
		o.cpPath = func(home string) string { return filepath.Join(dir, home+".ckpt") }
	}
}

// WithCheckpointPaths overrides the home→file mapping — e.g. to keep one
// legacy single-home checkpoint path working behind the hub.
func WithCheckpointPaths(fn func(home string) string) Option {
	return func(o *options) { o.cpPath = fn }
}

// WithCheckpointInterval makes Run write all tenant checkpoints every d;
// zero (the default) checkpoints only on eviction and Close.
func WithCheckpointInterval(d time.Duration) Option {
	return func(o *options) { o.cpInterval = d }
}

// WithIdleEviction makes Run evict tenants that have had no shard ops for
// d (final checkpoint included); zero (the default) never evicts. An
// evicted home re-registers on demand and resumes from its checkpoint.
func WithIdleEviction(d time.Duration) Option {
	return func(o *options) { o.idle = d }
}

// WithWALDir gives every tenant a write-ahead log under dir/<home>/: ops
// append (per the sync policy) before they mutate detector state, restarts
// replay the tail past the last checkpoint, and a successful checkpoint
// truncates the covered segments. With both a checkpoint dir and a WAL
// dir, a hard kill at any instant loses nothing. Dead-letter files land at
// dir/<home>.dead.jsonl.
func WithWALDir(dir string) Option {
	return func(o *options) { o.walDir = dir }
}

// WithWALSync sets the WAL fsync policy (default wal.SyncBatch) — the
// durability/throughput trade-off of the -fsync flag.
func WithWALSync(p wal.SyncPolicy) Option {
	return func(o *options) { o.walSync = p }
}

// WithSupervision tunes the per-tenant circuit breaker: maxPanics caught
// panics within window open the breaker, leaving the tenant quarantined
// instead of restarting it again. Defaults: 5 panics in 1 minute.
func WithSupervision(maxPanics int, window time.Duration) Option {
	return func(o *options) {
		o.maxPanics = maxPanics
		o.panicWindow = window
	}
}

// WithRestartBackoff sets the base delay before a quarantined tenant is
// rebuilt (default 250ms); each strike within the breaker window doubles
// it, capped at 30s.
func WithRestartBackoff(d time.Duration) Option {
	return func(o *options) { o.restartBackoff = d }
}

// WithIngestDeadline bounds how long a data op (Ingest, IngestBatch,
// Advance) may wait on a full shard queue before it is shed: the call
// returns ErrDeadline instead of blocking forever, and the tenant reports
// HealthDegraded for a while. Zero (the default) preserves pure
// backpressure semantics.
func WithIngestDeadline(d time.Duration) Option {
	return func(o *options) { o.ingestDeadline = d }
}

// Hub owns N tenants and the shard pool that feeds them.
type Hub struct {
	mu      sync.RWMutex // guards tenants, evicted, shards, closed
	tenants map[string]*tenant
	evicted map[string]bool // homes this instance evicted, for /health
	shards  []*shard
	closed  bool

	alerts chan TenantAlert
	// stopping is closed when Close or Kill begins, releasing alert sends
	// blocked on a full buffer so the shards can drain.
	stopping     chan struct{}
	stoppingOnce sync.Once
	tel          *telemetry.Registry
	met          hubMetrics
	o            options

	// killed models a SIGKILL for crash drills: once set, workers discard
	// queued data ops (a real kill would lose them too) and Kill closes the
	// WALs without a final checkpoint, so recovery must come from the
	// durable state exactly as it would after a process death.
	killed atomic.Bool
}

// New builds an empty hub; homes arrive via Register.
func New(opts ...Option) (*Hub, error) {
	var o options
	for _, opt := range opts {
		opt(&o)
	}
	if o.shards <= 0 {
		o.shards = 4
	}
	if o.queueDepth <= 0 {
		o.queueDepth = 256
	}
	if o.alertBuf <= 0 {
		o.alertBuf = 256
	}
	if o.maxPanics <= 0 {
		o.maxPanics = 5
	}
	if o.panicWindow <= 0 {
		o.panicWindow = time.Minute
	}
	if o.restartBackoff <= 0 {
		o.restartBackoff = 250 * time.Millisecond
	}
	tel := telemetry.NewRegistry()
	h := &Hub{
		tenants:  make(map[string]*tenant),
		evicted:  make(map[string]bool),
		alerts:   make(chan TenantAlert, o.alertBuf),
		stopping: make(chan struct{}),
		tel:      tel,
		met:      newHubMetrics(tel),
		o:        o,
	}
	h.shards = h.startShards(o.shards)
	return h, nil
}

// startShards builds and starts n workers. Per-shard instruments are
// get-or-create by label, so resizing back to a previous count reuses the
// same series.
func (h *Hub) startShards(n int) []*shard {
	shards := make([]*shard, n)
	for i := range shards {
		lbl := strconv.Itoa(i)
		s := &shard{
			id:     i,
			ops:    make(chan op, h.o.queueDepth),
			done:   make(chan struct{}),
			depth:  h.tel.LabeledGauge(metricHubQueueDepth, "Ops queued (or blocked enqueuing) per shard.", "shard", lbl),
			shed:   h.tel.LabeledCounter(metricHubShed, "Data ops shed because the shard queue stayed full past the ingest deadline.", "shard", lbl),
			opsCnt: h.tel.LabeledCounter(metricHubOps, "Ops applied per shard.", "shard", lbl),
		}
		shards[i] = s
		go h.worker(s)
	}
	return shards
}

// worker drains one shard queue until the queue is closed (Resize/Close).
func (h *Hub) worker(s *shard) {
	defer close(s.done)
	for o := range s.ops {
		s.depth.Add(-1)
		s.opsCnt.Inc()
		if h.killed.Load() && o.kind != opBarrier && o.kind != opStall {
			// Post-kill: queued data ops vanish, exactly as they would have
			// inside a process that took SIGKILL mid-flight.
			if o.kind == opIngestBatch {
				*o.evs = (*o.evs)[:0]
				batchPool.Put(o.evs)
			}
			continue
		}
		switch o.kind {
		case opBarrier:
			close(o.done)
		case opStall:
			<-o.done
		case opIngestBatch:
			h.applyOp(o, func(g *gateway.Gateway) error { return g.IngestBatch(*o.evs) })
			*o.evs = (*o.evs)[:0]
			batchPool.Put(o.evs)
		case opAdvance:
			h.applyOp(o, func(g *gateway.Gateway) error { return g.AdvanceTo(o.at) })
		}
	}
}

// Telemetry returns the hub's own registry (the dice_hub_* series plus
// whatever the CoAP front registers).
func (h *Hub) Telemetry() *telemetry.Registry { return h.tel }

// Alerts returns the merged tenant alert channel. It is never closed. Each
// tenant's alerts arrive in the order its gateway raised them. A full
// buffer blocks the raising shard worker (back-pressure, not a drop), so
// the hub needs a consumer that keeps receiving, also while DrainAll,
// CheckpointAll or Evict wait on the shards: Run is one.
func (h *Hub) Alerts() <-chan TenantAlert { return h.alerts }

// alertSink is a tenant gateway's alert sink: it tags the alert with the
// home and sends it to the merged channel on the shard worker that raised
// it. The plain send first keeps a buffer with room from racing the stop
// signal; once Close or Kill has begun, a send that would block is dropped
// and counted instead.
func (h *Hub) alertSink(home string) func(gateway.Alert) {
	return func(a gateway.Alert) {
		ta := TenantAlert{Home: home, Alert: a}
		select {
		case h.alerts <- ta:
			return
		default:
		}
		select {
		case h.alerts <- ta:
		case <-h.stopping:
			h.met.alertsDropped.Inc()
		}
	}
}

// stop releases blocked alert sends; Close and Kill call it before they
// take the lock, because an enqueue blocked on a full shard queue holds
// the read lock while that shard waits on the alert buffer.
func (h *Hub) stop() { h.stoppingOnce.Do(func() { close(h.stopping) }) }

// validHome rejects IDs that would break routing (empty, path separators).
func validHome(home string) error {
	if home == "" {
		return errors.New("hub: empty home ID")
	}
	if strings.ContainsAny(home, "/\\") {
		return fmt.Errorf("hub: home ID %q contains a path separator", home)
	}
	return nil
}

// Register adds a home built around its trained context. The tenant's
// pipeline registers against a fresh private registry (so its series can
// be stamped with the home label on /metrics); a gateway.WithTelemetry
// among opts is overridden. If the hub has a checkpoint path for the home
// and a file exists there, it is restored lazily on the first op.
func (h *Hub) Register(home string, cctx *core.Context, opts ...gateway.Option) (*Tenant, error) {
	if err := validHome(home); err != nil {
		return nil, err
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.closed {
		return nil, ErrClosed
	}
	if _, ok := h.tenants[home]; ok {
		return nil, fmt.Errorf("hub: home %q already registered", home)
	}
	tel := telemetry.NewRegistry()
	// The resolved option set is stored on the tenant so a supervised
	// restart rebuilds an identical pipeline: same registry (counters
	// resume via checkpoint restore), same WAL, same dead-letter and
	// alert sinks.
	resolved := append(append([]gateway.Option(nil), opts...),
		gateway.WithTelemetry(tel), gateway.WithHome(home), gateway.WithAlertSink(h.alertSink(home)))
	t := &tenant{
		home: home,
		tel:  tel,
		cctx: cctx,
	}
	if h.o.cpPath != nil {
		t.cpPath = h.o.cpPath(home)
	}
	if h.o.walDir != "" {
		w, err := wal.Open(filepath.Join(h.o.walDir, home), wal.Options{Sync: h.o.walSync, Telemetry: tel})
		if err != nil {
			return nil, err
		}
		t.wl = w
		t.dl = wal.OpenDeadLetter(filepath.Join(h.o.walDir, home+".dead.jsonl"))
		resolved = append(resolved, gateway.WithWAL(w), gateway.WithDeadLetter(t.dl))
	} else if t.cpPath != "" {
		t.dl = wal.OpenDeadLetter(t.cpPath + ".dead.jsonl")
		resolved = append(resolved, gateway.WithDeadLetter(t.dl))
	}
	t.gwOpts = resolved
	gw, err := gateway.New(cctx, resolved...)
	if err != nil {
		if t.wl != nil {
			t.wl.Close() //nolint:errcheck // construction failed; best effort
		}
		return nil, err
	}
	t.gw.Store(gw)
	t.lastOp.Store(time.Now().UnixNano())
	h.tenants[home] = t
	delete(h.evicted, home)
	h.met.tenants.Set(int64(len(h.tenants)))
	return &Tenant{h: h, t: t}, nil
}

// Tenant looks up a registered home.
func (h *Hub) Tenant(home string) (*Tenant, bool) {
	h.mu.RLock()
	defer h.mu.RUnlock()
	t, ok := h.tenants[home]
	if !ok {
		return nil, false
	}
	return &Tenant{h: h, t: t}, true
}

// Homes lists registered home IDs, sorted.
func (h *Hub) Homes() []string {
	h.mu.RLock()
	defer h.mu.RUnlock()
	out := make([]string, 0, len(h.tenants))
	for home := range h.tenants {
		out = append(out, home)
	}
	sort.Strings(out)
	return out
}

// shardForLocked pins a home to a shard by FNV-1a hash. Callers hold at
// least the read lock (the shard slice is swapped under the write lock).
func (h *Hub) shardForLocked(home string) *shard {
	f := fnv.New32a()
	f.Write([]byte(home)) //nolint:errcheck // fnv never fails
	return h.shards[int(f.Sum32())%len(h.shards)]
}

// enqueue routes one op, blocking on a full queue. The read lock held
// across the channel send is what makes Resize safe: queues are only
// closed under the write lock, which cannot be acquired while a send is in
// flight.
//
// With an ingest deadline configured, a data op waits at most the deadline
// on a full queue and is then shed (ErrDeadline). Barriers and stalls
// always block: Drain's correctness depends on it.
func (h *Hub) enqueue(home string, o op) error {
	h.mu.RLock()
	defer h.mu.RUnlock()
	if h.closed {
		return ErrClosed
	}
	t, ok := h.tenants[home]
	if !ok {
		return fmt.Errorf("%w: %q", ErrUnknownHome, home)
	}
	if Health(t.health.Load()) == HealthMigrating && o.kind != opBarrier && o.kind != opStall {
		// Mid-handoff: the exported state will not cover this op, so the
		// caller must re-route it to the new owner (retry until the adopt
		// lands). Barriers still pass — the drain inside the migration
		// depends on them.
		return fmt.Errorf("%w: %q", ErrMigrating, home)
	}
	o.t = t
	s := h.shardForLocked(home)
	s.depth.Add(1)
	dataOp := o.kind == opIngestBatch || o.kind == opAdvance
	if h.o.ingestDeadline <= 0 || !dataOp {
		s.ops <- o
		return nil
	}
	select {
	case s.ops <- o:
		return nil
	default:
	}
	timer := time.NewTimer(h.o.ingestDeadline)
	defer timer.Stop()
	select {
	case s.ops <- o:
		return nil
	case <-timer.C:
		s.depth.Add(-1)
		s.shed.Inc()
		t.shedNow()
		h.met.deadlineSheds.Inc()
		return ErrDeadline
	}
}

// Ingest routes one event to its home's shard: an IngestBatch of one.
func (h *Hub) Ingest(home string, e event.Event) error {
	return h.IngestBatch(home, []event.Event{e})
}

// IngestBatch routes a whole batch of events to the home's shard as one op:
// one queue slot, one gateway lock acquisition, one WAL append. The caller
// keeps ownership of evts — the batch is copied into a hub-pooled slice at
// enqueue, so a CoAP front can return its decode scratch immediately.
// The batch blocks while the shard queue is full (backpressure) and is
// applied asynchronously: a gateway-level rejection is counted in
// dice_hub_ingest_errors_total, not returned.
func (h *Hub) IngestBatch(home string, evts []event.Event) error {
	if len(evts) == 0 {
		return nil
	}
	bp := batchPool.Get().(*[]event.Event)
	*bp = append((*bp)[:0], evts...)
	err := h.enqueue(home, op{kind: opIngestBatch, evs: bp})
	if err != nil {
		*bp = (*bp)[:0]
		batchPool.Put(bp)
	}
	return err
}

// Advance routes a stream-clock advance to the home's shard, behind any
// events already queued for it.
func (h *Hub) Advance(home string, t time.Duration) error {
	return h.enqueue(home, op{kind: opAdvance, at: t})
}

// Drain blocks until every op enqueued for home before the call has been
// applied. After Drain, the tenant's Stats reflect all prior Ingests.
func (h *Hub) Drain(home string) error {
	done := make(chan struct{})
	if err := h.enqueue(home, op{kind: opBarrier, done: done}); err != nil {
		return err
	}
	<-done
	return nil
}

// DrainAll flushes every shard queue.
func (h *Hub) DrainAll() error {
	h.mu.RLock()
	if h.closed {
		h.mu.RUnlock()
		return ErrClosed
	}
	dones := make([]chan struct{}, len(h.shards))
	for i, s := range h.shards {
		dones[i] = make(chan struct{})
		s.depth.Add(1)
		s.ops <- op{kind: opBarrier, done: dones[i]}
	}
	h.mu.RUnlock()
	for _, d := range dones {
		<-d
	}
	return nil
}

// checkpointTenant writes one tenant's state (home-stamped) to its path.
// ensureRestored runs first so an untouched tenant round-trips its on-disk
// checkpoint instead of overwriting it with blank state. A suspect tenant
// (panicked, not yet rebuilt) is skipped: its in-memory state may be
// half-mutated, and the durable checkpoint + WAL on disk are strictly
// better. A successful write lets the WAL shed the segments it covers.
func (h *Hub) checkpointTenant(t *tenant) error {
	if t.cpPath == "" || t.suspect.Load() {
		return nil
	}
	if err := t.ensureRestored(h); err != nil {
		return err
	}
	cp := t.gateway().ExportCheckpoint()
	cp.Home = t.home
	if err := gateway.WriteCheckpoint(t.cpPath, cp); err != nil {
		return err
	}
	if t.wl != nil {
		return t.wl.TruncateThrough(cp.WALSeq)
	}
	return nil
}

// CheckpointAll drains the shards and persists every tenant that has a
// checkpoint path. The first error is returned; the rest still run.
func (h *Hub) CheckpointAll() error {
	if err := h.DrainAll(); err != nil {
		return err
	}
	h.mu.RLock()
	ts := make([]*tenant, 0, len(h.tenants))
	for _, t := range h.tenants {
		ts = append(ts, t)
	}
	h.mu.RUnlock()
	var first error
	for _, t := range ts {
		if err := h.checkpointTenant(t); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// Evict unregisters a home: new ops are rejected immediately, in-flight
// shard ops drain (their alerts reach the hub channel), and a final
// checkpoint is written. The home can re-register later and resume from it.
func (h *Hub) Evict(home string) error {
	h.mu.Lock()
	if h.closed {
		h.mu.Unlock()
		return ErrClosed
	}
	t, ok := h.tenants[home]
	if !ok {
		h.mu.Unlock()
		return fmt.Errorf("%w: %q", ErrUnknownHome, home)
	}
	delete(h.tenants, home)
	h.evicted[home] = true
	h.met.tenants.Set(int64(len(h.tenants)))
	h.mu.Unlock()

	// Ops for the tenant can no longer be enqueued; a barrier through every
	// shard proves the ones already queued have been applied.
	if err := h.DrainAll(); err != nil && !errors.Is(err, ErrClosed) {
		return err
	}
	// Marking the tenant Evicted under sup closes the race with a pending
	// supervised restart: restartTenant aborts on Evicted, and whichever
	// side holds sup first wins cleanly.
	t.sup.Lock()
	t.health.Store(int32(HealthEvicted))
	t.sup.Unlock()
	h.updateQuarantineGauge()
	h.met.evictions.Inc()
	err := h.checkpointTenant(t)
	if t.wl != nil {
		if cerr := t.wl.Close(); cerr != nil && err == nil {
			err = cerr
		}
	}
	return err
}

// evictIdle evicts tenants whose last applied op is older than the idle
// timeout. Homes are visited in sorted order so eviction order (and the
// eviction counter) is deterministic for a given clock.
func (h *Hub) evictIdle() {
	cutoff := time.Now().Add(-h.o.idle).UnixNano()
	h.mu.RLock()
	var idle []string
	for home, t := range h.tenants {
		if t.lastOp.Load() < cutoff {
			idle = append(idle, home)
		}
	}
	h.mu.RUnlock()
	sort.Strings(idle)
	for _, home := range idle {
		h.Evict(home) //nolint:errcheck // raced re-eviction is benign
	}
}

// Resize swaps the shard pool to n workers, preserving per-home ordering:
// the old queues drain completely (workers exit on queue close) before the
// new pool starts, so no two workers ever apply ops for the same home
// concurrently. Enqueues block for the duration — Resize holds the write
// lock, and sends hold the read lock.
func (h *Hub) Resize(n int) error {
	if n <= 0 {
		return fmt.Errorf("hub: shard count %d, want > 0", n)
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.closed {
		return ErrClosed
	}
	if n == len(h.shards) {
		return nil
	}
	for _, s := range h.shards {
		close(s.ops)
	}
	for _, s := range h.shards {
		<-s.done
	}
	h.shards = h.startShards(n)
	h.met.rebalances.Inc()
	return nil
}

// Shards returns the current worker pool size.
func (h *Hub) Shards() int {
	h.mu.RLock()
	defer h.mu.RUnlock()
	return len(h.shards)
}

// ShardStat is one shard's counters — the same numbers the dice_hub_shard_*
// series expose, as a snapshot.
type ShardStat struct {
	Shard      int   `json:"shard"`
	Ops        int64 `json:"ops"`
	Shed       int64 `json:"shed"`
	QueueDepth int64 `json:"queue_depth"`
}

// ShardStats snapshots every shard's counters, in shard order.
func (h *Hub) ShardStats() []ShardStat {
	h.mu.RLock()
	defer h.mu.RUnlock()
	out := make([]ShardStat, len(h.shards))
	for i, s := range h.shards {
		out[i] = ShardStat{
			Shard:      s.id,
			Ops:        s.opsCnt.Value(),
			Shed:       s.shed.Value(),
			QueueDepth: s.depth.Value(),
		}
	}
	return out
}

// Run pumps merged tenant alerts into onAlert (nil discards) until ctx is
// cancelled and owns the hub's housekeeping: periodic checkpoints and idle
// eviction, when configured, and a final checkpoint for every tenant on
// the way out. Housekeeping runs on its own goroutine, because it drains
// the shards, and a shard blocked on a full alert buffer only moves while
// Run keeps receiving. Alerts buffered when the final checkpoint returns
// are delivered before Run returns. It replaces the ad-hoc stop-channel
// loops single-gateway callers used to write.
func (h *Hub) Run(ctx context.Context, onAlert func(TenantAlert)) error {
	deliver := func(a TenantAlert) {
		if onAlert != nil {
			onAlert(a)
		}
	}
	done := make(chan error, 1)
	go func() { done <- h.housekeep(ctx) }()
	for {
		select {
		case a := <-h.alerts:
			deliver(a)
		case err := <-done:
			for {
				select {
				case a := <-h.alerts:
					deliver(a)
				default:
					return err
				}
			}
		}
	}
}

// housekeep runs Run's checkpoint and idle-eviction ticks until ctx is
// cancelled, then writes the final checkpoints.
func (h *Hub) housekeep(ctx context.Context) error {
	var cpC, idleC <-chan time.Time
	if h.o.cpInterval > 0 {
		tick := time.NewTicker(h.o.cpInterval)
		defer tick.Stop()
		cpC = tick.C
	}
	if h.o.idle > 0 {
		// Scan at half the timeout so an idle tenant overstays by at most
		// ~1.5x the configured window.
		tick := time.NewTicker(h.o.idle / 2)
		defer tick.Stop()
		idleC = tick.C
	}
	for {
		select {
		case <-ctx.Done():
			err := h.CheckpointAll()
			if errors.Is(err, ErrClosed) {
				err = nil
			}
			return err
		case <-cpC:
			h.CheckpointAll() //nolint:errcheck // periodic; final write happens on exit
		case <-idleC:
			h.evictIdle()
		}
	}
}

// Close drains the shards, stops the workers, and writes a final
// checkpoint per tenant. Alerts the buffer cannot take once Close has
// begun are dropped and counted, so it returns without a consumer. The hub
// is unusable afterwards.
func (h *Hub) Close() error {
	h.stop()
	h.mu.Lock()
	if h.closed {
		h.mu.Unlock()
		return nil
	}
	h.closed = true
	for _, s := range h.shards {
		close(s.ops)
	}
	ts := make([]*tenant, 0, len(h.tenants))
	for _, t := range h.tenants {
		ts = append(ts, t)
	}
	shards := h.shards
	h.mu.Unlock()

	for _, s := range shards {
		<-s.done
	}
	var first error
	for _, t := range ts {
		if err := h.checkpointTenant(t); err != nil && first == nil {
			first = err
		}
		if t.wl != nil {
			if err := t.wl.Close(); err != nil && first == nil {
				first = err
			}
		}
	}
	return first
}

// Kill is Close with the power cord pulled: the in-process stand-in for
// SIGKILL that crash and fail-over drills use. Queued data ops are
// discarded, no final checkpoint is written, and the WALs close without a
// parting fsync — recovery must come entirely from the checkpoint + WAL
// bytes already on disk, exactly as it would after a real process death.
// (Goroutines are still reaped, because the drill shares our process.)
func (h *Hub) Kill() {
	h.killed.Store(true)
	h.stop()
	h.mu.Lock()
	if h.closed {
		h.mu.Unlock()
		return
	}
	h.closed = true
	for _, s := range h.shards {
		close(s.ops)
	}
	ts := make([]*tenant, 0, len(h.tenants))
	for _, t := range h.tenants {
		ts = append(ts, t)
	}
	shards := h.shards
	h.mu.Unlock()

	for _, s := range shards {
		<-s.done
	}
	for _, t := range ts {
		if t.wl != nil {
			t.wl.Close() //nolint:errcheck // dying; durability already on disk
		}
	}
}
