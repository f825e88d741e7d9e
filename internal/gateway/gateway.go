// Package gateway is the home-gateway runtime of Figure 3.1: it ingests
// timestamped device events (in-process or over CoAP), windows them into
// fixed durations, runs the DICE detector online, and publishes alerts.
// The same window.Builder drives both this gateway and the batch
// evaluator, so online and offline detection are behaviourally identical.
package gateway

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"runtime/debug"
	"slices"
	"sort"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/device"
	"repro/internal/event"
	"repro/internal/telemetry"
	"repro/internal/wal"
	"repro/internal/window"
)

// Alert is a detector alert enriched with gateway metadata.
type Alert struct {
	// Devices are the probable faulty devices, resolved to full records.
	Devices []device.Device `json:"devices"`
	// Cause is the check that detected the underlying violation.
	Cause core.CheckKind `json:"cause"`
	// DetectedAt / ReportedAt are stream times (offsets from stream start).
	DetectedAt time.Duration `json:"detected_at"`
	ReportedAt time.Duration `json:"reported_at"`
	// Explain is the decision trace: the detector's episode trace for
	// violation alerts, a single-step silence trace for liveness alerts.
	// Every alert carries one.
	Explain *core.Explain `json:"explain,omitempty"`
}

// Stats counts gateway activity. It is a snapshot view over the gateway's
// telemetry counters — the same numbers /metrics exposes, under one naming
// scheme (see the dice_gateway_* series).
type Stats struct {
	Events        int64
	Windows       int64
	Violations    int64
	Alerts        int64
	AlertsDropped int64
	// LivenessAlerts counts fail-stop alerts raised by the silence
	// tracker; DarkDevices is the number of devices currently past the
	// silence threshold (a gauge, snapshotted by Stats()).
	LivenessAlerts int64
	DarkDevices    int64
}

// Gateway-stage metric names.
const (
	metricGwEvents        = "dice_gateway_events_total"
	metricGwWindows       = "dice_gateway_windows_total"
	metricGwViolations    = "dice_gateway_violations_total"
	metricGwAlerts        = "dice_gateway_alerts_total"
	metricGwAlertsDropped = "dice_gateway_alerts_dropped_total"
	metricGwLiveness      = "dice_gateway_liveness_alerts_total"
	metricGwDark          = "dice_gateway_dark_devices"
	metricGwAlertLatency  = "dice_gateway_alert_latency_seconds"
	// metricCtxRollbacks completes the dice_ctx_* adaptation series: the
	// adapter owns epoch/admission/decay, the gateway owns rollbacks
	// because checkpoint restore is where a bad adaptation gets undone.
	metricCtxRollbacks = "dice_ctx_rollbacks_total"
)

// gwMetrics is the telemetry backing of Stats plus the alert-latency
// histogram (stream-time lag between detection and report).
type gwMetrics struct {
	events        *telemetry.Counter
	windows       *telemetry.Counter
	violations    *telemetry.Counter
	alerts        *telemetry.Counter
	alertsDropped *telemetry.Counter
	liveness      *telemetry.Counter
	dark          *telemetry.Gauge
	alertLatency  *telemetry.Histogram
	ctxRollbacks  *telemetry.Counter
}

func newGwMetrics(reg *telemetry.Registry) gwMetrics {
	m := gwMetrics{
		events:        reg.Counter(metricGwEvents, "Events ingested by the gateway."),
		windows:       reg.Counter(metricGwWindows, "Windows run through the online detector."),
		violations:    reg.Counter(metricGwViolations, "Windows on which a check fired."),
		alerts:        reg.Counter(metricGwAlerts, "Alerts delivered to the alert channel or sink."),
		alertsDropped: reg.Counter(metricGwAlertsDropped, "Alerts dropped because the channel buffer was full."),
		liveness:      reg.Counter(metricGwLiveness, "Fail-stop alerts raised by the silence tracker."),
		dark:          reg.Gauge(metricGwDark, "Devices currently past the silence threshold."),
		alertLatency:  reg.Histogram(metricGwAlertLatency, "Stream-time lag between detection and report, in seconds.", telemetry.ExpBuckets(60, 2, 8)),
		ctxRollbacks:  reg.Counter(metricCtxRollbacks, "Context versions rolled back by checkpoint restore."),
	}
	// Registry instruments are get-or-create, but a fresh gateway's stats
	// are zero by definition: when a supervised restart rebuilds a gateway
	// on its tenant's existing registry, the counters must not keep the
	// dead pipeline's totals or a cold-start WAL replay would double-count
	// (a checkpoint restore re-Stores the right values right after).
	for _, c := range []*telemetry.Counter{m.events, m.windows, m.violations, m.alerts, m.alertsDropped, m.liveness} {
		c.Store(0)
	}
	m.dark.Set(0)
	return m
}

// Gateway runs DICE over a live event stream. Events must be ingested in
// non-decreasing time order (the CoAP front end enforces this per device
// and tolerates cross-device skew up to the window duration).
type Gateway struct {
	mu      sync.Mutex
	det     *core.Detector
	builder *window.Builder
	reg     *device.Registry
	alerts  chan Alert  // nil when sink is set
	sink    func(Alert) // WithAlertSink; runs under mu
	tel     *telemetry.Registry
	met     gwMetrics
	horizon time.Duration

	// Online adaptation: the adapter watches every processed window under
	// the gateway lock and publishes new immutable context versions, which
	// are swapped into the detector atomically between windows. cfg (with
	// tel) and adaptOpts keep the construction recipes so a checkpoint
	// restore can rebuild both onto a restored context version (rollback).
	adapter   *core.Adapter
	cfg       core.Config
	adapt     bool
	adaptOpts []core.AdapterOption

	// lastAlert is the most recent alert emitted (delivered or dropped),
	// kept for the /alerts/last explain endpoint.
	lastAlert *Alert

	// Liveness tracking: each device's silence-tracker entry, indexed by
	// device ID over the registry (whose IDs are dense from 0), so walking
	// live in index order visits devices in ascending ID order. The wire
	// carries any int32, and IDs outside the registry are tracked too, in
	// liveExtra (ascending by ID; only those IDs ever touch it). nDark
	// counts the entries past the silence threshold; streamNow is the
	// furthest stream time observed (events may run ahead of the /advance
	// horizon). nextDark is derived, never checkpointed: no entry can go
	// dark while streamNow <= nextDark, which is at most the earliest
	// at+threshold over seen, non-dark entries (scanDark forces a scan).
	liveThreshold time.Duration
	live          []liveState
	liveExtra     []liveEntry
	nDark         int
	streamNow     time.Duration
	nextDark      time.Duration

	// Durability: ops append to the WAL (when attached) before mutating
	// state; walSeq is the sequence number of the last op this gateway has
	// logged or replayed, carried into checkpoints so replay can skip the
	// covered prefix.
	wal    *wal.Log
	walSeq uint64

	// Supervision: home names this gateway's tenant in dead-letter entries,
	// ingestHook runs before any state mutation (fault-injection seam),
	// deadLetter captures ops whose replay panicked, replaying marks WAL
	// replay in progress, and rebasePending arms the liveness clock rebase
	// (consumed on the first live clock movement after a restore).
	home          string
	ingestHook    func(event.Event) error
	deadLetter    *wal.DeadLetter
	replaying     bool
	rebasePending bool
}

// liveState is one device's silence-tracker entry: the stream time it last
// reported at (meaningful once seen) and whether it is past the threshold.
type liveState struct {
	at   time.Duration
	seen bool
	dark bool
}

// scanDark is the nextDark value that makes the next liveness check visit
// every entry: after a restore or rebase moves the last-seen stamps.
const scanDark = time.Duration(math.MinInt64)

// liveEntry is a tracker entry for an ID outside the registry.
type liveEntry struct {
	id device.ID
	liveState
}

// Option configures a Gateway at construction.
type Option func(*gwOptions)

type gwOptions struct {
	cfg        core.Config
	liveness   time.Duration
	tel        *telemetry.Registry
	alertBuf   int
	alertSink  func(Alert)
	wal        *wal.Log
	home       string
	ingestHook func(event.Event) error
	deadLetter *wal.DeadLetter
	adapt      bool
	adaptOpts  []core.AdapterOption
}

// WithConfig sets the detector configuration. Without it the gateway runs
// the zero core.Config: the paper's settings.
func WithConfig(cfg core.Config) Option {
	return func(o *gwOptions) { o.cfg = cfg }
}

// WithLiveness enables fail-stop (outage) alerts for devices that have
// reported at least once and then stay silent longer than threshold; zero
// disables the tracker. A sparsely firing sensor is silent for hours of
// normal life, so thresholds should be generous — liveness catches the
// device that went dark, the window checks catch the one that lies.
func WithLiveness(threshold time.Duration) Option {
	return func(o *gwOptions) { o.liveness = threshold }
}

// WithTelemetry makes the gateway register its instruments (and the
// detector's and window builder's) against a caller-owned registry instead
// of a fresh private one. Multiple gateways sharing one registry aggregate.
func WithTelemetry(reg *telemetry.Registry) Option {
	return func(o *gwOptions) { o.tel = reg }
}

// WithAlertBuffer sets the alert channel capacity (default 64). A full
// buffer drops alerts (counted) rather than blocking detection. It has no
// effect with WithAlertSink, which replaces the channel.
func WithAlertBuffer(n int) Option {
	return func(o *gwOptions) { o.alertBuf = n }
}

// WithAlertSink hands every alert to fn instead of the alert channel, which
// is then never allocated: Alerts returns nil and nothing is counted as
// dropped. fn runs on the goroutine that concluded the alert (the ingest or
// replay caller), with the gateway lock held, so it must not call back into
// this gateway; whatever it blocks on blocks detection. It exists for
// collaborators that own delivery, like the hub, whose sink forwards to its
// merged channel with back-pressure instead of a drop.
func WithAlertSink(fn func(Alert)) Option {
	return func(o *gwOptions) { o.alertSink = fn }
}

// WithWAL attaches an opened write-ahead log: every accepted Ingest and
// effective AdvanceTo is framed and appended before it mutates detector
// state, and RecoverWAL replays the tail past the restored checkpoint so a
// crash between checkpoints loses nothing. The gateway does not own the
// log's lifetime — the caller (hub or cmd) closes it.
func WithWAL(w *wal.Log) Option {
	return func(o *gwOptions) { o.wal = w }
}

// WithHome names the tenant this gateway serves; it is stamped into
// dead-letter entries so a shared forensics file stays attributable.
func WithHome(home string) Option {
	return func(o *gwOptions) { o.home = home }
}

// WithIngestHook installs a hook that runs on every ingested event before
// any counter or state mutation — while replaying the WAL as well as live.
// It exists as the supervision seam: a hook that panics models a poison
// event (the panic escapes Ingest with all state untouched), and a hook
// that returns an error rejects the event. Production gateways leave it
// nil.
func WithIngestHook(fn func(event.Event) error) Option {
	return func(o *gwOptions) { o.ingestHook = fn }
}

// WithDeadLetter attaches a sink for ops whose replay panics: instead of
// wedging recovery forever, the offending record is captured there and
// skipped. Nil (the default) discards such records silently.
func WithDeadLetter(d *wal.DeadLetter) Option {
	return func(o *gwOptions) { o.deadLetter = d }
}

// WithAdaptation turns on online context adaptation: confirmed-non-faulty
// windows feed a core.Adapter that admits new groups after sustained
// observation, ages transition counts, and publishes each adaptation as a
// new immutable context version the detector swaps to atomically. The
// context version travels in checkpoints, so a bad adaptation rolls back
// through the existing checkpoint/WAL machinery. Options tune the adapter
// (core.WithAdmitAfter, core.WithDecay, ...); telemetry is wired to the
// gateway's registry automatically.
func WithAdaptation(opts ...core.AdapterOption) Option {
	return func(o *gwOptions) {
		o.adapt = true
		o.adaptOpts = append(o.adaptOpts, opts...)
	}
}

// New builds a gateway around a trained context with functional options.
func New(ctx *core.Context, opts ...Option) (*Gateway, error) {
	var o gwOptions
	for _, opt := range opts {
		opt(&o)
	}
	if o.alertBuf <= 0 {
		o.alertBuf = 64
	}
	var alerts chan Alert
	if o.alertSink == nil {
		alerts = make(chan Alert, o.alertBuf)
	}
	tel := o.tel
	if tel == nil {
		tel = telemetry.NewRegistry()
	}
	det, err := core.New(ctx, core.WithConfig(o.cfg), core.WithTelemetry(tel))
	if err != nil {
		return nil, err
	}
	builder := window.NewBuilder(ctx.Layout(), ctx.Duration())
	builder.Instrument(tel)
	g := &Gateway{
		det:           det,
		builder:       builder,
		reg:           ctx.Layout().Registry(),
		alerts:        alerts,
		sink:          o.alertSink,
		tel:           tel,
		met:           newGwMetrics(tel),
		cfg:           o.cfg,
		adapt:         o.adapt,
		liveThreshold: o.liveness,
		live:          make([]liveState, ctx.Layout().Registry().Len()),
		nextDark:      scanDark,
		wal:           o.wal,
		home:          o.home,
		ingestHook:    o.ingestHook,
		deadLetter:    o.deadLetter,
	}
	if o.adapt {
		g.adaptOpts = append([]core.AdapterOption{core.WithAdapterTelemetry(tel)}, o.adaptOpts...)
		adapter, err := core.NewAdapter(ctx, g.adaptOpts...)
		if err != nil {
			return nil, err
		}
		g.adapter = adapter
	}
	return g, nil
}

// Telemetry returns the gateway's metric registry: its own series plus the
// detector's and the window builder's. A hub's /metrics exposes it stamped
// with the tenant's home label.
func (g *Gateway) Telemetry() *telemetry.Registry { return g.tel }

// Alerts returns the alert channel. It is never closed; buffer overruns
// increment Stats.AlertsDropped rather than blocking detection. It is nil
// on a gateway built WithAlertSink, whose alerts go to the sink instead.
func (g *Gateway) Alerts() <-chan Alert { return g.alerts }

// Run pumps the alert channel into onAlert until ctx is cancelled, then
// drains whatever is already buffered and returns nil. It replaces the
// ad-hoc select-on-stop-channel loops callers used to write: ingestion
// stays on the caller's goroutines (Ingest/AdvanceTo are thread-safe), Run
// owns delivery. A nil onAlert discards alerts but still keeps the buffer
// from overflowing. On a gateway built WithAlertSink there is no channel:
// Run only waits for ctx, and the sink is the delivery path.
func (g *Gateway) Run(ctx context.Context, onAlert func(Alert)) error {
	deliver := func(a Alert) {
		if onAlert != nil {
			onAlert(a)
		}
	}
	for {
		select {
		case <-ctx.Done():
			for {
				select {
				case a := <-g.alerts:
					deliver(a)
				default:
					return nil
				}
			}
		case a := <-g.alerts:
			deliver(a)
		}
	}
}

// Stats returns a snapshot of the counters, read from the telemetry
// registry so this view and /metrics can never disagree.
func (g *Gateway) Stats() Stats {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.statsLocked()
}

// OpenEpisodes reports how many identification episodes the detector has
// in flight — the same quantity the dice_det_episodes_open gauge tracks.
// Under MaxFaults > 1 a storm holds several open at once.
func (g *Gateway) OpenEpisodes() int {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.det.OpenEpisodes()
}

func (g *Gateway) statsLocked() Stats {
	return Stats{
		Events:         g.met.events.Value(),
		Windows:        g.met.windows.Value(),
		Violations:     g.met.violations.Value(),
		Alerts:         g.met.alerts.Value(),
		AlertsDropped:  g.met.alertsDropped.Value(),
		LivenessAlerts: g.met.liveness.Value(),
		DarkDevices:    int64(g.nDark),
	}
}

// LastAlert returns a copy of the most recent alert (delivered or
// dropped) and whether one has been emitted yet. This backs the
// /alerts/last endpoint, whose point is the attached Explain trace.
func (g *Gateway) LastAlert() (Alert, bool) {
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.lastAlert == nil {
		return Alert{}, false
	}
	a := *g.lastAlert
	a.Devices = append([]device.Device(nil), g.lastAlert.Devices...)
	a.Explain = g.lastAlert.Explain.Clone()
	return a, true
}

// ContextInfo describes the context version the detector currently scans
// against, plus the adapter's progress when adaptation is on. It backs the
// /context endpoint.
type ContextInfo struct {
	// Epoch / Fingerprint / Parent identify the version: epoch 0 is the
	// trained base, each adaptation increments it, and the parent hash
	// chains versions so a rollback is visible in the lineage.
	Epoch       uint64 `json:"epoch"`
	Fingerprint string `json:"fingerprint"`
	Parent      string `json:"parent,omitempty"`
	Groups      int    `json:"groups"`
	// ContextSchema is the context payload version (v2 carries interval
	// sketches); TimingCapable reports whether the detector's timing check
	// can run against this context.
	ContextSchema int  `json:"context_schema"`
	TimingCapable bool `json:"timing_capable"`
	// Adaptive reports whether online adaptation is enabled; the remaining
	// fields are zero when it is not.
	Adaptive       bool   `json:"adaptive"`
	GroupsAdmitted int64  `json:"groups_admitted,omitempty"`
	EdgesAdmitted  int64  `json:"edges_admitted,omitempty"`
	DecayedEdges   int64  `json:"decayed_edges,omitempty"`
	PendingSets    int    `json:"pending_sets,omitempty"`
	Rollbacks      int64  `json:"rollbacks,omitempty"`
	WindowsSeen    uint64 `json:"windows_seen,omitempty"`
}

// ContextInfo snapshots the active context version and adaptation state.
func (g *Gateway) ContextInfo() ContextInfo {
	g.mu.Lock()
	defer g.mu.Unlock()
	ctx := g.det.Context()
	info := ContextInfo{
		Epoch:         ctx.Epoch(),
		Fingerprint:   ctx.Fingerprint(),
		Parent:        ctx.ParentFingerprint(),
		Groups:        ctx.NumGroups(),
		ContextSchema: ctx.SchemaVersion(),
		TimingCapable: ctx.TimingCapable(),
		Adaptive:      g.adapter != nil,
	}
	if g.adapter != nil {
		info.GroupsAdmitted = g.adapter.GroupsAdmitted()
		info.EdgesAdmitted = g.adapter.EdgesAdmitted()
		info.DecayedEdges = g.adapter.DecayedEdges()
		info.PendingSets = g.adapter.PendingSets()
		info.Rollbacks = g.met.ctxRollbacks.Value()
		info.WindowsSeen = g.adapter.Windows()
	}
	return info
}

// DeviceLiveness is one device's silence-tracker state.
type DeviceLiveness struct {
	Device   device.ID     `json:"device"`
	Name     string        `json:"name"`
	LastSeen time.Duration `json:"last_seen"`
	Dark     bool          `json:"dark"`
}

// Liveness snapshots the silence tracker, ascending by device ID. Only
// devices that have reported at least once appear.
func (g *Gateway) Liveness() []DeviceLiveness {
	g.mu.Lock()
	defer g.mu.Unlock()
	out := []DeviceLiveness{} // non-nil: an empty tracker encodes as [], not null
	g.eachLive(func(id device.ID, s *liveState) {
		if !s.seen {
			return
		}
		dl := DeviceLiveness{Device: id, LastSeen: s.at, Dark: s.dark}
		if dev, err := g.reg.Get(id); err == nil {
			dl.Name = dev.Name
		}
		out = append(out, dl)
	})
	return out
}

// Ingest feeds one event: an IngestBatch of one, validated the same way
// before anything is logged. Completed windows are run through the detector
// immediately. With a WAL attached the event is made durable (per the sync
// policy) before any state mutates, so a crash at any point either replays
// the event or never acknowledged it. An event Ingest refuses leaves the
// gateway and its WAL untouched.
func (g *Gateway) Ingest(e event.Event) error {
	evts := [1]event.Event{e}
	return g.IngestBatch(evts[:])
}

// IngestBatch feeds a batch of events in one critical section: the whole
// batch is validated first, logged to the WAL as one CRC frame (one write
// + one sync-policy application), then applied event by event through
// ingestLocked, the path WAL replay uses too. A crash mid-write loses the
// whole frame, so recovery replays either all of the batch or none of it.
//
// Validation must precede logging: a record that reaches the WAL will be
// re-applied on replay regardless of what the live run returned, so any
// event the gateway might refuse (time regression behind the horizon or
// the open window) has to be refused before anything is durable —
// otherwise the recovered state would diverge from the live one. For the
// same reason application continues past per-event errors, exactly as
// replay does; the first error is returned after the batch completes.
func (g *Gateway) IngestBatch(evts []event.Event) error {
	if len(evts) == 0 {
		return nil
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	if err := g.validateLocked(evts); err != nil {
		return err
	}
	if g.wal != nil {
		seq, err := g.wal.AppendEvents(evts)
		if err != nil {
			return fmt.Errorf("gateway: wal append: %w", err)
		}
		g.walSeq = seq
	}
	var first error
	for _, e := range evts {
		if err := g.ingestLocked(e); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// validateLocked refuses a batch holding an event behind the horizon, or
// in a window before the open one or before an earlier event's: the rule
// is that int(e.At/duration) never drops below the running window index.
// [lo, next) are the stream times of the running window, so an event that
// stays in it costs two comparisons; only one that moves to another window
// pays the division.
func (g *Gateway) validateLocked(evts []event.Event) error {
	idx := g.builder.CurrentIndex()
	dur := g.builder.Duration()
	lo, next := windowSpan(idx, dur)
	for i := range evts {
		at := evts[i].At
		if at < g.horizon {
			return fmt.Errorf("gateway: event at %s regresses behind %s", at, g.horizon)
		}
		if at >= lo && at < next {
			continue
		}
		w := int(at / dur)
		if w < idx {
			return fmt.Errorf("gateway: event at %s regresses before window %d", at, idx)
		}
		idx = w
		lo, next = windowSpan(idx, dur)
	}
	return nil
}

// windowSpan returns the stream times [lo, next) whose window index is idx.
// Integer division truncates toward zero, so a negative window (only a
// hand-built checkpoint can hold one) is no such interval: it gets an
// empty span, and every event takes the division.
func windowSpan(idx int, dur time.Duration) (lo, next time.Duration) {
	lo = time.Duration(idx) * dur
	if idx < 0 {
		return lo, lo
	}
	return lo, lo + dur
}

// ingestLocked applies one event to detector state. It is the shared path
// for live ingest and WAL replay — the latter must mutate state exactly as
// the former did, or a recovered run diverges. The ingest hook runs first,
// before any mutation, so a hook that panics (poison event) or errors
// leaves the gateway bit-identical to never having seen the event.
func (g *Gateway) ingestLocked(e event.Event) error {
	if g.ingestHook != nil {
		if err := g.ingestHook(e); err != nil {
			return err
		}
	}
	g.met.events.Inc()
	// Advance the clock first: a post-restart rebase shifts every stamp
	// it finds, and must not shift this event's own.
	g.observeClockLocked(e.At)
	s := g.liveSlot(e.Device)
	s.at, s.seen = e.At, true
	if d := e.At + g.liveThreshold; d < g.nextDark {
		g.nextDark = d
	}
	if s.dark {
		s.dark = false // a dark device that reports again has recovered
		g.nDark--
		g.met.dark.Set(int64(g.nDark))
	}
	done, err := g.builder.Add(e)
	if err != nil {
		return err
	}
	if err := g.processLocked(done); err != nil {
		return err
	}
	g.checkLivenessLocked()
	return nil
}

// AdvanceTo declares that stream time has reached t, closing any windows
// that ended before it even if no events arrived (a silent home must still
// produce windows: an all-quiet window is itself a state set). Only an
// advance that actually moves the horizon is logged to the WAL, so replay
// sees exactly the ops that mutated state.
func (g *Gateway) AdvanceTo(t time.Duration) error {
	g.mu.Lock()
	defer g.mu.Unlock()
	if t <= g.horizon {
		return nil
	}
	if err := g.logRecordLocked(wal.AdvanceRecord(t)); err != nil {
		return err
	}
	return g.advanceLocked(t)
}

func (g *Gateway) advanceLocked(t time.Duration) error {
	if t <= g.horizon {
		return nil
	}
	g.horizon = t
	g.observeClockLocked(t)
	done, err := g.builder.AdvanceTo(t)
	if err != nil {
		return err
	}
	if err := g.processLocked(done); err != nil {
		return err
	}
	g.checkLivenessLocked()
	return nil
}

// observeClockLocked moves the stream clock forward. The first live (not
// replayed) movement after a restore consumes the pending liveness rebase:
// if the jump exceeds the silence threshold, the gap is gateway downtime,
// not device silence, so every last-seen stamp shifts forward by the gap —
// otherwise a gateway down for an afternoon would declare the whole home
// dark before the first post-restart window. A seamless resume (jump
// within the threshold) shifts nothing, keeping restart bit-identity.
func (g *Gateway) observeClockLocked(t time.Duration) {
	if t <= g.streamNow {
		return
	}
	if g.rebasePending && !g.replaying {
		if delta := t - g.streamNow; g.liveThreshold > 0 && delta > g.liveThreshold {
			g.eachLive(func(_ device.ID, s *liveState) {
				if s.seen {
					s.at += delta
				}
			})
			g.nextDark = scanDark
		}
		g.rebasePending = false
	}
	g.streamNow = t
}

// logRecordLocked appends one advance op to the WAL (no-op without one).
// The record encodes into a stack buffer that Append copies, so the path
// stays free of steady-state allocations.
func (g *Gateway) logRecordLocked(rec wal.Record) error {
	if g.wal == nil {
		return nil
	}
	var buf [wal.RecordSize]byte
	seq, err := g.wal.Append(rec.AppendTo(buf[:0]))
	if err != nil {
		return fmt.Errorf("gateway: wal append: %w", err)
	}
	g.walSeq = seq
	return nil
}

// WALSeq returns the sequence number of the last op logged or replayed (0
// when no WAL is attached or nothing has been logged).
func (g *Gateway) WALSeq() uint64 {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.walSeq
}

// WAL returns the attached log (nil if none) so owners can truncate it
// after persisting a covering checkpoint.
func (g *Gateway) WAL() *wal.Log { return g.wal }

// Home returns the tenant name set with WithHome ("" for single-home).
func (g *Gateway) Home() string { return g.home }

// RecoverWAL replays the attached WAL's tail past the last checkpointed
// sequence number (WALSeq of the restored checkpoint, or the whole log on
// a cold start), re-applying each op through the same code path live
// ingest uses. Call it once, after New/RestoreCheckpoint and before any
// live traffic. A record whose application panics — the poison event that
// likely killed the previous incarnation — is captured to the dead-letter
// sink and skipped, so recovery cannot wedge on its own history. Errors
// returned by individual ops are discarded, mirroring the live run where
// the caller received them and the gateway kept going.
func (g *Gateway) RecoverWAL() error {
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.wal == nil {
		return nil
	}
	if err := g.continueSeqLocked(); err != nil {
		return fmt.Errorf("gateway: wal recover: %w", err)
	}
	g.replaying = true
	err := g.wal.Replay(g.walSeq, func(seq uint64, payload []byte) error {
		rec, derr := wal.DecodeRecord(payload)
		if derr != nil {
			return derr
		}
		g.applyRecordLocked(seq, rec)
		g.walSeq = seq
		return nil
	})
	g.replaying = false
	if err != nil {
		return fmt.Errorf("gateway: wal replay: %w", err)
	}
	// Continue the sequence chain from the log's true tail even if replay
	// stopped early (decode skip or a damaged middle segment): new appends
	// get fresh sequence numbers either way.
	if last := g.wal.LastSeq(); last > g.walSeq {
		g.walSeq = last
	}
	g.rebasePending = true
	return nil
}

// ImportTail adopts a WAL tail shipped from another node: the frames are
// appended to the local log (continuing the donor's sequence space via
// SkipTo when the local log is fresh) and then applied through the replay
// path, exactly as RecoverWAL would have applied them from local disk.
// Call it after RestoreCheckpoint on the shipped checkpoint and before any
// live traffic.
//
// Two properties matter for a correct adoption. First, application runs
// with the replaying flag set, so the tail's clock movements do not consume
// the pending liveness rebase — the rebase must wait for the first live
// event on the new node, where a handoff gap longer than the silence
// threshold reads as downtime (last-seen stamps shift) instead of marking
// every device in the home dark. Second, the frames reach the log before
// they mutate state, preserving the log-before-apply invariant a crash
// mid-adoption depends on.
func (g *Gateway) ImportTail(frames [][]byte) error {
	g.mu.Lock()
	defer g.mu.Unlock()
	base := g.walSeq
	if g.wal != nil {
		if err := g.continueSeqLocked(); err != nil {
			return err
		}
		if len(frames) > 0 {
			last, err := g.wal.AppendBatch(frames)
			if err != nil {
				return fmt.Errorf("gateway: import tail: %w", err)
			}
			base = last - uint64(len(frames))
		}
	}
	g.replaying = true
	for i, p := range frames {
		rec, err := wal.DecodeRecord(p)
		if err != nil {
			g.replaying = false
			return fmt.Errorf("gateway: import tail frame %d: %w", i, err)
		}
		g.applyRecordLocked(base+uint64(i)+1, rec)
	}
	g.replaying = false
	if g.wal != nil {
		if last := g.wal.LastSeq(); last > g.walSeq {
			g.walSeq = last
		}
	} else {
		g.walSeq = base + uint64(len(frames))
	}
	g.rebasePending = true
	return nil
}

// continueSeqLocked continues the restored checkpoint's sequence space on
// an empty log — a fresh node adopting a migrated tenant, or a WAL
// directory deleted beside its checkpoint — so the checkpoint's WALSeq
// stays meaningful here. Otherwise new appends would reuse seqs at or
// below it, and the next recovery would skip them as already covered.
func (g *Gateway) continueSeqLocked() error {
	if g.wal.LastSeq() == 0 && g.walSeq > 0 {
		return g.wal.SkipTo(g.walSeq)
	}
	return nil
}

// applyRecordLocked applies one replayed op, converting a panic into a
// dead-letter entry + skip instead of letting it wedge recovery.
func (g *Gateway) applyRecordLocked(seq uint64, rec wal.Record) {
	defer func() {
		if p := recover(); p != nil {
			//nolint:errcheck // forensics, not state: a failed dead-letter
			// write must not abort recovery.
			g.deadLetter.Record(wal.Entry(g.home, seq, rec, p, debug.Stack(), true))
		}
	}()
	switch rec.Kind {
	case wal.KindIngest:
		g.ingestLocked(rec.Event()) //nolint:errcheck // see RecoverWAL doc
	case wal.KindAdvance:
		g.advanceLocked(rec.At) //nolint:errcheck // see RecoverWAL doc
	}
}

// checkLivenessLocked raises one fail-stop alert per device whose silence
// exceeds the threshold; the device stays marked dark (no re-alerting)
// until it reports again. Devices are visited in ID order so alert order
// is deterministic. The walk is skipped until the stream clock passes
// nextDark, the earliest time any entry can go dark, and recomputes it.
func (g *Gateway) checkLivenessLocked() {
	if g.liveThreshold <= 0 || g.streamNow <= g.nextDark {
		return
	}
	g.nextDark = math.MaxInt64
	g.eachLive(func(id device.ID, s *liveState) {
		if !s.seen || s.dark {
			return
		}
		if g.streamNow-s.at <= g.liveThreshold {
			g.nextDark = min(g.nextDark, s.at+g.liveThreshold)
			return
		}
		s.dark = true
		g.nDark++
		g.met.dark.Set(int64(g.nDark))
		g.met.liveness.Inc()
		last := s.at
		out := Alert{
			Cause:      core.CheckLiveness,
			DetectedAt: last + g.liveThreshold,
			ReportedAt: g.streamNow,
		}
		if dev, err := g.reg.Get(id); err == nil {
			out.Devices = append(out.Devices, dev)
		}
		// Liveness alerts have no detector episode; synthesize the trace so
		// every alert on /alerts/last is explainable. Groups and distance
		// carry their not-applicable sentinels.
		dur := g.builder.Duration()
		out.Explain = &core.Explain{
			Cause:          core.CheckLiveness,
			DetectedWindow: int(out.DetectedAt / dur),
			ReportedWindow: int(out.ReportedAt / dur),
			PrevGroup:      core.NoGroup,
			MainGroup:      core.NoGroup,
			MinDistance:    core.NoDistance,
			Steps: []core.ExplainStep{{
				Window:    int(out.ReportedAt / dur),
				Violation: core.CheckLiveness,
				Suspects:  []device.ID{id},
			}},
		}
		g.deliverLocked(out)
	})
}

// liveSlot returns id's tracker entry; an ID outside the registry gets
// its entry in the overflow, created on first use.
func (g *Gateway) liveSlot(id device.ID) *liveState {
	if uint(id) < uint(len(g.live)) {
		return &g.live[id]
	}
	return g.extraSlot(id)
}

// extraSlot is liveSlot's overflow path, kept out of line so that liveSlot
// inlines into the per-event path.
func (g *Gateway) extraSlot(id device.ID) *liveState {
	i := sort.Search(len(g.liveExtra), func(i int) bool { return g.liveExtra[i].id >= id })
	if i == len(g.liveExtra) || g.liveExtra[i].id != id {
		g.liveExtra = slices.Insert(g.liveExtra, i, liveEntry{id: id})
	}
	return &g.liveExtra[i].liveState
}

// eachLive visits every tracker entry in ascending ID order: the overflow's
// negative IDs, the registry's table, then the overflow's IDs past it.
func (g *Gateway) eachLive(fn func(device.ID, *liveState)) {
	i := 0
	for ; i < len(g.liveExtra) && g.liveExtra[i].id < 0; i++ {
		fn(g.liveExtra[i].id, &g.liveExtra[i].liveState)
	}
	for id := range g.live {
		fn(device.ID(id), &g.live[id])
	}
	for ; i < len(g.liveExtra); i++ {
		fn(g.liveExtra[i].id, &g.liveExtra[i].liveState)
	}
}

// processLocked runs completed windows through the detector. Processed
// observations are recycled into the builder's freelist — the detector
// copies what it keeps (Process retains nothing from the observation),
// so a steady-state stream reuses the same window state allocation.
func (g *Gateway) processLocked(obs []*window.Observation) error {
	d := g.builder.Duration()
	for _, o := range obs {
		res, err := g.det.Process(o)
		if err != nil {
			return err
		}
		g.met.windows.Inc()
		if res.Detected {
			g.met.violations.Inc()
		}
		// A multi-fault window can conclude several episodes at once;
		// every alert is delivered, in episode-opening order.
		for _, a := range res.Alerts {
			g.emit(a, d)
		}
		// The adapter sees every window with its verdict, under the same
		// lock that serializes Process — a published version swaps in
		// before the next window, never mid-scan.
		if g.adapter != nil {
			pub, err := g.adapter.Observe(o, res)
			if err != nil {
				return err
			}
			if pub != nil {
				if err := g.det.SwapContext(pub); err != nil {
					return err
				}
			}
		}
		g.builder.Recycle(o)
	}
	return nil
}

func (g *Gateway) emit(a *core.Alert, d time.Duration) {
	out := Alert{
		Cause:      a.Cause,
		DetectedAt: time.Duration(a.DetectedWindow) * d,
		ReportedAt: time.Duration(a.ReportedWindow) * d,
		Explain:    a.Explain,
	}
	for _, id := range a.Devices {
		if dev, err := g.reg.Get(id); err == nil {
			out.Devices = append(out.Devices, dev)
		} else {
			// A ghost alert names an ID the registry never issued — the
			// whole point of the check. Surface it as a synthetic record
			// rather than silently dropping the culprit.
			out.Devices = append(out.Devices, device.Device{
				ID: id, Name: fmt.Sprintf("ghost-%d", int(id)),
			})
		}
	}
	g.met.alertLatency.Observe((out.ReportedAt - out.DetectedAt).Seconds())
	g.deliverLocked(out)
}

// replayYields bounds the yields deliverLocked spends on a full channel
// while replaying before it counts a drop. One suffices when the consumer
// waits on this processor; the rest cover a consumer running on another.
const replayYields = 16

// deliverLocked records the alert as the last one emitted and hands it to
// the sink if there is one. Otherwise it goes to the channel, counting a
// drop instead of blocking when the buffer is full. Replay re-emits a
// tail's alerts at read speed, faster than a consumer that is runnable but
// not running drains them, so a replaying gateway first yields the
// processor a bounded number of times to let it catch up.
func (g *Gateway) deliverLocked(out Alert) {
	last := out
	g.lastAlert = &last
	if g.sink != nil {
		g.met.alerts.Inc()
		g.sink(out)
		return
	}
	for try := 0; ; try++ {
		select {
		case g.alerts <- out:
			g.met.alerts.Inc()
			return
		default:
		}
		if !g.replaying || try == replayYields {
			g.met.alertsDropped.Inc()
			return
		}
		runtime.Gosched()
	}
}
