package hub

import (
	"runtime/debug"
	"time"

	"repro/internal/gateway"
	"repro/internal/wal"
)

// Health is a tenant's position in the supervision state machine.
//
//	Healthy     — applying ops normally
//	Degraded    — alive, but the overload policy shed events for it recently
//	Migrating   — mid-handoff to another node: ops already queued still
//	              apply (they are covered by the exported state), new ones
//	              are rejected with ErrMigrating so the caller re-routes
//	Quarantined — its gateway panicked; ops are dropped while the supervisor
//	              rebuilds it from checkpoint + WAL (or forever, once the
//	              circuit breaker has tripped)
//	Evicted     — unregistered; only the durable state remains
type Health int32

const (
	HealthHealthy Health = iota
	HealthDegraded
	// HealthMigrating sits below HealthQuarantined so applyOp's drop
	// threshold (>= Quarantined) still applies the queued ops a migration
	// barrier is waiting on.
	HealthMigrating
	HealthQuarantined
	HealthEvicted
)

func (s Health) String() string {
	switch s {
	case HealthHealthy:
		return "healthy"
	case HealthDegraded:
		return "degraded"
	case HealthMigrating:
		return "migrating"
	case HealthQuarantined:
		return "quarantined"
	case HealthEvicted:
		return "evicted"
	default:
		return "unknown"
	}
}

// MarshalJSON renders the state as its lowercase name.
func (s Health) MarshalJSON() ([]byte, error) {
	return []byte(`"` + s.String() + `"`), nil
}

// degradedWindow is how long after a shed a tenant reports Degraded.
const degradedWindow = 10 * time.Second

// maxRestartBackoff caps the exponential restart delay.
const maxRestartBackoff = 30 * time.Second

// currentHealth derives the externally visible state: the stored state,
// except that a recently shed (but otherwise healthy) tenant is Degraded.
func (t *tenant) currentHealth() Health {
	st := Health(t.health.Load())
	if st != HealthHealthy {
		return st
	}
	if ls := t.lastShed.Load(); ls != 0 && time.Since(time.Unix(0, ls)) < degradedWindow {
		return HealthDegraded
	}
	return HealthHealthy
}

// shedNow stamps the tenant as having just lost an event to overload.
func (t *tenant) shedNow() { t.lastShed.Store(time.Now().UnixNano()) }

// updateQuarantineGauge recounts quarantined tenants after a transition.
func (h *Hub) updateQuarantineGauge() {
	h.mu.RLock()
	defer h.mu.RUnlock()
	n := 0
	for _, t := range h.tenants {
		if Health(t.health.Load()) == HealthQuarantined {
			n++
		}
	}
	h.met.quarantined.Set(int64(n))
}

// onPanic is the supervisor's catch: the op that blew up is captured to
// the tenant's dead-letter file, the tenant is quarantined (its in-memory
// state is now suspect and will never be checkpointed), and — unless the
// circuit breaker trips — a restart from durable state is scheduled with
// exponential backoff. Runs on the shard worker, so every later op for
// this tenant already sees the quarantine.
func (h *Hub) onPanic(t *tenant, o op, p any, stack []byte) {
	h.met.panics.Inc()
	seq := t.gateway().WALSeq()
	if o.kind == opAdvance {
		//nolint:errcheck // forensics must not block supervision
		t.dl.Record(wal.Entry(t.home, seq, wal.AdvanceRecord(o.at), p, stack, false))
	} else {
		// Which event in the batch was poison is unknown here; capture them
		// all. WAL replay after restart pins down the exact record.
		for _, e := range *o.evs {
			//nolint:errcheck // forensics must not block supervision
			t.dl.Record(wal.Entry(t.home, seq, wal.IngestRecord(e), p, stack, false))
		}
	}

	t.suspect.Store(true)
	t.health.Store(int32(HealthQuarantined))
	h.updateQuarantineGauge()

	t.sup.Lock()
	now := time.Now()
	cutoff := now.Add(-h.o.panicWindow)
	keep := t.panicTimes[:0]
	for _, pt := range t.panicTimes {
		if pt.After(cutoff) {
			keep = append(keep, pt)
		}
	}
	t.panicTimes = append(keep, now)
	strikes := len(t.panicTimes)
	t.sup.Unlock()

	if strikes >= h.o.maxPanics {
		// Circuit open: this tenant has panicked maxPanics times inside the
		// window — restarting it again would just burn CPU replaying its way
		// back into the same crash. It stays quarantined (ops dropped,
		// siblings untouched) until evicted or the operator intervenes.
		h.met.breakerTrips.Inc()
		return
	}
	backoff := h.o.restartBackoff << (strikes - 1)
	if backoff > maxRestartBackoff || backoff <= 0 {
		backoff = maxRestartBackoff
	}
	go func() {
		time.Sleep(backoff)
		h.restartTenant(t)
	}()
}

// restartTenant rebuilds a quarantined tenant's pipeline from durable
// state: a fresh gateway on the same trained context, options, telemetry
// registry, and WAL, restored from the on-disk checkpoint and the WAL tail
// (the poison record, if it reached the log, dead-letters and skips during
// replay). On success the new gateway is swapped in atomically and the
// tenant returns to Healthy.
func (h *Hub) restartTenant(t *tenant) {
	h.mu.RLock()
	stale := h.closed || h.tenants[t.home] != t
	h.mu.RUnlock()
	if stale {
		return
	}
	t.sup.Lock()
	defer t.sup.Unlock()
	if Health(t.health.Load()) == HealthEvicted {
		return
	}
	gw, err := gateway.New(t.cctx, t.gwOpts...)
	if err == nil {
		err = h.restoreGateway(t, gw)
	}
	if err != nil {
		// The durable state itself cannot be loaded — retrying is pointless,
		// so the breaker opens and the tenant stays quarantined.
		h.met.breakerTrips.Inc()
		return
	}
	t.gw.Store(gw)
	t.suspect.Store(false)
	t.health.Store(int32(HealthHealthy))
	h.met.restarts.Inc()
	h.updateQuarantineGauge()
}

// Health reports one home's supervision state. Evicted homes (known to
// this hub instance) report HealthEvicted; unknown homes report false.
func (h *Hub) Health(home string) (Health, bool) {
	h.mu.RLock()
	defer h.mu.RUnlock()
	if t, ok := h.tenants[home]; ok {
		return t.currentHealth(), true
	}
	if h.evicted[home] {
		return HealthEvicted, true
	}
	return HealthHealthy, false
}

// Health reports the tenant's current supervision state.
func (tn *Tenant) Health() Health { return tn.t.currentHealth() }

// applyOp runs one data op on its tenant's gateway with the supervisor
// wrapped around it: quarantined tenants drop ops, lazily-restored state
// loads first, and a panic in dispatch is converted into quarantine +
// scheduled restart instead of killing the shard (and with it every tenant
// that hashes there).
func (h *Hub) applyOp(o op, f func(*gateway.Gateway) error) {
	t := o.t
	if Health(t.health.Load()) >= HealthQuarantined {
		h.met.droppedOps.Inc()
		return
	}
	if err := t.ensureRestored(h); err != nil {
		h.met.ingestErrors.Inc()
		return
	}
	if h.o.idle > 0 {
		// Only idle eviction reads the stamp; without it the clock read
		// would be paid on every op for nothing.
		t.lastOp.Store(time.Now().UnixNano())
	}
	defer func() {
		if p := recover(); p != nil {
			h.onPanic(t, o, p, debug.Stack())
		}
	}()
	if err := f(t.gateway()); err != nil {
		h.met.ingestErrors.Inc()
	}
}
