package hub

import (
	"errors"
	"fmt"

	"repro/internal/core"
	"repro/internal/gateway"
)

// ErrMigrating is returned for data ops on a tenant that is mid-handoff to
// another node. The op was not applied and will not be covered by the
// exported state; the caller should retry against the new owner.
var ErrMigrating = errors.New("hub: tenant migrating")

// ExportedTenant is the wire-shippable closure of one tenant's durable
// state: a checksummed checkpoint envelope, the WAL tail past it (empty by
// construction — ExportTenant checkpoints after the drain — but shipped so
// an adopter never has to trust that), and the source's settled counters,
// which the adopter re-derives and compares as a bit-identity oracle.
type ExportedTenant struct {
	Home       string        `json:"home"`
	Checkpoint []byte        `json:"checkpoint"`
	Tail       [][]byte      `json:"tail,omitempty"`
	Stats      gateway.Stats `json:"stats"`
}

// ExportTenant drains a tenant and packages its full state for adoption by
// another hub, evicting it locally on the way out:
//
//  1. the tenant enters Migrating — ops already queued still apply (the
//     export happens after the drain, so they are covered), new data ops
//     are rejected with ErrMigrating so the caller re-routes them;
//  2. a barrier proves every accepted op has been applied;
//  3. a fresh checkpoint is written locally (the shared-state fail-over
//     path sees it too) and encoded into the envelope, with the WAL tail
//     past it;
//  4. the tenant is evicted and its WAL closed, so the adopter is the only
//     writer from here on.
//
// On failure before eviction the tenant returns to Healthy and keeps
// serving locally. A quarantined or suspect tenant refuses to export: its
// in-memory state is not trustworthy, and fail-over from durable state is
// the correct path for it.
func (h *Hub) ExportTenant(home string) (*ExportedTenant, error) {
	h.mu.RLock()
	if h.closed {
		h.mu.RUnlock()
		return nil, ErrClosed
	}
	t, ok := h.tenants[home]
	h.mu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrUnknownHome, home)
	}
	if !t.health.CompareAndSwap(int32(HealthHealthy), int32(HealthMigrating)) {
		return nil, fmt.Errorf("hub: tenant %q is %s, not migratable", home, Health(t.health.Load()))
	}
	abort := func(err error) (*ExportedTenant, error) {
		t.health.CompareAndSwap(int32(HealthMigrating), int32(HealthHealthy))
		return nil, err
	}
	if err := h.Drain(home); err != nil {
		return abort(err)
	}
	// A panic while the queue drained would have flipped the tenant to
	// Quarantined and marked it suspect — its memory is no longer exportable.
	if Health(t.health.Load()) != HealthMigrating || t.suspect.Load() {
		return nil, fmt.Errorf("hub: tenant %q crashed during migration drain", home)
	}
	if err := t.ensureRestored(h); err != nil {
		return abort(err)
	}
	cp := t.gateway().ExportCheckpoint()
	cp.Home = home
	env, err := gateway.EncodeCheckpoint(cp)
	if err != nil {
		return abort(err)
	}
	if t.cpPath != "" {
		if err := gateway.WriteCheckpoint(t.cpPath, cp); err != nil {
			return abort(err)
		}
	}
	exp := &ExportedTenant{Home: home, Checkpoint: env, Stats: t.gateway().Stats()}
	if t.wl != nil {
		if err := t.wl.TruncateThrough(cp.WALSeq); err != nil {
			return abort(err)
		}
		tail, err := t.wl.ExportTail(cp.WALSeq)
		if err != nil {
			return abort(err)
		}
		exp.Tail = tail
	}

	// Point of no return: evict, so the adopter becomes the sole writer.
	h.mu.Lock()
	delete(h.tenants, home)
	h.evicted[home] = true
	h.met.tenants.Set(int64(len(h.tenants)))
	h.mu.Unlock()
	t.sup.Lock()
	t.health.Store(int32(HealthEvicted))
	t.sup.Unlock()
	h.updateQuarantineGauge()
	h.met.evictions.Inc()
	if t.wl != nil {
		if err := t.wl.Close(); err != nil {
			return exp, err
		}
	}
	return exp, nil
}

// Adopt registers a tenant from an ExportTenant envelope and restores it
// eagerly: checkpoint first, then the WAL — the local log's own tail when
// the nodes share durable state (the adopter's Register reopened the
// donor's WAL directory), the shipped tail otherwise, appended so the
// donor's sequence space continues unbroken. The restored counters must
// equal the donor's settled Stats — the same oracle the crash-recovery
// drills gate on — or the adoption fails before the tenant serves anything.
func (h *Hub) Adopt(exp *ExportedTenant, cctx *core.Context, opts ...gateway.Option) (*Tenant, error) {
	if exp == nil {
		return nil, errors.New("hub: nil tenant export")
	}
	cp, err := gateway.DecodeCheckpoint(exp.Checkpoint)
	if err != nil {
		return nil, err
	}
	if cp.Home != "" && cp.Home != exp.Home {
		return nil, fmt.Errorf("hub: export for %q carries checkpoint for %q", exp.Home, cp.Home)
	}
	tn, err := h.Register(exp.Home, cctx, opts...)
	if err != nil {
		return nil, err
	}
	t := tn.t
	t.restore.Do(func() {
		gw := t.gateway()
		t.restoreErr = gw.RestoreCheckpoint(cp)
		if t.restoreErr != nil {
			return
		}
		if t.wl != nil && t.wl.LastSeq() > 0 {
			// Shared durable state: the reopened log already holds the
			// donor's frames; replay anything past the checkpoint.
			t.restoreErr = gw.RecoverWAL()
		} else {
			t.restoreErr = gw.ImportTail(exp.Tail)
		}
	})
	if t.restoreErr != nil {
		h.Evict(exp.Home) //nolint:errcheck // adoption failed; best-effort cleanup
		return nil, fmt.Errorf("hub: adopt %q: %w", exp.Home, t.restoreErr)
	}
	if got := t.gateway().Stats(); got != exp.Stats {
		h.Evict(exp.Home) //nolint:errcheck // adoption failed; best-effort cleanup
		return nil, fmt.Errorf("hub: adopt %q: restored stats %+v != donor %+v", exp.Home, got, exp.Stats)
	}
	if err := h.checkpointTenant(t); err != nil {
		return nil, err
	}
	return tn, nil
}

// Restore forces the tenant's lazy durable-state load to run now. A no-op
// if it already ran; the cold fail-over path calls it so a re-placed home
// is proven loadable (and its counters settled) before traffic resumes.
func (tn *Tenant) Restore() error { return tn.t.ensureRestored(tn.h) }
