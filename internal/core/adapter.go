package core

import (
	"fmt"

	"repro/internal/bitvec"
	"repro/internal/device"
	"repro/internal/telemetry"
	"repro/internal/window"
)

// Adapter is the online half of context extraction: it watches the window
// stream the detector already processed and evolves the context behind it,
// publishing each adaptation as a new immutable Context version the caller
// swaps into the detector. It closes the gap the paper leaves open — a
// context frozen at precomputation time slowly turns behavioral drift (new
// routines, seasons) into false alarms.
//
// Three mechanisms, all conservative by default:
//
//   - Reinforcement: windows the detector confirmed non-faulty (no
//     violation, no episode in flight) re-observe their transitions into
//     the working copy, so ongoing behavior keeps its transition counts
//     topped up against decay.
//   - Admission: an unseen state set becomes a candidate group; after
//     sustained observation (AdmitAfter sightings with no concluded alert
//     explaining it as a fault) it is admitted to the catalogue together
//     with the transitions recorded at its sightings. Unseen transitions
//     between known groups earn admission the same way. A concluded alert
//     whose devices cover a candidate's differing sensors drops that
//     candidate: a stuck sensor repeats its unseen set just as stubbornly
//     as a new routine does, and the alert is the detector saying which of
//     the two it believes this is.
//   - Aging: every DecayEvery windows the working copy's transition counts
//     decay exponentially; edges that fade to zero are forgotten, so stale
//     behavior stops vouching for transitions the home no longer makes.
//
// The adapter never mutates a published Context: it works on a
// copy-on-write builder derived from the latest version and publishes by
// sealing it, so the detector always scans one frozen snapshot and the
// zero-alloc hot path is untouched between swaps.
//
// An Adapter is not safe for concurrent use; the gateway drives it under
// the same lock that serializes the detector.
type Adapter struct {
	cfg adapterOptions
	bin *Binarizer
	cur *Context
	cb  *ContextBuilder

	pending map[string]*pendingSet
	edges   map[edgeKey]int

	windows  uint64
	prevID   int
	prevKey  string
	prevPend *pendingSet
	prevActs []device.ID

	// dwell and lastFire mirror the trainer's gap bookkeeping so clean
	// windows reinforce the interval sketches with the same gaps a
	// retraining would record. No-ops against v1 (sketch-less) contexts.
	dwell    int
	lastFire []int

	groupsAdmitted int64
	edgesAdmitted  int64
	decayedEdges   int64

	// Per-window scratch: the adapter is serial by contract, so the clean
	// known-group path allocates nothing.
	vec     *bitvec.Vec
	keyBuf  []byte
	scratch ScanScratch

	met ctxMetrics
}

// Adaptation defaults; deliberately patient — admission must outlast any
// identification episode a genuine fault can sustain, so fault evidence is
// repeatedly explained (and its candidates dropped) before it could ever
// be admitted as drift.
const (
	// DefaultAdmitAfter is the sustained-observation threshold for new
	// groups and transitions (half an hour of repeats at the default
	// window duration).
	DefaultAdmitAfter = 30
	// DefaultDecayFactor halves transition counts each aging cycle.
	DefaultDecayFactor = 0.5
	// DefaultDecayEvery ages the transition counts once per week of
	// one-minute windows.
	DefaultDecayEvery = 7 * 24 * 60
	// DefaultMaxPending bounds the tracked candidate sets; further unseen
	// sets are ignored until a slot frees up.
	DefaultMaxPending = 512
)

// AdapterOption configures an Adapter at construction.
type AdapterOption func(*adapterOptions)

type adapterOptions struct {
	admitAfter  int
	decayFactor float64
	decayEvery  int
	tel         *telemetry.Registry
}

// WithAdmitAfter sets how many sightings an unseen state set (or unseen
// transition) needs before it is admitted into the context.
func WithAdmitAfter(n int) AdapterOption {
	return func(o *adapterOptions) { o.admitAfter = n }
}

// WithDecay sets the exponential aging of transition counts: every `every`
// windows, counts are scaled by factor (0 < factor < 1) and edges that
// fade below one observation are forgotten. every <= 0 disables aging.
func WithDecay(factor float64, every int) AdapterOption {
	return func(o *adapterOptions) {
		o.decayFactor = factor
		o.decayEvery = every
	}
}

// WithAdapterTelemetry instruments the adapter against the registry (the
// dice_ctx_* series). A nil registry leaves it uninstrumented.
func WithAdapterTelemetry(reg *telemetry.Registry) AdapterOption {
	return func(o *adapterOptions) { o.tel = reg }
}

// Context-adaptation metric names. The rollback counter lives with the
// checkpoint machinery that performs rollbacks (the gateway), under the
// same dice_ctx_ prefix.
const (
	metricCtxEpoch          = "dice_ctx_epoch"
	metricCtxGroupsAdmitted = "dice_ctx_groups_admitted_total"
	metricCtxEdgesAdmitted  = "dice_ctx_edges_admitted_total"
	metricCtxDecayedEdges   = "dice_ctx_decayed_edges_total"
)

// ctxMetrics holds the adapter's instruments; the zero value is the
// uninstrumented state (every method is nil-safe).
type ctxMetrics struct {
	epoch          *telemetry.Gauge
	groupsAdmitted *telemetry.Counter
	edgesAdmitted  *telemetry.Counter
	decayedEdges   *telemetry.Counter
}

func newCtxMetrics(reg *telemetry.Registry) ctxMetrics {
	if reg == nil {
		return ctxMetrics{}
	}
	return ctxMetrics{
		epoch:          reg.Gauge(metricCtxEpoch, "Context version the detector currently scans against."),
		groupsAdmitted: reg.Counter(metricCtxGroupsAdmitted, "Groups admitted to the catalogue by online adaptation."),
		edgesAdmitted:  reg.Counter(metricCtxEdgesAdmitted, "Transitions admitted by online adaptation."),
		decayedEdges:   reg.Counter(metricCtxDecayedEdges, "Transitions forgotten by exponential aging."),
	}
}

// pendingSet is one unseen state set under sustained observation, together
// with everything needed to wire it into the transition matrices if it is
// admitted: the transitions and actuator firings recorded at its sightings.
type pendingSet struct {
	vec         *bitvec.Vec
	count       int
	firstWindow uint64
	// devices own the bits where the set differs from its nearest known
	// groups at first sighting — the alert guard's evidence.
	devices []device.ID
	// preds / predKeys / succs record group transitions at sightings: known
	// predecessor IDs, pending predecessors (by bit-string key), and known
	// successors. predActs / actsAfter record actuator slots fired in the
	// window before / after a sighting (the A2G / G2A evidence).
	preds     map[int]int64
	predKeys  map[string]int64
	succs     map[int]int64
	predActs  map[int]int64
	actsAfter map[int]int64
}

// edgeKey identifies one unseen transition between known states.
type edgeKey struct {
	kind     CheckKind
	from, to int
}

// NewAdapter returns an adapter evolving the given context version.
func NewAdapter(base *Context, opts ...AdapterOption) (*Adapter, error) {
	if base == nil {
		return nil, fmt.Errorf("core: nil context")
	}
	if base.NumGroups() == 0 {
		return nil, fmt.Errorf("core: context has no groups")
	}
	o := adapterOptions{
		admitAfter:  DefaultAdmitAfter,
		decayFactor: DefaultDecayFactor,
		decayEvery:  DefaultDecayEvery,
	}
	for _, opt := range opts {
		opt(&o)
	}
	if o.admitAfter < 1 {
		o.admitAfter = 1
	}
	bin, err := NewBinarizer(base.Layout(), base.ValueThre())
	if err != nil {
		return nil, err
	}
	lastFire := make([]int, base.Layout().NumActuators())
	for i := range lastFire {
		lastFire[i] = -1
	}
	a := &Adapter{
		cfg:      o,
		bin:      bin,
		cur:      base,
		cb:       base.Derive(),
		pending:  make(map[string]*pendingSet),
		edges:    make(map[edgeKey]int),
		prevID:   NoGroup,
		lastFire: lastFire,
		vec:      bitvec.New(bin.NumBits()),
		met:      newCtxMetrics(o.tel),
	}
	a.met.epoch.Set(int64(base.Epoch()))
	return a, nil
}

// Context returns the latest published version.
func (a *Adapter) Context() *Context { return a.cur }

// Epoch returns the latest published version's epoch.
func (a *Adapter) Epoch() uint64 { return a.cur.Epoch() }

// GroupsAdmitted returns the total groups admitted over the adapter's life.
func (a *Adapter) GroupsAdmitted() int64 { return a.groupsAdmitted }

// EdgesAdmitted returns the total transitions admitted.
func (a *Adapter) EdgesAdmitted() int64 { return a.edgesAdmitted }

// DecayedEdges returns the total transitions forgotten by aging.
func (a *Adapter) DecayedEdges() int64 { return a.decayedEdges }

// PendingSets returns the number of candidate state sets under observation.
func (a *Adapter) PendingSets() int { return len(a.pending) }

// Windows returns how many windows the adapter has observed.
func (a *Adapter) Windows() uint64 { return a.windows }

// Observe feeds the adapter one window together with the Result the
// detector concluded for it. Windows must arrive in time order, matching
// what the detector processed. When the accumulated evidence publishes a
// new context version it is returned (the caller swaps it into the
// detector); otherwise the first return is nil.
func (a *Adapter) Observe(o *window.Observation, res Result) (*Context, error) {
	a.windows++
	if err := a.bin.StateSetInto(a.vec, o); err != nil {
		return nil, err
	}
	a.keyBuf = a.vec.AppendKey(a.keyBuf[:0])
	curID, known := a.cur.groupIDs[string(a.keyBuf)]

	clean := res.Violation == CheckNone && !res.Identifying && res.Alert == nil
	var curPend *pendingSet
	var curKey string

	switch {
	case known && clean:
		a.reinforce(curID, o)
	case known:
		// A known set on a violating window: the transition was unseen.
		a.observeEdges(curID, o)
		if a.prevPend != nil {
			a.prevPend.succs[curID]++
		}
	default:
		curKey = a.vec.String()
		curPend = a.observePending(curKey, o)
	}

	if len(res.Alerts) > 0 {
		for _, al := range res.Alerts {
			a.dropCovered(al.Devices)
		}
		if curPend != nil && a.pending[curKey] == nil {
			curPend = nil // the alerts just explained this window's set away
		}
	} else if res.Alert != nil {
		a.dropCovered(res.Alert.Devices)
		if curPend != nil && a.pending[curKey] == nil {
			curPend = nil // the alert just explained this window's set away
		}
	}

	published, err := a.maybeAdapt()
	if err != nil {
		return nil, err
	}

	// Roll the previous-window state forward (dwell/lastFire exactly as the
	// detector's advance does, so both sides measure the same gaps).
	switch {
	case !known:
		a.dwell = 0
	case curID == a.prevID:
		a.dwell++
	default:
		a.dwell = 1
	}
	for _, act := range o.Actuated {
		if slot, ok := a.cur.layout.ActuatorSlot(act); ok {
			a.lastFire[slot] = o.Index
		}
	}
	if known {
		a.prevID, a.prevKey, a.prevPend = curID, "", nil
	} else {
		a.prevID, a.prevKey, a.prevPend = NoGroup, curKey, curPend
	}
	a.prevActs = append(a.prevActs[:0], o.Actuated...)
	return published, nil
}

// reinforce re-observes a confirmed-clean window's transitions into the
// working copy, keeping live behavior's counts topped up against decay.
// Allocation-free at steady state: every touched row already exists (the
// window was clean, so its transitions were already possible).
func (a *Adapter) reinforce(curID int, o *window.Observation) {
	layout := a.cur.layout
	if a.prevID != NoGroup {
		a.cb.ObserveG2G(a.prevID, curID)
		if curID != a.prevID && a.dwell > 0 {
			a.cb.ObserveG2GGap(a.prevID, curID, a.dwell)
		}
		for _, act := range o.Actuated {
			if slot, ok := layout.ActuatorSlot(act); ok {
				a.cb.ObserveG2A(a.prevID, slot)
				if a.dwell > 0 {
					a.cb.ObserveG2AGap(a.prevID, slot, a.dwell)
				}
			}
		}
		if curID != a.prevID {
			for slot, at := range a.lastFire {
				if at < 0 {
					continue
				}
				if gap := o.Index - at; gap >= 1 && gap <= TimingA2GHorizon {
					a.cb.ObserveA2GGap(slot, curID, gap)
				}
			}
		}
	}
	for _, act := range a.prevActs {
		if slot, ok := layout.ActuatorSlot(act); ok {
			a.cb.ObserveA2G(slot, curID)
		}
	}
}

// observeEdges records unseen transitions between known states for
// sustained-observation admission, mirroring the detector's three checks
// against the working copy's chains.
func (a *Adapter) observeEdges(curID int, o *window.Observation) {
	layout := a.cur.layout
	wc := a.cb.ctx
	if a.prevID != NoGroup {
		if !wc.g2g.Possible(a.prevID, curID) {
			a.edges[edgeKey{CheckG2G, a.prevID, curID}]++
		}
		for _, act := range o.Actuated {
			if slot, ok := layout.ActuatorSlot(act); ok && !wc.g2a.Possible(a.prevID, slot) {
				a.edges[edgeKey{CheckG2A, a.prevID, slot}]++
			}
		}
	}
	for _, act := range a.prevActs {
		slot, ok := layout.ActuatorSlot(act)
		if !ok {
			continue
		}
		if wc.a2g.Known(slot) && !wc.a2g.Possible(slot, curID) {
			a.edges[edgeKey{CheckA2G, slot, curID}]++
		}
	}
}

// observePending credits (or starts) the candidate entry for an unseen
// state set and records this sighting's transition evidence.
func (a *Adapter) observePending(key string, o *window.Observation) *pendingSet {
	p := a.pending[key]
	if p == nil {
		if len(a.pending) >= DefaultMaxPending {
			return nil
		}
		p = &pendingSet{
			vec:         a.vec.Clone(),
			firstWindow: a.windows,
			devices:     a.diffDevices(a.vec),
			preds:       make(map[int]int64),
			predKeys:    make(map[string]int64),
			succs:       make(map[int]int64),
			predActs:    make(map[int]int64),
			actsAfter:   make(map[int]int64),
		}
		a.pending[key] = p
	}
	p.count++
	if a.prevID != NoGroup {
		p.preds[a.prevID]++
	} else if a.prevKey != "" {
		p.predKeys[a.prevKey]++
	}
	layout := a.cur.layout
	for _, act := range a.prevActs {
		if slot, ok := layout.ActuatorSlot(act); ok {
			p.predActs[slot]++
		}
	}
	if a.prevPend != nil {
		for _, act := range o.Actuated {
			if slot, ok := layout.ActuatorSlot(act); ok {
				a.prevPend.actsAfter[slot]++
			}
		}
	}
	return p
}

// diffDevices returns the devices owning the bits where v differs from its
// nearest known groups — the candidate's "what would have to be faulty for
// this to be noise" set, compared against alert devices by the guard.
func (a *Adapter) diffDevices(v *bitvec.Vec) []device.ID {
	cands := a.cur.ScanWith(&a.scratch, v, 3)
	var seen []device.ID
	for _, gid := range cands.Probable {
		g, err := a.cur.Group(gid)
		if err != nil {
			continue
		}
		for _, bit := range v.Diff(g) {
			if id, err := a.bin.DeviceForBit(bit); err == nil {
				seen = append(seen, id)
			}
		}
	}
	return setOf(seen)
}

// dropCovered implements the alert guard: a concluded alert naming devices
// D drops every candidate set whose differing sensors are a subset of D —
// the detector just explained that evidence as a fault, so it must not
// earn drift credit. Pending transitions deliberately survive alerts: an
// admitted edge legitimizes exactly one (from, to) pair, so a fault that
// repeats one identical transition from one consistent prior state is
// indistinguishable from a changed automation rule — while any broader
// fault (a spurious actuator fires from many groups, a noisy sensor lands
// in many sets) spreads its evidence too thin for any single edge to reach
// the admission threshold, and keeps tripping the edges it has not earned.
func (a *Adapter) dropCovered(alerted []device.ID) {
	for key, p := range a.pending {
		if len(p.devices) > 0 && subsetOf(p.devices, alerted) {
			delete(a.pending, key)
		}
	}
}

// maybeAdapt runs admission and aging, publishing a new version when
// either changed detection-relevant state.
func (a *Adapter) maybeAdapt() (*Context, error) {
	dirty := a.admit()
	if a.cfg.decayEvery > 0 && a.windows%uint64(a.cfg.decayEvery) == 0 {
		if pruned := a.cb.DecayChains(a.cfg.decayFactor); pruned > 0 {
			a.decayedEdges += int64(pruned)
			a.met.decayedEdges.Add(int64(pruned))
			dirty = true
		}
	}
	if !dirty {
		return nil, nil
	}
	ctx, err := a.cb.Build()
	if err != nil {
		return nil, err
	}
	a.cur = ctx
	a.met.epoch.Set(int64(ctx.Epoch()))
	return ctx, nil
}

// admit moves candidates past the sustained-observation threshold into the
// working copy: groups first (so co-admitted predecessors resolve), then
// their recorded transitions, then standalone transition candidates.
func (a *Adapter) admit() bool {
	var keys []string
	for key, p := range a.pending {
		if p.count >= a.cfg.admitAfter {
			keys = append(keys, key)
		}
	}
	dirty := false
	if len(keys) > 0 {
		sortStrings(keys)
		admitted := make(map[string]int, len(keys))
		for _, key := range keys {
			admitted[key] = a.cb.AddGroup(a.pending[key].vec)
		}
		for _, key := range keys {
			p := a.pending[key]
			id := admitted[key]
			a.wireGroup(id, p, admitted)
			delete(a.pending, key)
		}
		a.groupsAdmitted += int64(len(keys))
		a.met.groupsAdmitted.Add(int64(len(keys)))
		dirty = true
	}
	for k, n := range a.edges {
		if n < a.cfg.admitAfter {
			continue
		}
		for i := 0; i < n; i++ {
			switch k.kind {
			case CheckG2G:
				a.cb.ObserveG2G(k.from, k.to)
			case CheckG2A:
				a.cb.ObserveG2A(k.from, k.to)
			case CheckA2G:
				a.cb.ObserveA2G(k.from, k.to)
			}
		}
		delete(a.edges, k)
		a.edgesAdmitted++
		a.met.edgesAdmitted.Inc()
		dirty = true
	}
	return dirty
}

// wireGroup folds an admitted group's sighting evidence into the chains.
// Pending predecessors that are not part of this batch (and were not
// admitted earlier) are dropped: if they earn admission later, the edge
// re-accumulates through the unseen-transition path.
func (a *Adapter) wireGroup(id int, p *pendingSet, admitted map[string]int) {
	observeN := func(fn func(int, int), from, to int, n int64) {
		for i := int64(0); i < n; i++ {
			fn(from, to)
		}
	}
	for from, n := range p.preds {
		observeN(a.cb.ObserveG2G, from, id, n)
	}
	for key, n := range p.predKeys {
		from, ok := admitted[key]
		if !ok {
			if v, err := bitvec.Parse(key); err == nil {
				from, ok = a.cb.GroupID(v)
			}
		}
		if ok {
			observeN(a.cb.ObserveG2G, from, id, n)
		}
	}
	for to, n := range p.succs {
		observeN(a.cb.ObserveG2G, id, to, n)
	}
	for slot, n := range p.predActs {
		observeN(a.cb.ObserveA2G, slot, id, n)
	}
	for slot, n := range p.actsAfter {
		observeN(a.cb.ObserveG2A, id, slot, n)
	}
}

func sortStrings(s []string) {
	for i := 1; i < len(s); i++ {
		for j := i; j > 0 && s[j] < s[j-1]; j-- {
			s[j], s[j-1] = s[j-1], s[j]
		}
	}
}
