// Package window aggregates raw event streams into the fixed-duration
// observations DICE consumes. The paper calls the window length the
// "duration" of the sensor state set and finds one minute optimal (§VI);
// both the batch evaluator and the live gateway build observations through
// this package so detection behaves identically offline and online.
package window

import (
	"fmt"
	"time"

	"repro/internal/device"
	"repro/internal/event"
	"repro/internal/telemetry"
)

// DefaultDuration is the paper's empirically optimal state-set duration.
const DefaultDuration = time.Minute

// Observation is everything DICE sees about one window: which binary
// sensors fired, the numeric samples of each numeric sensor, and which
// actuators were activated.
type Observation struct {
	// Index is the window's ordinal position (window k covers
	// [k*d, (k+1)*d) from the recording start).
	Index int
	// Binary has one entry per binary sensor, in registry order; true iff
	// the sensor fired at least once during the window (Eq. 3.1).
	Binary []bool
	// Numeric has one entry per numeric sensor, in registry order, holding
	// the time-ordered samples observed during the window. An empty slice
	// means the sensor reported nothing (e.g. a fail-stop fault).
	Numeric [][]float64
	// Actuated lists the actuators that were switched on during the window,
	// deduplicated, in registry order.
	Actuated []device.ID
}

// Clone returns a deep copy, so fault injectors can mutate observations
// without corrupting shared state.
func (o *Observation) Clone() *Observation {
	c := &Observation{Index: o.Index}
	c.Binary = append([]bool(nil), o.Binary...)
	c.Numeric = make([][]float64, len(o.Numeric))
	for i, s := range o.Numeric {
		c.Numeric[i] = append([]float64(nil), s...)
	}
	c.Actuated = append([]device.ID(nil), o.Actuated...)
	return c
}

// slotKind is the family of dense slots a device's events fold into.
type slotKind uint8

const (
	noSlot slotKind = iota // unknown device: its events are ignored
	binarySlot
	numericSlot
	actuatorSlot
)

// slot is a device's place in an observation: its kind and its dense index
// among the devices of that kind.
type slot struct {
	kind slotKind
	idx  int32
}

// Layout maps between device IDs and the per-kind dense slots used inside
// observations and state sets. It is derived once from a registry.
type Layout struct {
	reg *device.Registry
	// slots is indexed by device ID: registry IDs are dense indices, so one
	// bounds-checked load replaces a map lookup per kind.
	slots    []slot
	binaries []device.ID
	numerics []device.ID
	acts     []device.ID
}

// NewLayout builds the slot mapping for a registry.
func NewLayout(reg *device.Registry) *Layout {
	l := &Layout{
		reg:      reg,
		slots:    make([]slot, reg.Len()),
		binaries: reg.Binaries(),
		numerics: reg.Numerics(),
		acts:     reg.Actuators(),
	}
	fill := func(kind slotKind, ids []device.ID) {
		for i, id := range ids {
			l.slots[id] = slot{kind: kind, idx: int32(i)}
		}
	}
	fill(binarySlot, l.binaries)
	fill(numericSlot, l.numerics)
	fill(actuatorSlot, l.acts)
	return l
}

// slotOf returns id's slot, or the zero (noSlot) slot for an ID outside
// the registry.
func (l *Layout) slotOf(id device.ID) slot {
	if uint(id) < uint(len(l.slots)) {
		return l.slots[id]
	}
	return slot{}
}

// slotIndex returns id's dense index when it is a device of the given kind.
func (l *Layout) slotIndex(id device.ID, kind slotKind) (int, bool) {
	if s := l.slotOf(id); s.kind == kind {
		return int(s.idx), true
	}
	return 0, false
}

// Registry returns the registry the layout was built from.
func (l *Layout) Registry() *device.Registry { return l.reg }

// NumBinary returns the number of binary sensor slots.
func (l *Layout) NumBinary() int { return len(l.binaries) }

// NumNumeric returns the number of numeric sensor slots.
func (l *Layout) NumNumeric() int { return len(l.numerics) }

// NumActuators returns the number of actuator slots.
func (l *Layout) NumActuators() int { return len(l.acts) }

// BinarySlot returns the dense slot for a binary sensor ID.
func (l *Layout) BinarySlot(id device.ID) (int, bool) { return l.slotIndex(id, binarySlot) }

// NumericSlot returns the dense slot for a numeric sensor ID.
func (l *Layout) NumericSlot(id device.ID) (int, bool) { return l.slotIndex(id, numericSlot) }

// ActuatorSlot returns the dense slot for an actuator ID.
func (l *Layout) ActuatorSlot(id device.ID) (int, bool) { return l.slotIndex(id, actuatorSlot) }

// BinaryID returns the device ID occupying binary slot s.
func (l *Layout) BinaryID(s int) device.ID { return l.binaries[s] }

// NumericID returns the device ID occupying numeric slot s.
func (l *Layout) NumericID(s int) device.ID { return l.numerics[s] }

// ActuatorID returns the device ID occupying actuator slot s.
func (l *Layout) ActuatorID(s int) device.ID { return l.acts[s] }

// NewObservation returns an empty observation shaped for the layout.
func (l *Layout) NewObservation(index int) *Observation {
	return &Observation{
		Index:   index,
		Binary:  make([]bool, len(l.binaries)),
		Numeric: make([][]float64, len(l.numerics)),
	}
}

// Builder folds a sorted event stream into consecutive observations. It is
// single-goroutine; the gateway wraps it with its own synchronization.
type Builder struct {
	layout   *Layout
	duration time.Duration
	cur      *Observation
	actSeen  map[device.ID]bool
	// floor is the first window index that has not been emitted yet; it
	// advances monotonically so time can never regress even across
	// Flush/AdvanceTo.
	floor int
	// built counts emitted windows; partial counts Flush calls that emitted
	// an in-progress (not yet time-complete) window. Both are nil until
	// Instrument is called and every call site is nil-safe.
	built   *telemetry.Counter
	partial *telemetry.Counter
	// free holds recycled observations (see Recycle): their Binary/Numeric
	// backing arrays are reused for the next window, so a steady-state
	// stream allocates no per-window state.
	free []*Observation
	// emitted backs the slice Add and AdvanceTo return; it is reused by the
	// next call, so emitting windows allocates nothing once it has grown to
	// the largest burst.
	emitted []*Observation
}

// NewBuilder returns a builder producing windows of the given duration.
// A non-positive duration falls back to DefaultDuration.
func NewBuilder(layout *Layout, duration time.Duration) *Builder {
	if duration <= 0 {
		duration = DefaultDuration
	}
	return &Builder{
		layout:   layout,
		duration: duration,
		actSeen:  make(map[device.ID]bool),
	}
}

// Duration returns the window duration.
func (b *Builder) Duration() time.Duration { return b.duration }

// Instrument registers the builder's counters against the registry:
// windows emitted (by event overflow or time advance) and partial
// flushes. A nil registry leaves the builder uninstrumented.
func (b *Builder) Instrument(reg *telemetry.Registry) {
	if reg == nil {
		return
	}
	b.built = reg.Counter("dice_window_built_total", "Windows emitted by the builder (complete windows, including empty ones).")
	b.partial = reg.Counter("dice_window_partial_flush_total", "In-progress windows force-flushed before their duration elapsed.")
}

// Add folds one event in. Events must arrive in non-decreasing time order;
// an event belonging to a later window than the current one causes the
// current observation (and any skipped empty ones) to be emitted via the
// returned slice. The caller owns the returned observations, but the slice
// itself is reused by the builder: it is valid only until the next Add or
// AdvanceTo, so copy the pointers out before calling again.
func (b *Builder) Add(e event.Event) ([]*Observation, error) {
	idx := int(e.At / b.duration)
	if e.At < 0 {
		return nil, fmt.Errorf("window: negative event time %s", e.At)
	}
	out := b.emitted[:0]
	if b.cur == nil {
		if idx < b.floor {
			return nil, fmt.Errorf("window: event at %s regresses before window %d", e.At, b.floor)
		}
		b.cur = b.newObservation(b.floor)
	}
	if idx < b.cur.Index {
		return nil, fmt.Errorf("window: event at %s regresses before window %d", e.At, b.cur.Index)
	}
	for idx > b.cur.Index {
		out = append(out, b.cur)
		b.built.Inc()
		b.startWindow(b.cur.Index + 1)
	}
	b.fold(e)
	b.emitted = out
	return out, nil
}

// Flush emits the in-progress observation, if any, and resets the builder.
// The time floor is preserved: later events must not regress.
func (b *Builder) Flush() *Observation {
	o := b.cur
	b.cur = nil
	for k := range b.actSeen {
		delete(b.actSeen, k)
	}
	if o != nil {
		b.floor = o.Index + 1
		b.built.Inc()
		b.partial.Inc()
	}
	return o
}

// AdvanceTo declares that stream time has reached t, emitting every window
// that ends at or before it — including empty ones. A silent stretch of a
// smart home still produces windows; the all-quiet window is itself a
// sensor state set the detector must judge. As with Add, the caller owns
// the observations and the returned slice is valid only until the next Add
// or AdvanceTo.
func (b *Builder) AdvanceTo(t time.Duration) ([]*Observation, error) {
	if t < 0 {
		return nil, fmt.Errorf("window: negative advance time %s", t)
	}
	target := int(t / b.duration) // first window still open at time t
	out := b.emitted[:0]
	if b.cur == nil {
		if target <= b.floor {
			return nil, nil
		}
		b.cur = b.newObservation(b.floor)
	}
	for b.cur.Index < target {
		out = append(out, b.cur)
		b.built.Inc()
		b.startWindow(b.cur.Index + 1)
	}
	b.emitted = out
	return out, nil
}

// BuilderState is the JSON-serializable runtime state of a Builder: the
// time floor, the partial in-progress observation, and the actuators
// already counted in it. A gateway checkpoints it so the events of a
// half-built window are not lost across a restart — losing them would make
// the first post-restart window look half-empty and trip a spurious
// correlation violation.
type BuilderState struct {
	Floor   int          `json:"floor"`
	Cur     *Observation `json:"cur,omitempty"`
	ActSeen []device.ID  `json:"act_seen,omitempty"`
}

// ExportState snapshots the builder's runtime state. The snapshot shares
// nothing with the builder.
func (b *Builder) ExportState() BuilderState {
	st := BuilderState{Floor: b.floor}
	if b.cur != nil {
		st.Cur = b.cur.Clone()
	}
	for id := range b.actSeen {
		st.ActSeen = insertSorted(st.ActSeen, id)
	}
	return st
}

// RestoreState replaces the builder's runtime state with a snapshot taken
// by ExportState, validating the partial observation against the layout.
func (b *Builder) RestoreState(st BuilderState) error {
	if st.Cur != nil {
		if len(st.Cur.Binary) != b.layout.NumBinary() || len(st.Cur.Numeric) != b.layout.NumNumeric() {
			return fmt.Errorf("window: restored observation shaped %d/%d, layout wants %d/%d",
				len(st.Cur.Binary), len(st.Cur.Numeric), b.layout.NumBinary(), b.layout.NumNumeric())
		}
		if st.Cur.Index < st.Floor {
			return fmt.Errorf("window: restored observation index %d behind floor %d", st.Cur.Index, st.Floor)
		}
	}
	b.floor = st.Floor
	b.cur = nil
	if st.Cur != nil {
		b.cur = st.Cur.Clone()
	}
	b.actSeen = make(map[device.ID]bool, len(st.ActSeen))
	for _, id := range st.ActSeen {
		b.actSeen[id] = true
	}
	return nil
}

func (b *Builder) startWindow(idx int) {
	b.cur = b.newObservation(idx)
	b.floor = idx
	for k := range b.actSeen {
		delete(b.actSeen, k)
	}
}

// newObservation pops a recycled observation if one is available,
// otherwise allocates a fresh one from the layout.
func (b *Builder) newObservation(idx int) *Observation {
	if n := len(b.free); n > 0 {
		o := b.free[n-1]
		b.free[n-1] = nil
		b.free = b.free[:n-1]
		o.Index = idx
		return o
	}
	return b.layout.NewObservation(idx)
}

// CurrentIndex returns the index of the window the next event would land
// in or after: the open window's index, or the floor when none is open.
// Batch ingest uses it to pre-validate that a whole batch is monotonic
// before logging any of it.
func (b *Builder) CurrentIndex() int {
	if b.cur != nil {
		return b.cur.Index
	}
	return b.floor
}

// Recycle returns an emitted observation to the builder's freelist so its
// backing arrays back a future window. Only observations this builder
// emitted (via Add/AdvanceTo/Flush) and that the caller is finished with
// may be recycled; an observation of the wrong shape is dropped rather
// than pooled. The caller must not touch o afterwards.
func (b *Builder) Recycle(o *Observation) {
	if o == nil || len(o.Binary) != b.layout.NumBinary() || len(o.Numeric) != b.layout.NumNumeric() {
		return
	}
	for i := range o.Binary {
		o.Binary[i] = false
	}
	for i := range o.Numeric {
		o.Numeric[i] = o.Numeric[i][:0]
	}
	o.Actuated = o.Actuated[:0]
	o.Index = 0
	b.free = append(b.free, o)
}

func (b *Builder) fold(e event.Event) {
	s := b.layout.slotOf(e.Device)
	switch s.kind {
	case binarySlot:
		if e.Value != 0 {
			b.cur.Binary[s.idx] = true
		}
	case numericSlot:
		b.cur.Numeric[s.idx] = append(b.cur.Numeric[s.idx], e.Value)
	case actuatorSlot:
		// Only switch-on events count as actuator activations for G2A/A2G.
		if e.Value != 0 && !b.actSeen[e.Device] {
			b.actSeen[e.Device] = true
			b.cur.Actuated = insertSorted(b.cur.Actuated, e.Device)
		}
	}
	// Events from unknown devices (noSlot) are ignored: a live deployment
	// may carry devices the detector was not trained on.
}

func insertSorted(ids []device.ID, id device.ID) []device.ID {
	pos := len(ids)
	for i, v := range ids {
		if id < v {
			pos = i
			break
		}
	}
	ids = append(ids, 0)
	copy(ids[pos+1:], ids[pos:])
	ids[pos] = id
	return ids
}

// FromEvents windows a complete sorted event slice into observations
// covering [0, horizon). Windows with no events are still emitted (empty
// observations), which is what lets fail-stop faults surface as all-zero
// state sets.
func FromEvents(layout *Layout, duration time.Duration, evts []event.Event, horizon time.Duration) ([]*Observation, error) {
	if duration <= 0 {
		duration = DefaultDuration
	}
	n := int(horizon / duration)
	out := make([]*Observation, 0, n)
	b := NewBuilder(layout, duration)
	for _, e := range evts {
		if e.At >= horizon {
			break
		}
		emitted, err := b.Add(e)
		if err != nil {
			return nil, err
		}
		out = append(out, emitted...)
	}
	if last := b.Flush(); last != nil {
		out = append(out, last)
	}
	// Pad leading gap (if the first event was late) and trailing gap.
	return padWindows(layout, out, n), nil
}

func padWindows(layout *Layout, obs []*Observation, n int) []*Observation {
	full := make([]*Observation, 0, n)
	next := 0
	for _, o := range obs {
		for next < o.Index && next < n {
			full = append(full, layout.NewObservation(next))
			next++
		}
		if o.Index < n {
			full = append(full, o)
			next = o.Index + 1
		}
	}
	for next < n {
		full = append(full, layout.NewObservation(next))
		next++
	}
	return full
}
