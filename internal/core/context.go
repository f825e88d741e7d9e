package core

import (
	"bytes"
	"cmp"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"hash/fnv"
	"io"
	"math/bits"
	"slices"
	"sort"
	"time"

	"repro/internal/bitvec"
	"repro/internal/device"
	"repro/internal/markov"
	"repro/internal/window"
)

// NoGroup marks "no group" wherever a group ID is expected (an unmatched
// state set, or an unknown previous group).
const NoGroup = -1

// NoDistance is the Candidates.MinDistance sentinel for "no distance was
// computed": the catalogue is empty, or an exact match made the nearest-
// group search unnecessary.
const NoDistance = -1

// Context is an immutable snapshot of the extracted context: the group
// catalogue (unique sensor state sets) and the three transition matrices.
// Construction goes through a ContextBuilder (the Trainer's output, or a
// copy-on-write derivation of an earlier version via Derive); once built, a
// Context never changes, so the detector's scan path needs no locking and a
// published version can be swapped in atomically. Each version carries an
// epoch and a content fingerprint chained to its parent's, which is what
// lets a checkpoint pin — and a rollback verify — the exact context a
// detector was running against.
type Context struct {
	layout    *window.Layout
	duration  time.Duration
	valueThre []float64

	// Version identity: epoch 0 is the trained base; each adaptation
	// publishes epoch+1 with parent = the previous version's fingerprint.
	epoch       uint64
	parent      string
	fingerprint string

	groups   []*bitvec.Vec
	groupIDs map[string]int

	// Scan index, maintained incrementally by AddGroup so Scan needs no
	// locking: the catalogue is immutable once training ends, and the
	// real-time phase only reads. Group g's words live at
	// matrix[g*scanWords : (g+1)*scanWords] — one flat contiguous block
	// scanned word-at-a-time with popcount, instead of chasing per-group
	// vector pointers. popBuckets[p] lists (ascending) the groups with
	// popcount p; |pop(v)-pop(g)| <= dist(v,g), so a scan for candidates
	// within maxDist never touches buckets farther than maxDist from the
	// query's popcount.
	scanWords  int
	matrix     []uint64
	pops       []int
	popBuckets [][]int

	g2g *markov.Chain // group -> group
	g2a *markov.Chain // group -> actuator slot
	a2g *markov.Chain // actuator slot -> group

	// Interval sketches: per-edge inter-window gap histograms annotating
	// the three chains with *pace* (schema v2). All three are nil on a
	// structural-only (v1) context, which disables the timing check; the
	// trainer always records them, so freshly trained contexts are v2.
	g2gGaps *markov.SketchSet // group -> group dwell before the hop
	g2aGaps *markov.SketchSet // dwell in the group when the slot fires
	a2gGaps *markov.SketchSet // windows since the slot's last firing

	// Actuator effect statistics: for each actuator slot, how often each
	// sensor's bits rose in the same window as the actuator's activation.
	// Identification uses them to attribute a missing-effect anomaly to a
	// silent actuator instead of the sensor that reported it (§5.1.3:
	// actuator faults must be identified as the actuator).
	effectCounts map[int]map[device.ID]int64
	actCounts    map[int]int64
}

// newContext returns an empty mutable context for the layout; only the
// builder path reaches it.
func newContext(layout *window.Layout, duration time.Duration, valueThre []float64) (*Context, error) {
	if layout == nil {
		return nil, fmt.Errorf("core: nil layout")
	}
	if len(valueThre) != layout.NumNumeric() {
		return nil, fmt.Errorf("core: %d thresholds for %d numeric sensors",
			len(valueThre), layout.NumNumeric())
	}
	if duration <= 0 {
		duration = DefaultDuration
	}
	return &Context{
		layout:       layout,
		duration:     duration,
		valueThre:    append([]float64(nil), valueThre...),
		groupIDs:     make(map[string]int),
		g2g:          markov.NewChain(),
		g2a:          markov.NewChain(),
		a2g:          markov.NewChain(),
		effectCounts: make(map[int]map[device.ID]int64),
		actCounts:    make(map[int]int64),
	}, nil
}

// clone deep-copies every structure a builder may mutate; the layout and
// group vectors are immutable and shared.
func (c *Context) clone() *Context {
	out := &Context{
		layout:       c.layout,
		duration:     c.duration,
		valueThre:    c.valueThre,
		epoch:        c.epoch,
		parent:       c.parent,
		fingerprint:  c.fingerprint,
		groups:       append([]*bitvec.Vec(nil), c.groups...),
		groupIDs:     make(map[string]int, len(c.groupIDs)),
		scanWords:    c.scanWords,
		matrix:       append([]uint64(nil), c.matrix...),
		pops:         append([]int(nil), c.pops...),
		popBuckets:   make([][]int, len(c.popBuckets)),
		g2g:          c.g2g.Clone(),
		g2a:          c.g2a.Clone(),
		a2g:          c.a2g.Clone(),
		g2gGaps:      c.g2gGaps.Clone(),
		g2aGaps:      c.g2aGaps.Clone(),
		a2gGaps:      c.a2gGaps.Clone(),
		effectCounts: make(map[int]map[device.ID]int64, len(c.effectCounts)),
		actCounts:    make(map[int]int64, len(c.actCounts)),
	}
	for k, v := range c.groupIDs {
		out.groupIDs[k] = v
	}
	for i, b := range c.popBuckets {
		out.popBuckets[i] = append([]int(nil), b...)
	}
	for slot, row := range c.effectCounts {
		dst := make(map[device.ID]int64, len(row))
		for id, n := range row {
			dst[id] = n
		}
		out.effectCounts[slot] = dst
	}
	for slot, n := range c.actCounts {
		out.actCounts[slot] = n
	}
	return out
}

// Layout returns the device layout.
func (c *Context) Layout() *window.Layout { return c.layout }

// Epoch returns the context's version number: 0 for a freshly trained
// context, +1 per published adaptation.
func (c *Context) Epoch() uint64 { return c.epoch }

// Fingerprint returns the version's content hash (16 hex digits over the
// canonical persisted payload). Two contexts with the same fingerprint are
// bit-identical for detection purposes.
func (c *Context) Fingerprint() string { return c.fingerprint }

// ParentFingerprint returns the fingerprint of the version this one was
// derived from ("" for epoch 0).
func (c *Context) ParentFingerprint() string { return c.parent }

// Duration returns the window duration the context was trained at.
func (c *Context) Duration() time.Duration { return c.duration }

// ValueThre returns a copy of the numeric binarization thresholds.
func (c *Context) ValueThre() []float64 { return append([]float64(nil), c.valueThre...) }

// NumGroups returns the number of distinct groups.
func (c *Context) NumGroups() int { return len(c.groups) }

// Group returns the state set of group id. The caller must not mutate it.
func (c *Context) Group(id int) (*bitvec.Vec, error) {
	if id < 0 || id >= len(c.groups) {
		return nil, fmt.Errorf("core: unknown group %d", id)
	}
	return c.groups[id], nil
}

// GroupID returns the ID of the group exactly matching v, or (NoGroup,
// false).
func (c *Context) GroupID(v *bitvec.Vec) (int, bool) {
	id, ok := c.groupIDs[v.Key()]
	if !ok {
		return NoGroup, false
	}
	return id, true
}

// addGroup interns v as a group, returning its (possibly pre-existing) ID.
// The context keeps its own copy and folds it into the scan index. Only the
// builder path reaches it: a published Context is immutable.
func (c *Context) addGroup(v *bitvec.Vec) int {
	key := v.Key()
	if id, ok := c.groupIDs[key]; ok {
		return id
	}
	id := len(c.groups)
	c.groups = append(c.groups, v.Clone())
	c.groupIDs[key] = id

	if id == 0 {
		c.scanWords = v.NumWords()
	}
	c.matrix = v.AppendWords(c.matrix)
	pop := v.PopCount()
	c.pops = append(c.pops, pop)
	for pop >= len(c.popBuckets) {
		c.popBuckets = append(c.popBuckets, nil)
	}
	c.popBuckets[pop] = append(c.popBuckets[pop], id)
	return id
}

// G2G returns the group-to-group transition chain. Callers must treat it
// as read-only; growing it goes through a ContextBuilder.
func (c *Context) G2G() *markov.Chain { return c.g2g }

// G2A returns the group-to-actuator transition chain (actuators are
// identified by their layout slot). Read-only, as with G2G.
func (c *Context) G2A() *markov.Chain { return c.g2a }

// A2G returns the actuator-to-group transition chain. Read-only, as with
// G2G.
func (c *Context) A2G() *markov.Chain { return c.a2g }

// ContextSchemaV1 and ContextSchemaV2 name the persisted context payload
// versions: v1 carries only the structural chains; v2 adds the per-edge
// interval sketches the timing check reads.
const (
	ContextSchemaV1 = 1
	ContextSchemaV2 = 2
)

// TimingCapable reports whether the context carries interval sketches —
// i.e. whether a detector scanning it can run the timing check. A context
// loaded from a v1 save is not timing-capable; retraining (or deriving
// from a v2 parent) is what upgrades it.
func (c *Context) TimingCapable() bool {
	return c.g2gGaps != nil && c.g2aGaps != nil && c.a2gGaps != nil
}

// SchemaVersion returns the payload schema the context would persist as:
// ContextSchemaV2 when timing-capable, ContextSchemaV1 otherwise.
func (c *Context) SchemaVersion() int {
	if c.TimingCapable() {
		return ContextSchemaV2
	}
	return ContextSchemaV1
}

// G2GGaps returns the G2G interval sketches (nil on a v1 context).
// Read-only, as with the chains.
func (c *Context) G2GGaps() *markov.SketchSet { return c.g2gGaps }

// G2AGaps returns the G2A interval sketches (nil on a v1 context).
func (c *Context) G2AGaps() *markov.SketchSet { return c.g2aGaps }

// A2GGaps returns the A2G interval sketches (nil on a v1 context).
func (c *Context) A2GGaps() *markov.SketchSet { return c.a2gGaps }

// observeEffect records that `devices` had state-set bits rise in the same
// window actuator slot `slot` activated. Only the builder path reaches it.
func (c *Context) observeEffect(slot int, devices []device.ID) {
	c.actCounts[slot]++
	row := c.effectCounts[slot]
	if row == nil {
		row = make(map[device.ID]int64)
		c.effectCounts[slot] = row
	}
	for _, id := range devices {
		row[id]++
	}
}

// ActivationCount returns how many activations of the slot were observed
// during precomputation.
func (c *Context) ActivationCount(slot int) int64 { return c.actCounts[slot] }

// EffectDevices returns the sensors that co-rose with at least the given
// fraction of the slot's activations, ascending by ID.
func (c *Context) EffectDevices(slot int, minFraction float64) []device.ID {
	total := c.actCounts[slot]
	if total == 0 {
		return nil
	}
	var out []device.ID
	for id, n := range c.effectCounts[slot] {
		if float64(n) >= minFraction*float64(total) {
			out = append(out, id)
		}
	}
	slices.Sort(out)
	return out
}

// ContextBuilder is the single mutation path for contexts. A fresh builder
// (NewContextBuilder) accumulates the precomputation phase; a derived one
// (Context.Derive) is the copy-on-write path adaptation uses — it starts
// from a deep working copy of the parent version, so the published parent
// stays frozen while the builder admits groups and decays counts. Build
// seals the current state into an immutable Context and leaves the builder
// usable: each subsequent Build publishes the next epoch, chained to the
// previous build's fingerprint.
//
// A builder is not safe for concurrent use; contexts it builds are.
type ContextBuilder struct {
	ctx *Context
}

// NewContextBuilder returns an empty builder for the layout: the start of
// the version chain (its first Build publishes epoch 0).
func NewContextBuilder(layout *window.Layout, duration time.Duration, valueThre []float64) (*ContextBuilder, error) {
	ctx, err := newContext(layout, duration, valueThre)
	if err != nil {
		return nil, err
	}
	return &ContextBuilder{ctx: ctx}, nil
}

// Derive returns a builder seeded with a deep working copy of c, set up to
// publish epoch c.Epoch()+1 with c as the parent. Group IDs are stable
// across derivation: the catalogue is append-only, so every ID valid in c
// names the same state set in every descendant version.
func (c *Context) Derive() *ContextBuilder {
	cl := c.clone()
	cl.epoch = c.epoch + 1
	cl.parent = c.fingerprint
	cl.fingerprint = ""
	return &ContextBuilder{ctx: cl}
}

// NumGroups returns the number of groups accumulated so far.
func (b *ContextBuilder) NumGroups() int { return b.ctx.NumGroups() }

// GroupID returns the ID of the group exactly matching v, or (NoGroup,
// false).
func (b *ContextBuilder) GroupID(v *bitvec.Vec) (int, bool) { return b.ctx.GroupID(v) }

// AddGroup interns v as a group, returning its (possibly pre-existing) ID.
func (b *ContextBuilder) AddGroup(v *bitvec.Vec) int { return b.ctx.addGroup(v) }

// ObserveG2G counts one group-to-group transition.
func (b *ContextBuilder) ObserveG2G(from, to int) { b.ctx.g2g.Observe(from, to) }

// ObserveG2A counts one group-to-actuator-slot transition.
func (b *ContextBuilder) ObserveG2A(from, slot int) { b.ctx.g2a.Observe(from, slot) }

// ObserveA2G counts one actuator-slot-to-group transition.
func (b *ContextBuilder) ObserveA2G(slot, to int) { b.ctx.a2g.Observe(slot, to) }

// ObserveEffect records that `devices` had state-set bits rise in the same
// window actuator slot `slot` activated.
func (b *ContextBuilder) ObserveEffect(slot int, devices []device.ID) {
	b.ctx.observeEffect(slot, devices)
}

// EnableTiming allocates the interval sketch sets, upgrading the context
// under construction to schema v2. Idempotent; the trainer calls it, and a
// builder derived from a v2 parent inherits the capability without it.
func (b *ContextBuilder) EnableTiming() {
	if b.ctx.g2gGaps == nil {
		b.ctx.g2gGaps = markov.NewSketchSet()
	}
	if b.ctx.g2aGaps == nil {
		b.ctx.g2aGaps = markov.NewSketchSet()
	}
	if b.ctx.a2gGaps == nil {
		b.ctx.a2gGaps = markov.NewSketchSet()
	}
}

// TimingCapable reports whether the context under construction carries
// interval sketches.
func (b *ContextBuilder) TimingCapable() bool { return b.ctx.TimingCapable() }

// ObserveG2GGap records the dwell (consecutive windows spent in `from`)
// preceding one observed from->to group hop. A no-op on a v1 builder, so a
// derivation of a structural-only context stays structural-only.
func (b *ContextBuilder) ObserveG2GGap(from, to, gap int) {
	if b.ctx.g2gGaps != nil {
		b.ctx.g2gGaps.Observe(from, to, gap)
	}
}

// ObserveG2AGap records the dwell in group `from` at the moment actuator
// slot `slot` fired. A no-op on a v1 builder.
func (b *ContextBuilder) ObserveG2AGap(from, slot, gap int) {
	if b.ctx.g2aGaps != nil {
		b.ctx.g2aGaps.Observe(from, slot, gap)
	}
}

// ObserveA2GGap records how many windows after actuator slot `slot` last
// fired the home entered group `to`. A no-op on a v1 builder.
func (b *ContextBuilder) ObserveA2GGap(slot, to, gap int) {
	if b.ctx.a2gGaps != nil {
		b.ctx.a2gGaps.Observe(slot, to, gap)
	}
}

// DecayChains ages all three transition matrices by factor (see
// markov.Chain.Decay), ages the interval sketches in lockstep, and returns
// the total number of pruned edges (chain cells plus emptied sketches).
func (b *ContextBuilder) DecayChains(factor float64) int {
	pruned := b.ctx.g2g.Decay(factor) + b.ctx.g2a.Decay(factor) + b.ctx.a2g.Decay(factor)
	pruned += b.ctx.g2gGaps.Decay(factor) + b.ctx.g2aGaps.Decay(factor) + b.ctx.a2gGaps.Decay(factor)
	return pruned
}

// Build seals the builder's current state into an immutable Context,
// computing its fingerprint. The builder remains usable and moves to the
// next epoch: further mutation followed by another Build publishes the
// child version of the one just returned.
func (b *ContextBuilder) Build() (*Context, error) {
	built := b.ctx
	fp, err := built.computeFingerprint()
	if err != nil {
		return nil, err
	}
	built.fingerprint = fp
	next := built.clone()
	next.epoch = built.epoch + 1
	next.parent = built.fingerprint
	next.fingerprint = ""
	b.ctx = next
	return built, nil
}

// Candidates holds the result of scanning the group catalogue for a live
// state set (Figure 3.5).
type Candidates struct {
	// Main is the exactly matching group, or NoGroup.
	Main int
	// Probable lists groups within the candidate distance, excluding Main,
	// ascending by (distance, id). When no group falls within the candidate
	// distance it falls back to the nearest groups overall (a documented
	// extension; identification needs something to diff against). It is nil
	// when Main is set: detection only consults Probable when no main group
	// exists, so the scan skips the work entirely on the exact-match path.
	Probable []int
	// MinDistance is the smallest nonzero distance encountered across the
	// whole catalogue, or NoDistance when it was not computed (the
	// catalogue is empty, or Main short-circuited the scan).
	MinDistance int
}

// scanCand pairs a group with its distance while collecting candidates.
type scanCand struct{ id, dist int }

// ScanScratch holds reusable buffers for Scan. A zero value is ready; each
// detector (or other serial caller) owns one so repeated scans allocate
// nothing. It must not be shared between concurrent scans — the Candidates
// returned through a scratch alias its memory and stay valid only until the
// next scan through the same scratch.
type ScanScratch struct {
	key      []byte
	within   []scanCand
	nearest  []int
	probable []int
}

// Scan compares v against the group catalogue. maxDist is the candidate
// distance. It is safe for concurrent use (the catalogue is read-only after
// training); this convenience wrapper allocates a fresh scratch per call,
// so hot paths should hold a ScanScratch and call ScanWith instead.
func (c *Context) Scan(v *bitvec.Vec, maxDist int) Candidates {
	return c.ScanWith(new(ScanScratch), v, maxDist)
}

// ScanWith is Scan with caller-owned scratch. The exact-match path is a
// single hash probe; the violation path walks popcount buckets outward from
// the query's popcount (groups whose set-bit count differs from the query's
// by more than the candidate distance can never be candidates) and
// early-abandons each group's word loop once the running distance exceeds
// the current bound.
func (c *Context) ScanWith(s *ScanScratch, v *bitvec.Vec, maxDist int) Candidates {
	res := Candidates{Main: NoGroup, MinDistance: NoDistance}
	if len(c.groups) == 0 {
		return res
	}

	// Exact-match short-circuit: the detector only needs Probable and
	// MinDistance when there is no main group.
	s.key = v.AppendKey(s.key[:0])
	if id, ok := c.groupIDs[string(s.key)]; ok {
		res.Main = id
		return res
	}

	// Violation path: find every group within maxDist, tracking the overall
	// nearest groups for the fallback.
	const maxInt = int(^uint(0) >> 1)
	qw := v.Words()
	pv := v.PopCount()
	minDist := maxInt
	within := s.within[:0]
	nearest := s.nearest[:0]

	scanBucket := func(bucket []int) {
		// A group is worth an exact distance only if it could be within
		// maxDist or could improve/tie the running minimum.
		limit := maxDist
		if minDist > limit {
			limit = minDist
		}
		for _, id := range bucket {
			base := id * c.scanWords
			d := 0
			for i, w := range qw {
				d += bits.OnesCount64(w ^ c.matrix[base+i])
				if d > limit {
					d = -1
					break
				}
			}
			if d < 0 {
				continue
			}
			if d < minDist {
				minDist = d
				nearest = nearest[:0]
				nearest = append(nearest, id)
				if limit = maxDist; minDist > limit {
					limit = minDist
				}
			} else if d == minDist {
				nearest = append(nearest, id)
			}
			if d <= maxDist {
				within = append(within, scanCand{id, d})
			}
		}
	}

	maxPop := len(c.popBuckets) - 1
	for delta := 0; ; delta++ {
		lo, hi := pv-delta, pv+delta
		if lo < 0 && hi > maxPop {
			break
		}
		// Buckets at popcount distance delta hold groups at Hamming distance
		// >= delta: once delta exceeds both the candidate distance and the
		// best minimum so far, no remaining bucket can contribute.
		if delta > maxDist && delta > minDist {
			break
		}
		if lo >= 0 && lo <= maxPop {
			scanBucket(c.popBuckets[lo])
		}
		if hi != lo && hi >= 0 && hi <= maxPop {
			scanBucket(c.popBuckets[hi])
		}
	}
	s.within, s.nearest = within, nearest

	if minDist != maxInt {
		res.MinDistance = minDist
	}
	if len(within) > 0 {
		slices.SortFunc(within, compareScanCand)
		s.probable = s.probable[:0]
		for _, w := range within {
			s.probable = append(s.probable, w.id)
		}
		res.Probable = s.probable
	} else if len(nearest) > 0 {
		// Ties at the minimum can arrive from different buckets out of id
		// order; restore the ascending order the contract promises.
		slices.Sort(nearest)
		res.Probable = nearest
	}
	return res
}

// compareScanCand orders candidates by (distance, id), the order
// Candidates.Probable promises.
func compareScanCand(a, b scanCand) int {
	if c := cmp.Compare(a.dist, b.dist); c != 0 {
		return c
	}
	return cmp.Compare(a.id, b.id)
}

// ScanNaive is the retained O(groups) reference implementation of Scan: a
// straight loop over the catalogue with per-group Hamming distances. The
// equivalence tests and benchmarks hold the indexed Scan to this contract;
// it is not used by the real-time path.
func (c *Context) ScanNaive(v *bitvec.Vec, maxDist int) Candidates {
	res := Candidates{Main: NoGroup, MinDistance: NoDistance}
	if len(c.groups) == 0 {
		return res
	}
	const maxInt = int(^uint(0) >> 1)
	minDist := maxInt
	var within []scanCand
	var nearest []int
	for id, g := range c.groups {
		d := v.HammingDistance(g)
		if d == 0 {
			return Candidates{Main: id, MinDistance: NoDistance}
		}
		if d < minDist {
			minDist = d
			nearest = nearest[:0]
			nearest = append(nearest, id)
		} else if d == minDist {
			nearest = append(nearest, id)
		}
		if d <= maxDist {
			within = append(within, scanCand{id, d})
		}
	}
	if minDist != maxInt {
		res.MinDistance = minDist
	}
	if len(within) > 0 {
		sort.Slice(within, func(i, j int) bool {
			if within[i].dist != within[j].dist {
				return within[i].dist < within[j].dist
			}
			return within[i].id < within[j].id
		})
		res.Probable = make([]int, len(within))
		for i, w := range within {
			res.Probable[i] = w.id
		}
	} else {
		res.Probable = append([]int(nil), nearest...)
	}
	return res
}

// CorrelationDegree is the dataset health metric of Table 5.2: the average
// number of *active sensors* per group, where a numeric sensor counts as
// active when any of its three bits is set.
func (c *Context) CorrelationDegree() float64 {
	if len(c.groups) == 0 {
		return 0
	}
	nb := c.layout.NumBinary()
	total := 0
	for _, g := range c.groups {
		for i := 0; i < nb; i++ {
			if g.Get(i) {
				total++
			}
		}
		for j := 0; j < c.layout.NumNumeric(); j++ {
			base := nb + BitsPerNumeric*j
			if g.Get(base) || g.Get(base+1) || g.Get(base+2) {
				total++
			}
		}
	}
	return float64(total) / float64(len(c.groups))
}

// contextJSON is the persisted form of a context. Groups are bit strings;
// device names pin the layout so a context cannot be loaded against a
// different deployment. Epoch/Parent carry the version chain; Fingerprint
// is the content hash over this payload with the Fingerprint field empty.
type contextJSON struct {
	DurationMS  int64                       `json:"duration_ms"`
	Devices     []string                    `json:"devices"`
	ValueThre   []float64                   `json:"value_thre"`
	Epoch       uint64                      `json:"epoch,omitempty"`
	Parent      string                      `json:"parent,omitempty"`
	Fingerprint string                      `json:"fingerprint,omitempty"`
	Groups      []string                    `json:"groups"`
	G2G         *markov.Chain               `json:"g2g"`
	G2A         *markov.Chain               `json:"g2a"`
	A2G         *markov.Chain               `json:"a2g"`
	Effects     map[int]map[device.ID]int64 `json:"effects,omitempty"`
	ActCounts   map[int]int64               `json:"act_counts,omitempty"`
	// Schema and the interval sketches are the v2 additions. All four are
	// omitempty so a v1 context still produces byte-identical payloads —
	// and therefore the same fingerprint — as before the timing work.
	Schema  int               `json:"schema,omitempty"`
	G2GGaps *markov.SketchSet `json:"g2g_gaps,omitempty"`
	G2AGaps *markov.SketchSet `json:"g2a_gaps,omitempty"`
	A2GGaps *markov.SketchSet `json:"a2g_gaps,omitempty"`
}

// ErrCorruptContext marks a saved context whose checksum envelope or
// recorded fingerprint failed to verify — a torn write or bit rot, not a
// schema problem. Callers that can retrain should treat it as "no context"
// rather than restoring garbage.
var ErrCorruptContext = errors.New("core: corrupt context")

// ErrLegacyContext marks a context file without the DICECKS1 envelope: a
// plain-JSON save from before the envelope existed. It is not damage, and
// no build reads it any more; retrain (dice-train) to replace the file.
var ErrLegacyContext = errors.New("core: legacy context file without DICECKS1 envelope")

// ctxMagic opens the checksummed context envelope — the same DICECKS1
// framing gateway checkpoints use: magic + 4-byte little-endian CRC32-C of
// the JSON payload + the JSON.
var ctxMagic = [8]byte{'D', 'I', 'C', 'E', 'C', 'K', 'S', '1'}

var ctxCRCTable = crc32.MakeTable(crc32.Castagnoli)

// payloadJSON renders the canonical persisted payload. encoding/json sorts
// map keys and the chains marshal their cells sorted, so identical content
// always yields identical bytes — the property the fingerprint rests on.
func (c *Context) payloadJSON(fingerprint string) ([]byte, error) {
	devs := c.layout.Registry().All()
	names := make([]string, len(devs))
	for i, d := range devs {
		names[i] = d.Name
	}
	groups := make([]string, len(c.groups))
	for i, g := range c.groups {
		groups[i] = g.String()
	}
	cj := contextJSON{
		DurationMS:  c.duration.Milliseconds(),
		Devices:     names,
		ValueThre:   c.valueThre,
		Epoch:       c.epoch,
		Parent:      c.parent,
		Fingerprint: fingerprint,
		Groups:      groups,
		G2G:         c.g2g,
		G2A:         c.g2a,
		A2G:         c.a2g,
		Effects:     c.effectCounts,
		ActCounts:   c.actCounts,
	}
	if c.TimingCapable() {
		cj.Schema = ContextSchemaV2
		cj.G2GGaps = c.g2gGaps
		cj.G2AGaps = c.g2aGaps
		cj.A2GGaps = c.a2gGaps
	}
	data, err := json.Marshal(cj)
	if err != nil {
		return nil, fmt.Errorf("core: encode context: %w", err)
	}
	return data, nil
}

// computeFingerprint hashes the canonical payload (fingerprint field empty)
// with 64-bit FNV-1a.
func (c *Context) computeFingerprint() (string, error) {
	data, err := c.payloadJSON("")
	if err != nil {
		return "", err
	}
	h := fnv.New64a()
	h.Write(data) //nolint:errcheck // hash.Write never fails
	return fmt.Sprintf("%016x", h.Sum64()), nil
}

// Save writes the context in the checksummed DICECKS1 envelope: magic +
// CRC32-C + canonical JSON payload (including epoch, parent, and
// fingerprint), so a torn write is detected at load time instead of
// poisoning a cold start.
func (c *Context) Save(w io.Writer) error {
	payload, err := c.payloadJSON(c.fingerprint)
	if err != nil {
		return fmt.Errorf("core: save context: %w", err)
	}
	if _, err := w.Write(sealContext(payload)); err != nil {
		return fmt.Errorf("core: save context: %w", err)
	}
	return nil
}

// sealContext wraps a JSON payload in the checksummed envelope.
func sealContext(payload []byte) []byte {
	out := make([]byte, 12+len(payload))
	copy(out[:8], ctxMagic[:])
	binary.LittleEndian.PutUint32(out[8:12], crc32.Checksum(payload, ctxCRCTable))
	copy(out[12:], payload)
	return out
}

// LoadContext reads a context saved by Save and binds it to the layout,
// verifying that the device names match position for position. The
// envelope is CRC-checked (damage reports ErrCorruptContext); a file
// without it reports ErrLegacyContext.
func LoadContext(r io.Reader, layout *window.Layout) (*Context, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, fmt.Errorf("core: load context: %w", err)
	}
	if len(data) < 12 || !bytes.Equal(data[:8], ctxMagic[:]) {
		return nil, ErrLegacyContext
	}
	want := binary.LittleEndian.Uint32(data[8:12])
	data = data[12:]
	if crc32.Checksum(data, ctxCRCTable) != want {
		return nil, fmt.Errorf("%w: envelope fails CRC", ErrCorruptContext)
	}
	var cj contextJSON
	if err := json.Unmarshal(data, &cj); err != nil {
		return nil, fmt.Errorf("core: load context: %w", err)
	}
	devs := layout.Registry().All()
	if len(cj.Devices) != len(devs) {
		return nil, fmt.Errorf("core: context has %d devices, layout has %d", len(cj.Devices), len(devs))
	}
	for i, name := range cj.Devices {
		if devs[i].Name != name {
			return nil, fmt.Errorf("core: device %d is %q in context but %q in layout", i, name, devs[i].Name)
		}
	}
	ctx, err := newContext(layout, time.Duration(cj.DurationMS)*time.Millisecond, cj.ValueThre)
	if err != nil {
		return nil, err
	}
	wantBits := layout.NumBinary() + BitsPerNumeric*layout.NumNumeric()
	for i, gs := range cj.Groups {
		v, err := bitvec.Parse(gs)
		if err != nil {
			return nil, fmt.Errorf("core: group %d: %w", i, err)
		}
		if v.Len() != wantBits {
			return nil, fmt.Errorf("core: group %d has %d bits, layout wants %d", i, v.Len(), wantBits)
		}
		if got := ctx.addGroup(v); got != i {
			return nil, fmt.Errorf("core: duplicate group %d in saved context", i)
		}
	}
	if cj.G2G != nil {
		ctx.g2g = cj.G2G
	}
	if cj.G2A != nil {
		ctx.g2a = cj.G2A
	}
	if cj.A2G != nil {
		ctx.a2g = cj.A2G
	}
	if cj.Effects != nil {
		ctx.effectCounts = cj.Effects
	}
	if cj.ActCounts != nil {
		ctx.actCounts = cj.ActCounts
	}
	if cj.Schema > ContextSchemaV2 {
		return nil, fmt.Errorf("core: context schema %d is newer than this build supports (%d)", cj.Schema, ContextSchemaV2)
	}
	// v2 payloads restore the interval sketches; a v1 payload leaves all
	// three nil, yielding a loadable but timing-disabled context.
	if cj.G2GGaps != nil && cj.G2AGaps != nil && cj.A2GGaps != nil {
		ctx.g2gGaps = cj.G2GGaps
		ctx.g2aGaps = cj.G2AGaps
		ctx.a2gGaps = cj.A2GGaps
	}
	ctx.epoch = cj.Epoch
	ctx.parent = cj.Parent
	fp, err := ctx.computeFingerprint()
	if err != nil {
		return nil, err
	}
	if cj.Fingerprint != "" && cj.Fingerprint != fp {
		return nil, fmt.Errorf("%w: payload does not match recorded fingerprint %s", ErrCorruptContext, cj.Fingerprint)
	}
	ctx.fingerprint = fp
	return ctx, nil
}
