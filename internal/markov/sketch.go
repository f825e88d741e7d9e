package markov

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"sort"
)

// SketchBuckets is the fixed width of an IntervalSketch: sixteen log2
// buckets cover gaps from one window to 2^15+ windows (about three weeks at
// the paper's one-minute duration), which is wider than any inter-window
// interval a home routine can produce.
const SketchBuckets = 16

// BucketFor maps a gap (in windows, >= 1) to its log2 bucket: bucket b
// holds gaps in [2^b, 2^(b+1)). Gaps below one clamp to bucket 0 and gaps
// beyond the top bucket clamp to SketchBuckets-1, so the mapping is total
// and monotone.
func BucketFor(gap int) int {
	if gap < 1 {
		return 0
	}
	b := 0
	for gap > 1 && b < SketchBuckets-1 {
		gap >>= 1
		b++
	}
	return b
}

// BucketMin returns the smallest gap bucket b covers (2^b).
func BucketMin(b int) int {
	if b < 0 {
		b = 0
	}
	if b > SketchBuckets-1 {
		b = SketchBuckets - 1
	}
	return 1 << uint(b)
}

// BucketMax returns the largest gap bucket b nominally covers (2^(b+1)-1).
// The top bucket is open-ended; its BucketMax is only the nominal edge.
func BucketMax(b int) int {
	if b < 0 {
		b = 0
	}
	if b > SketchBuckets-1 {
		b = SketchBuckets - 1
	}
	return 1<<uint(b+1) - 1
}

// IntervalSketch is a compact histogram of inter-window intervals for one
// transition edge: a fixed array of uint32 counts over log2(gap) buckets.
// The timing check asks only "is this gap inside the band the training data
// spanned?", so bucket resolution (a factor of two) is plenty, and the
// fixed footprint keeps per-edge cost bounded no matter how long training
// runs. The zero value is an empty sketch ready for use.
type IntervalSketch struct {
	buckets [SketchBuckets]uint32
}

// Observe folds one gap (in windows) into the sketch. Counts saturate at
// the uint32 ceiling instead of wrapping.
func (s *IntervalSketch) Observe(gap int) {
	b := BucketFor(gap)
	if s.buckets[b] != ^uint32(0) {
		s.buckets[b]++
	}
}

// Total returns the number of observed gaps.
func (s *IntervalSketch) Total() uint64 {
	if s == nil {
		return 0
	}
	var t uint64
	for _, n := range s.buckets {
		t += uint64(n)
	}
	return t
}

// Bucket returns the count in bucket b.
func (s *IntervalSketch) Bucket(b int) uint32 {
	if s == nil || b < 0 || b >= SketchBuckets {
		return 0
	}
	return s.buckets[b]
}

// Buckets returns a copy of the bucket counts.
func (s *IntervalSketch) Buckets() []uint32 {
	if s == nil {
		return nil
	}
	out := make([]uint32, SketchBuckets)
	copy(out, s.buckets[:])
	return out
}

// Band returns the bucket indices [lo, hi] of the first and last occupied
// buckets: the range of gaps the sketch has observed. An empty sketch
// returns (0, SketchBuckets-1): with no evidence, every gap is in band.
func (s *IntervalSketch) Band() (lo, hi int) {
	if s.Total() == 0 {
		return 0, SketchBuckets - 1
	}
	for s.buckets[lo] == 0 {
		lo++
	}
	hi = SketchBuckets - 1
	for s.buckets[hi] == 0 {
		hi--
	}
	return lo, hi
}

// Merge folds another sketch's counts into s, saturating per bucket.
func (s *IntervalSketch) Merge(o *IntervalSketch) {
	if o == nil {
		return
	}
	for b := range s.buckets {
		sum := uint64(s.buckets[b]) + uint64(o.buckets[b])
		if sum > uint64(^uint32(0)) {
			sum = uint64(^uint32(0))
		}
		s.buckets[b] = uint32(sum)
	}
}

// Decay multiplies every bucket count by factor (0 < factor < 1), flooring
// the result, and reports whether the sketch is now empty — the same
// exponential aging the transition chains apply, so pace evidence fades in
// lockstep with the structural counts it annotates. A factor outside (0, 1)
// is a no-op.
func (s *IntervalSketch) Decay(factor float64) bool {
	if factor <= 0 || factor >= 1 {
		return s.Total() == 0
	}
	empty := true
	for b, n := range s.buckets {
		scaled := uint32(float64(n) * factor)
		s.buckets[b] = scaled
		if scaled > 0 {
			empty = false
		}
	}
	return empty
}

// Clone returns a deep copy.
func (s *IntervalSketch) Clone() *IntervalSketch {
	if s == nil {
		return nil
	}
	out := *s
	return &out
}

// sketchCodecVersion tags the binary encoding so a future layout change
// stays decodable.
const sketchCodecVersion = 1

// AppendBinary appends the sketch's compact binary form to dst: a version
// byte followed by one uvarint per bucket. The encoding is what the
// FuzzIntervalSketch round-trip target exercises.
func (s *IntervalSketch) AppendBinary(dst []byte) []byte {
	dst = append(dst, sketchCodecVersion)
	var tmp [binary.MaxVarintLen32]byte
	for _, n := range s.buckets {
		dst = append(dst, tmp[:binary.PutUvarint(tmp[:], uint64(n))]...)
	}
	return dst
}

// DecodeIntervalSketch decodes a sketch produced by AppendBinary, returning
// the sketch and the number of bytes consumed.
func DecodeIntervalSketch(data []byte) (*IntervalSketch, int, error) {
	if len(data) == 0 {
		return nil, 0, fmt.Errorf("markov: sketch: empty input")
	}
	if data[0] != sketchCodecVersion {
		return nil, 0, fmt.Errorf("markov: sketch: unknown codec version %d", data[0])
	}
	s := new(IntervalSketch)
	off := 1
	for b := 0; b < SketchBuckets; b++ {
		v, n := binary.Uvarint(data[off:])
		if n <= 0 {
			return nil, 0, fmt.Errorf("markov: sketch: truncated bucket %d", b)
		}
		if v > uint64(^uint32(0)) {
			return nil, 0, fmt.Errorf("markov: sketch: bucket %d overflows uint32", b)
		}
		s.buckets[b] = uint32(v)
		off += n
	}
	return s, off, nil
}

// SketchSet maps transition edges (from, to) to their interval sketches —
// one set per chain (G2G, G2A, A2G). Edge keys are small integer pairs, so
// lookups on the detector's clean-window hot path are plain array-keyed map
// reads with no allocation. The zero value is not usable; construct with
// NewSketchSet.
type SketchSet struct {
	m map[[2]int]*IntervalSketch
}

// NewSketchSet returns an empty set.
func NewSketchSet() *SketchSet {
	return &SketchSet{m: make(map[[2]int]*IntervalSketch)}
}

// Observe folds one gap into the edge's sketch, creating it on first use.
func (ss *SketchSet) Observe(from, to, gap int) {
	k := [2]int{from, to}
	s := ss.m[k]
	if s == nil {
		s = new(IntervalSketch)
		ss.m[k] = s
	}
	s.Observe(gap)
}

// Get returns the edge's sketch, or nil when no gap was ever observed for
// it. Callers must treat the result as read-only. Safe on a nil set.
func (ss *SketchSet) Get(from, to int) *IntervalSketch {
	if ss == nil {
		return nil
	}
	return ss.m[[2]int{from, to}]
}

// Len returns the number of edges with at least one observation. Safe on a
// nil set.
func (ss *SketchSet) Len() int {
	if ss == nil {
		return 0
	}
	return len(ss.m)
}

// Clone returns a deep copy. Safe on a nil set (returns nil), so a
// structural-only (v1) context clones without growing timing state.
func (ss *SketchSet) Clone() *SketchSet {
	if ss == nil {
		return nil
	}
	out := NewSketchSet()
	for k, s := range ss.m {
		out.m[k] = s.Clone()
	}
	return out
}

// Merge folds another set's sketches into ss.
func (ss *SketchSet) Merge(o *SketchSet) {
	if o == nil {
		return
	}
	for k, s := range o.m {
		dst := ss.m[k]
		if dst == nil {
			ss.m[k] = s.Clone()
			continue
		}
		dst.Merge(s)
	}
}

// Decay ages every sketch by factor and prunes the ones that empty out,
// returning the number of pruned edges. Safe on a nil set.
func (ss *SketchSet) Decay(factor float64) int {
	if ss == nil {
		return 0
	}
	pruned := 0
	for k, s := range ss.m {
		if s.Decay(factor) {
			delete(ss.m, k)
			pruned++
		}
	}
	return pruned
}

// sketchSetJSON mirrors the chain encoding: a (from, to)-sorted cell list
// keeps the bytes canonical, which the context fingerprint depends on.
type sketchSetJSON struct {
	Cells []sketchCellJSON `json:"cells"`
}

type sketchCellJSON struct {
	From    int      `json:"from"`
	To      int      `json:"to"`
	Buckets []uint32 `json:"buckets"`
}

// MarshalJSON encodes the set with cells sorted by (from, to). Trailing
// zero buckets are trimmed to keep payloads compact.
func (ss *SketchSet) MarshalJSON() ([]byte, error) {
	cells := make([]sketchCellJSON, 0, len(ss.m))
	for k, s := range ss.m {
		end := SketchBuckets
		for end > 0 && s.buckets[end-1] == 0 {
			end--
		}
		if end == 0 {
			continue
		}
		cells = append(cells, sketchCellJSON{
			From:    k[0],
			To:      k[1],
			Buckets: append([]uint32(nil), s.buckets[:end]...),
		})
	}
	sort.Slice(cells, func(i, j int) bool {
		if cells[i].From != cells[j].From {
			return cells[i].From < cells[j].From
		}
		return cells[i].To < cells[j].To
	})
	return json.Marshal(sketchSetJSON{Cells: cells})
}

// UnmarshalJSON decodes a set produced by MarshalJSON.
func (ss *SketchSet) UnmarshalJSON(data []byte) error {
	var sj sketchSetJSON
	if err := json.Unmarshal(data, &sj); err != nil {
		return fmt.Errorf("markov: decode sketch set: %w", err)
	}
	ss.m = make(map[[2]int]*IntervalSketch, len(sj.Cells))
	for _, cell := range sj.Cells {
		if len(cell.Buckets) > SketchBuckets {
			return fmt.Errorf("markov: sketch cell %d->%d has %d buckets, max %d",
				cell.From, cell.To, len(cell.Buckets), SketchBuckets)
		}
		s := new(IntervalSketch)
		copy(s.buckets[:], cell.Buckets)
		ss.m[[2]int{cell.From, cell.To}] = s
	}
	return nil
}
