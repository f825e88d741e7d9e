package markov

import (
	"encoding/json"
	"math/rand"
	"reflect"
	"testing"
)

// Bucketing must be monotone in the gap and consistent with the bucket
// edges BucketMin/BucketMax report.
func TestBucketForMonotoneAndEdges(t *testing.T) {
	prev := 0
	for gap := 1; gap <= 1<<17; gap++ {
		b := BucketFor(gap)
		if b < prev {
			t.Fatalf("BucketFor not monotone: gap %d -> bucket %d after bucket %d", gap, b, prev)
		}
		if b < 0 || b >= SketchBuckets {
			t.Fatalf("BucketFor(%d) = %d out of range", gap, b)
		}
		if b < SketchBuckets-1 {
			if gap < BucketMin(b) || gap > BucketMax(b) {
				t.Fatalf("gap %d in bucket %d but outside [%d, %d]", gap, b, BucketMin(b), BucketMax(b))
			}
		} else if gap < BucketMin(b) {
			t.Fatalf("gap %d in top bucket but below its floor %d", gap, BucketMin(b))
		}
		prev = b
	}
	if got := BucketFor(0); got != 0 {
		t.Fatalf("BucketFor(0) = %d, want 0", got)
	}
	if got := BucketFor(-5); got != 0 {
		t.Fatalf("BucketFor(-5) = %d, want 0", got)
	}
}

// The band must span exactly the occupied buckets.
func TestBandQuantiles(t *testing.T) {
	var s IntervalSketch
	if lo, hi := s.Band(); lo != 0 || hi != SketchBuckets-1 {
		t.Fatalf("empty sketch band = [%d, %d], want full range", lo, hi)
	}

	// 10 gaps in bucket 2 (4..7), 80 in bucket 5 (32..63), 10 in bucket 9.
	for i := 0; i < 10; i++ {
		s.Observe(4)
	}
	for i := 0; i < 80; i++ {
		s.Observe(40)
	}
	for i := 0; i < 10; i++ {
		s.Observe(600)
	}
	if lo, hi := s.Band(); lo != 2 || hi != 9 {
		t.Fatalf("full band = [%d, %d], want [2, 9]", lo, hi)
	}
}

// Randomized invariant: for any observation multiset, every observed gap's
// bucket falls inside the band, and Total matches the count.
func TestBandCoversObservations(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 200; trial++ {
		var s IntervalSketch
		n := 1 + rng.Intn(300)
		minB, maxB := SketchBuckets, -1
		for i := 0; i < n; i++ {
			gap := 1 + rng.Intn(1<<uint(rng.Intn(16)))
			s.Observe(gap)
			if b := BucketFor(gap); b < minB {
				minB = b
			}
			if b := BucketFor(gap); b > maxB {
				maxB = b
			}
		}
		if got := s.Total(); got != uint64(n) {
			t.Fatalf("trial %d: Total = %d, want %d", trial, got, n)
		}
		lo, hi := s.Band()
		if lo != minB || hi != maxB {
			t.Fatalf("trial %d: band [%d, %d], observations span [%d, %d]", trial, lo, hi, minB, maxB)
		}
	}
}

// Merge must equal observing both streams into one sketch; decay must
// match the chains' flooring semantics and report emptiness exactly.
func TestMergeDecayRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	var a, b, both IntervalSketch
	for i := 0; i < 500; i++ {
		gap := 1 + rng.Intn(4000)
		if i%2 == 0 {
			a.Observe(gap)
		} else {
			b.Observe(gap)
		}
		both.Observe(gap)
	}
	merged := a.Clone()
	merged.Merge(&b)
	if !reflect.DeepEqual(merged.Buckets(), both.Buckets()) {
		t.Fatalf("merge mismatch:\n merged %v\n direct %v", merged.Buckets(), both.Buckets())
	}

	decayed := merged.Clone()
	empty := decayed.Decay(0.5)
	if empty {
		t.Fatal("decay of a populated sketch reported empty")
	}
	for i, n := range merged.Buckets() {
		want := uint32(float64(n) * 0.5)
		if decayed.Buckets()[i] != want {
			t.Fatalf("bucket %d decayed to %d, want %d", i, decayed.Buckets()[i], want)
		}
	}
	// Repeated halving must eventually report empty.
	for i := 0; i < 40 && !decayed.Decay(0.5); i++ {
	}
	if decayed.Total() != 0 {
		t.Fatalf("sketch not empty after repeated decay: %v", decayed.Buckets())
	}
}

func TestSketchBinaryRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for trial := 0; trial < 100; trial++ {
		var s IntervalSketch
		for i := rng.Intn(64); i > 0; i-- {
			s.Observe(1 + rng.Intn(1<<15))
		}
		enc := s.AppendBinary(nil)
		dec, n, err := DecodeIntervalSketch(enc)
		if err != nil {
			t.Fatalf("trial %d: decode: %v", trial, err)
		}
		if n != len(enc) {
			t.Fatalf("trial %d: decode consumed %d of %d bytes", trial, n, len(enc))
		}
		if !reflect.DeepEqual(dec.Buckets(), s.Buckets()) {
			t.Fatalf("trial %d: round-trip mismatch", trial)
		}
	}
	if _, _, err := DecodeIntervalSketch(nil); err == nil {
		t.Fatal("decode of empty input succeeded")
	}
	if _, _, err := DecodeIntervalSketch([]byte{99}); err == nil {
		t.Fatal("decode of unknown version succeeded")
	}
}

func TestSketchSetJSONRoundTrip(t *testing.T) {
	ss := NewSketchSet()
	ss.Observe(0, 3, 5)
	ss.Observe(0, 3, 90)
	ss.Observe(7, 1, 2)
	ss.Observe(2, 2, 1000)

	data, err := json.Marshal(ss)
	if err != nil {
		t.Fatal(err)
	}
	var back SketchSet
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if back.Len() != ss.Len() {
		t.Fatalf("round-trip has %d edges, want %d", back.Len(), ss.Len())
	}
	for _, k := range [][2]int{{0, 3}, {7, 1}, {2, 2}} {
		a, b := ss.Get(k[0], k[1]), back.Get(k[0], k[1])
		if a == nil || b == nil || !reflect.DeepEqual(a.Buckets(), b.Buckets()) {
			t.Fatalf("edge %v mismatch after round-trip", k)
		}
	}
	// Canonical bytes: re-marshal of the decoded set must be identical.
	data2, err := json.Marshal(&back)
	if err != nil {
		t.Fatal(err)
	}
	if string(data) != string(data2) {
		t.Fatalf("marshal not canonical:\n %s\n %s", data, data2)
	}
}

func TestSketchSetNilSafety(t *testing.T) {
	var ss *SketchSet
	if ss.Get(1, 2) != nil || ss.Len() != 0 || ss.Clone() != nil || ss.Decay(0.5) != 0 {
		t.Fatal("nil SketchSet accessors not inert")
	}
	var s *IntervalSketch
	if s.Total() != 0 || s.Bucket(0) != 0 || s.Buckets() != nil || s.Clone() != nil {
		t.Fatal("nil IntervalSketch accessors not inert")
	}
}

func TestSketchSetDecayPrunes(t *testing.T) {
	ss := NewSketchSet()
	ss.Observe(1, 2, 10) // single observation: halving floors it to zero
	for i := 0; i < 100; i++ {
		ss.Observe(3, 4, 20)
	}
	if pruned := ss.Decay(0.5); pruned != 1 {
		t.Fatalf("pruned %d edges, want 1", pruned)
	}
	if ss.Get(1, 2) != nil {
		t.Fatal("emptied edge survived decay")
	}
	if got := ss.Get(3, 4).Total(); got != 50 {
		t.Fatalf("surviving edge total %d, want 50", got)
	}
}
