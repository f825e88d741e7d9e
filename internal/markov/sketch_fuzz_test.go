package markov

import (
	"bytes"
	"testing"
)

// FuzzIntervalSketch hammers the binary codec: any input either fails to
// decode or round-trips to identical bytes, and a decoded sketch's
// invariants (band inside the bucket range, total consistent with the
// buckets) hold.
func FuzzIntervalSketch(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{sketchCodecVersion})
	var seed IntervalSketch
	seed.Observe(1)
	seed.Observe(90)
	seed.Observe(1 << 14)
	f.Add(seed.AppendBinary(nil))
	var dense IntervalSketch
	for gap := 1; gap < 5000; gap += 3 {
		dense.Observe(gap)
	}
	f.Add(dense.AppendBinary(nil))

	f.Fuzz(func(t *testing.T, data []byte) {
		s, n, err := DecodeIntervalSketch(data)
		if err != nil {
			return
		}
		if n < 1 || n > len(data) {
			t.Fatalf("decode consumed %d of %d bytes", n, len(data))
		}
		enc := s.AppendBinary(nil)
		s2, n2, err := DecodeIntervalSketch(enc)
		if err != nil {
			t.Fatalf("re-decode of canonical encoding failed: %v", err)
		}
		if n2 != len(enc) {
			t.Fatalf("re-decode consumed %d of %d bytes", n2, len(enc))
		}
		if !bytes.Equal(enc, s2.AppendBinary(nil)) {
			t.Fatal("encoding not canonical after round-trip")
		}
		var total uint64
		for b := 0; b < SketchBuckets; b++ {
			total += uint64(s.Bucket(b))
		}
		if total != s.Total() {
			t.Fatalf("Total %d != bucket sum %d", s.Total(), total)
		}
		lo, hi := s.Band()
		if lo < 0 || hi >= SketchBuckets || lo > hi {
			t.Fatalf("band [%d, %d] out of range", lo, hi)
		}
		if s.Total() > 0 && (s.Bucket(lo) == 0 || s.Bucket(hi) == 0) {
			t.Fatalf("band edges [%d, %d] on empty buckets", lo, hi)
		}
	})
}
