package wal

import (
	"bytes"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/telemetry"
)

// refillRecords fills a segment past two scan-buffer refills while staying
// under the default segment size, so the log does not rotate.
const refillRecords = 4000

// refillOffsets returns the file offsets at which scanSegment's reader
// refills its buffer: it starts reading just past the segment header and
// reads scanBufSize bytes per fill.
func refillOffsets(size int) []int {
	var out []int
	for off := segHeaderSize + scanBufSize; off < size; off += scanBufSize {
		out = append(out, off)
	}
	return out
}

// TestWALTornTailAcrossRefills is the torn-write property at the scan
// buffer's refill points: every cut within two frames of a refill offset
// repairs to the longest whole-frame prefix.
func TestWALTornTailAcrossRefills(t *testing.T) {
	name, data := oneSegment(t, refillRecords)
	refills := refillOffsets(len(data))
	if len(refills) < 2 {
		t.Fatalf("%d-byte segment crosses %d refills, want >= 2", len(data), len(refills))
	}
	var cuts []int
	for _, r := range refills {
		for cut := r - 2*appendFrame; cut <= r+2*appendFrame && cut <= len(data); cut++ {
			cuts = append(cuts, cut)
		}
	}
	checkTornCuts(t, name, data, appendEnds(refillRecords), cuts)
}

// TestWALBitFlipAcrossRefill: a flipped bit in the part of a frame read
// after a refill still fails its CRC, so replay ends at the last good
// record and the corruption is counted.
func TestWALBitFlipAcrossRefill(t *testing.T) {
	name, data := oneSegment(t, refillRecords)
	r := refillOffsets(len(data))[0]
	idx := (r - segHeaderSize) / appendFrame
	start := segHeaderSize + idx*appendFrame
	if start >= r || start+appendFrame <= r {
		t.Fatalf("frame %d [%d,%d) does not straddle refill offset %d", idx, start, start+appendFrame, r)
	}
	data[start+appendFrame-1] ^= 0x10
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, name), data, 0o644); err != nil {
		t.Fatal(err)
	}
	reg := telemetry.NewRegistry()
	l, err := Open(dir, Options{Sync: SyncNever, Telemetry: reg})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	if got := l.LastSeq(); got != uint64(idx) {
		t.Fatalf("LastSeq after bit flip = %d, want %d", got, idx)
	}
	if recs := replayAll(t, l, 0); len(recs) != idx {
		t.Fatalf("replayed %d records, want %d", len(recs), idx)
	}
	if got := reg.SnapshotMap()[metricCorrupt]; got == 0 {
		t.Error("corrupt-record counter never moved")
	}
}

// TestWALLargePayload: a record larger than the scan buffer round-trips
// byte for byte through Replay and ExportTail after a reopen, and the
// records around it stay framed.
func TestWALLargePayload(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{Sync: SyncNever})
	if err != nil {
		t.Fatal(err)
	}
	big := make([]byte, 100<<10)
	rand.New(rand.NewSource(1)).Read(big)
	want := [][]byte{testRecord(0).AppendTo(nil), big, testRecord(2).AppendTo(nil)}
	for i, p := range want {
		if seq, err := l.Append(p); err != nil || seq != uint64(i+1) {
			t.Fatalf("append %d: seq %d err %v", i, seq, err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	l, err = Open(dir, Options{Sync: SyncNever})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	if got := l.LastSeq(); got != uint64(len(want)) {
		t.Fatalf("LastSeq = %d, want %d", got, len(want))
	}
	var replayed [][]byte
	if err := l.Replay(0, func(_ uint64, p []byte) error {
		replayed = append(replayed, append([]byte(nil), p...))
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	exported, err := l.ExportTail(0)
	if err != nil {
		t.Fatal(err)
	}
	for name, got := range map[string][][]byte{"Replay": replayed, "ExportTail": exported} {
		if len(got) != len(want) {
			t.Fatalf("%s returned %d records, want %d", name, len(got), len(want))
		}
		for i := range want {
			if !bytes.Equal(got[i], want[i]) {
				t.Fatalf("%s record %d differs (%d vs %d bytes)", name, i, len(got[i]), len(want[i]))
			}
		}
	}
}

// TestWALTornSegmentHeader: a crash between a segment's create and its
// header write leaves a tail file shorter than a header. Open must treat it
// as a torn tail — LastSeq is the previous segment's last record, replay
// returns every earlier record, and appends continue the chain — while a
// short middle segment, or a short tail whose name does not continue the
// chain, still fails Open.
func TestWALTornSegmentHeader(t *testing.T) {
	segPath := func(dir string, first uint64) string {
		return filepath.Join(dir, fmt.Sprintf("%016x.wal", first))
	}
	for _, size := range []int{0, 7, segHeaderSize - 1} {
		// 200-byte segments hold five records, so appending twenty rotates
		// into a fresh segment 21; the crash cut its header short.
		dir := t.TempDir()
		l, err := Open(dir, Options{Sync: SyncNever, SegmentSize: 200})
		if err != nil {
			t.Fatal(err)
		}
		const n = 20
		appendN(t, l, 0, n)
		if err := l.Close(); err != nil {
			t.Fatal(err)
		}
		hdr := segmentHeader(n + 1)
		if err := os.WriteFile(segPath(dir, n+1), hdr[:size], 0o644); err != nil {
			t.Fatal(err)
		}
		for reopen := 0; reopen < 2; reopen++ {
			l, err = Open(dir, Options{Sync: SyncNever, SegmentSize: 200})
			if err != nil {
				t.Fatalf("size %d, open %d: %v", size, reopen, err)
			}
			last := n + 3*reopen
			if got := l.LastSeq(); got != uint64(last) {
				t.Fatalf("size %d, open %d: LastSeq = %d, want %d", size, reopen, got, last)
			}
			if recs := replayAll(t, l, 0); len(recs) != last {
				t.Fatalf("size %d, open %d: replayed %d records, want %d", size, reopen, len(recs), last)
			}
			appendN(t, l, last, 3)
			if recs := replayAll(t, l, 0); len(recs) != last+3 {
				t.Fatalf("size %d, open %d: replayed %d records after append, want %d", size, reopen, len(recs), last+3)
			}
			if err := l.Close(); err != nil {
				t.Fatal(err)
			}
		}

		// The only segment, named past a SkipTo: the chain resumes there.
		dir = t.TempDir()
		hdr = segmentHeader(42)
		if err := os.WriteFile(segPath(dir, 42), hdr[:size], 0o644); err != nil {
			t.Fatal(err)
		}
		l, err = Open(dir, Options{Sync: SyncNever})
		if err != nil {
			t.Fatalf("size %d, sole segment: %v", size, err)
		}
		if got := l.LastSeq(); got != 41 {
			t.Fatalf("size %d, sole segment: LastSeq = %d, want 41", size, got)
		}
		if seq, err := l.Append(testRecord(0).AppendTo(nil)); err != nil || seq != 42 {
			t.Fatalf("size %d, sole segment: append seq %d err %v", size, seq, err)
		}
		l.Close()
	}

	for _, tc := range []struct {
		name  string
		first uint64 // segment whose file is cut to 7 bytes
	}{
		{"middle segment", 6},
		{"tail off the chain", 30},
	} {
		dir := t.TempDir()
		l, err := Open(dir, Options{Sync: SyncNever, SegmentSize: 200})
		if err != nil {
			t.Fatal(err)
		}
		appendN(t, l, 0, 18)
		if err := l.Close(); err != nil {
			t.Fatal(err)
		}
		hdr := segmentHeader(tc.first)
		if err := os.WriteFile(segPath(dir, tc.first), hdr[:7], 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := Open(dir, Options{Sync: SyncNever}); err == nil {
			t.Errorf("%s: short header accepted", tc.name)
		}
	}
}
