package wal

import (
	"encoding/binary"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"repro/internal/device"
	"repro/internal/event"
	"repro/internal/telemetry"
)

func testRecord(i int) Record {
	if i%10 == 9 {
		return AdvanceRecord(time.Duration(i) * time.Second)
	}
	return IngestRecord(event.Event{
		At:     time.Duration(i) * time.Second,
		Device: device.ID(i % 7),
		Value:  float64(i) / 3,
	})
}

func appendN(t testing.TB, l *Log, from, n int) {
	t.Helper()
	var buf []byte
	for i := from; i < from+n; i++ {
		buf = testRecord(i).AppendTo(buf[:0])
		seq, err := l.Append(buf)
		if err != nil {
			t.Fatal(err)
		}
		if want := uint64(i + 1); seq != want {
			t.Fatalf("record %d got seq %d, want %d", i, seq, want)
		}
	}
}

func replayAll(t *testing.T, l *Log, after uint64) []Record {
	t.Helper()
	var out []Record
	err := l.Replay(after, func(seq uint64, payload []byte) error {
		r, err := DecodeRecord(payload)
		if err != nil {
			return err
		}
		if want := after + uint64(len(out)) + 1; seq != want {
			return fmt.Errorf("seq %d, want %d", seq, want)
		}
		out = append(out, r)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// TestWALRoundTrip: append, close, reopen, replay — every record survives
// byte-exactly, and sequence numbers continue across the reopen.
func TestWALRoundTrip(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{Sync: SyncNever})
	if err != nil {
		t.Fatal(err)
	}
	const n = 100
	appendN(t, l, 0, n)
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	l2, err := Open(dir, Options{Sync: SyncNever})
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	if got := l2.LastSeq(); got != n {
		t.Fatalf("reopened LastSeq = %d, want %d", got, n)
	}
	recs := replayAll(t, l2, 0)
	if len(recs) != n {
		t.Fatalf("replayed %d records, want %d", len(recs), n)
	}
	for i, r := range recs {
		if r != testRecord(i) {
			t.Fatalf("record %d = %+v, want %+v", i, r, testRecord(i))
		}
	}
	// Appends continue the chain.
	appendN(t, l2, n, 5)
	if got := l2.LastSeq(); got != n+5 {
		t.Fatalf("LastSeq after reopen-append = %d, want %d", got, n+5)
	}
	// Replay-after skips the prefix.
	tail := replayAll(t, l2, n)
	if len(tail) != 5 || tail[0] != testRecord(n) {
		t.Fatalf("Replay(after=%d) returned %d records starting %+v", n, len(tail), tail[0])
	}
}

// appendFrame is the on-disk size of one Append of a testRecord: a frame
// header, then a body of one varint length byte and the payload.
const appendFrame = frameHeader + 1 + recordSize

// batchFrame is the on-disk size of one frame packing n testRecords.
func batchFrame(n int) int { return frameHeader + n*(1+recordSize) }

// frameEnd marks one whole frame of a test segment: the byte offset just
// past it and how many records the segment holds through it.
type frameEnd struct{ off, records int }

// appendEnds lists the frame ends of a segment written by n single Appends.
func appendEnds(n int) []frameEnd {
	ends := make([]frameEnd, n)
	for i := range ends {
		ends[i] = frameEnd{segHeaderSize + (i+1)*appendFrame, i + 1}
	}
	return ends
}

// keptFrames is what a cut at byte cut leaves of a segment whose frames end
// at ends: the last whole frame at or before the cut, or none.
func keptFrames(ends []frameEnd, cut int) frameEnd {
	kept := frameEnd{off: segHeaderSize}
	for _, e := range ends {
		if e.off > cut {
			break
		}
		kept = e
	}
	return kept
}

// oneSegment appends testRecord(0..n-1) to a fresh log whose records all
// fit one segment and returns that segment's file name and bytes.
func oneSegment(t testing.TB, n int) (string, []byte) {
	t.Helper()
	dir := t.TempDir()
	l, err := Open(dir, Options{Sync: SyncNever})
	if err != nil {
		t.Fatal(err)
	}
	appendN(t, l, 0, n)
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	segs, err := filepath.Glob(filepath.Join(dir, "*.wal"))
	if err != nil || len(segs) != 1 {
		t.Fatalf("want 1 segment, got %v (%v)", segs, err)
	}
	data, err := os.ReadFile(segs[0])
	if err != nil {
		t.Fatal(err)
	}
	if want := segHeaderSize + n*appendFrame; len(data) != want {
		t.Fatalf("segment is %d bytes, want %d", len(data), want)
	}
	return filepath.Base(segs[0]), data
}

// checkTornCuts writes data[:cut] as the only segment of a log, for each
// cut, and checks that Open repairs it to the last whole frame (ends lists
// the segment's frames), replays exactly that frame prefix's records, and
// accepts an append continuing the chain.
func checkTornCuts(t *testing.T, name string, data []byte, ends []frameEnd, cuts []int) {
	t.Helper()
	dir := t.TempDir()
	path := filepath.Join(dir, name)
	for _, cut := range cuts {
		if err := os.WriteFile(path, data[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		lt, err := Open(dir, Options{Sync: SyncNever})
		if err != nil {
			t.Fatalf("cut %d: open: %v", cut, err)
		}
		kept := keptFrames(ends, cut)
		complete := kept.records
		info, err := os.Stat(path)
		if err != nil {
			t.Fatal(err)
		}
		if info.Size() != int64(kept.off) {
			t.Fatalf("cut %d: repaired segment is %d bytes, want %d", cut, info.Size(), kept.off)
		}
		if got := lt.LastSeq(); got != uint64(complete) {
			t.Fatalf("cut %d: LastSeq = %d, want %d", cut, got, complete)
		}
		recs := replayAll(t, lt, 0)
		if len(recs) != complete {
			t.Fatalf("cut %d: replayed %d records, want %d", cut, len(recs), complete)
		}
		for i, r := range recs {
			if r != testRecord(i) {
				t.Fatalf("cut %d: record %d = %+v, want %+v", cut, i, r, testRecord(i))
			}
		}
		// The repaired log must accept a continuation append.
		var buf []byte
		buf = testRecord(complete).AppendTo(buf)
		seq, err := lt.Append(buf)
		if err != nil {
			t.Fatalf("cut %d: append after repair: %v", cut, err)
		}
		if seq != uint64(complete)+1 {
			t.Fatalf("cut %d: continuation seq = %d, want %d", cut, seq, complete+1)
		}
		if got := replayAll(t, lt, 0); len(got) != complete+1 {
			t.Fatalf("cut %d: post-repair replay %d records, want %d", cut, len(got), complete+1)
		}
		lt.Close()
	}
}

// TestWALTornTailAnyByte is the torn-write property: for every possible
// truncation point of the final segment, Open must repair the file to the
// longest valid prefix, replay exactly the records whose frames are fully
// on disk, and accept new appends that continue the chain.
func TestWALTornTailAnyByte(t *testing.T) {
	const n = 20
	name, data := oneSegment(t, n)
	var cuts []int
	for cut := segHeaderSize; cut <= len(data); cut++ {
		cuts = append(cuts, cut)
	}
	checkTornCuts(t, name, data, appendEnds(n), cuts)
}

// TestWALBitFlip: a corrupted byte mid-log fails the CRC and ends replay
// at the last good record, without an error.
func TestWALBitFlip(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{Sync: SyncNever})
	if err != nil {
		t.Fatal(err)
	}
	appendN(t, l, 0, 10)
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	segs, _ := filepath.Glob(filepath.Join(dir, "*.wal"))
	data, err := os.ReadFile(segs[0])
	if err != nil {
		t.Fatal(err)
	}
	// Flip one payload byte of record 5 (0-indexed), past its length byte.
	off := segHeaderSize + 5*appendFrame + frameHeader + 1 + 3
	data[off] ^= 0xFF
	if err := os.WriteFile(segs[0], data, 0o644); err != nil {
		t.Fatal(err)
	}
	reg := telemetry.NewRegistry()
	l2, err := Open(dir, Options{Sync: SyncNever, Telemetry: reg})
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	if got := l2.LastSeq(); got != 5 {
		t.Fatalf("LastSeq after bit flip = %d, want 5", got)
	}
	if recs := replayAll(t, l2, 0); len(recs) != 5 {
		t.Fatalf("replayed %d records, want 5", len(recs))
	}
	if got := reg.SnapshotMap()[metricCorrupt]; got == 0 {
		t.Error("corrupt-record counter never moved")
	}
}

// TestWALRotationAndTruncate: small segments force rotation; truncating
// through a checkpointed seq deletes only fully covered sealed segments.
func TestWALRotationAndTruncate(t *testing.T) {
	dir := t.TempDir()
	reg := telemetry.NewRegistry()
	l, err := Open(dir, Options{Sync: SyncNever, SegmentSize: 200, Telemetry: reg})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	const n = 50
	appendN(t, l, 0, n)
	if l.Segments() < 3 {
		t.Fatalf("only %d segments at 200-byte rotation; rotation broken", l.Segments())
	}
	before := l.Segments()
	// Truncate through seq 1: nothing coverable (first segment holds later
	// records too, or is active).
	if err := l.TruncateThrough(1); err != nil {
		t.Fatal(err)
	}
	// Truncate through half the log.
	if err := l.TruncateThrough(n / 2); err != nil {
		t.Fatal(err)
	}
	if l.Segments() >= before {
		t.Fatalf("truncation deleted nothing: %d -> %d segments", before, l.Segments())
	}
	// The tail must still replay: every record after n/2 is intact.
	recs := replayAll(t, l, n/2)
	if len(recs) == 0 {
		t.Fatal("no records after truncation point")
	}
	// And the surviving chain still covers everything the first surviving
	// segment holds.
	var total int
	l.Replay(0, func(uint64, []byte) error { total++; return nil }) //nolint:errcheck
	if total < len(recs) {
		t.Fatalf("full replay saw %d records, tail replay %d", total, len(recs))
	}
	if got := reg.SnapshotMap()[metricTruncated]; got == 0 {
		t.Error("truncated-segments counter never moved")
	}
	// Appends still work after truncation.
	appendN(t, l, n, 3)
}

// TestWALReplayIdempotentAtAnyCut: replaying from any sequence point s
// yields exactly records s+1..n — the dedup contract checkpoints rely on.
// Replaying twice from the same point yields the same records (the log is
// read-only under replay).
func TestWALReplayIdempotentAtAnyCut(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{Sync: SyncNever, SegmentSize: 300})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	const n = 60
	appendN(t, l, 0, n)
	for s := 0; s <= n; s++ {
		one := replayAll(t, l, uint64(s))
		two := replayAll(t, l, uint64(s))
		if len(one) != n-s || len(two) != n-s {
			t.Fatalf("after=%d: replayed %d then %d records, want %d", s, len(one), len(two), n-s)
		}
		for i := range one {
			if one[i] != two[i] || one[i] != testRecord(s+i) {
				t.Fatalf("after=%d: record %d diverged: %+v vs %+v", s, i, one[i], two[i])
			}
		}
	}
}

// TestWALSyncPolicies: parse and behavior smoke — always syncs per append,
// batch every N, never only on demand.
func TestWALSyncPolicies(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want SyncPolicy
		ok   bool
	}{
		{"always", SyncAlways, true},
		{"batch", SyncBatch, true},
		{"never", SyncNever, true},
		{"NONE", SyncNever, true},
		{"", SyncBatch, true},
		{"sometimes", SyncBatch, false},
	} {
		got, err := ParseSyncPolicy(tc.in)
		if (err == nil) != tc.ok || got != tc.want {
			t.Errorf("ParseSyncPolicy(%q) = %v, %v; want %v, ok=%v", tc.in, got, err, tc.want, tc.ok)
		}
	}

	for _, pol := range []SyncPolicy{SyncAlways, SyncBatch, SyncNever} {
		dir := t.TempDir()
		reg := telemetry.NewRegistry()
		l, err := Open(dir, Options{Sync: pol, BatchEvery: 4, Telemetry: reg})
		if err != nil {
			t.Fatal(err)
		}
		appendN(t, l, 0, 10)
		syncs := reg.SnapshotMap()[metricSyncs]
		switch pol {
		case SyncAlways:
			if syncs != 10 {
				t.Errorf("%v: %g syncs after 10 appends, want 10", pol, syncs)
			}
		case SyncBatch:
			if syncs != 2 {
				t.Errorf("%v: %g syncs after 10 appends at batch 4, want 2", pol, syncs)
			}
		case SyncNever:
			if syncs != 0 {
				t.Errorf("%v: %g syncs under SyncNever, want 0", pol, syncs)
			}
		}
		if err := l.Sync(); err != nil {
			t.Fatal(err)
		}
		l.Close()
	}
}

// TestWALRejectsForeignHeader: a segment with the wrong magic refuses to
// open rather than silently replaying garbage.
func TestWALRejectsForeignHeader(t *testing.T) {
	dir := t.TempDir()
	bad := make([]byte, segHeaderSize)
	copy(bad, "NOTAWAL!")
	binary.LittleEndian.PutUint64(bad[8:], 1)
	if err := os.WriteFile(filepath.Join(dir, fmt.Sprintf("%016x.wal", 1)), bad, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(dir, Options{}); err == nil {
		t.Fatal("foreign segment header accepted")
	}
}

// TestDeadLetter: entries land as JSON lines; nil sinks discard.
func TestDeadLetter(t *testing.T) {
	var nilDL *DeadLetter
	if err := nilDL.Record(DeadLetterEntry{Panic: "x"}); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "dead.jsonl")
	dl := OpenDeadLetter(path)
	rec := IngestRecord(event.Event{At: time.Minute, Device: 3, Value: 1})
	if err := dl.Record(Entry("casa", 7, rec, "boom", []byte("stack"), true)); err != nil {
		t.Fatal(err)
	}
	if err := dl.Record(Entry("casa", 8, AdvanceRecord(time.Hour), "bang", nil, false)); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lines := 0
	for _, b := range data {
		if b == '\n' {
			lines++
		}
	}
	if lines != 2 {
		t.Fatalf("dead-letter file has %d lines, want 2:\n%s", lines, data)
	}
}

// batchOf encodes testRecord(from..to-1) as one AppendBatch argument.
func batchOf(from, to int) [][]byte {
	var payloads [][]byte
	for i := from; i < to; i++ {
		payloads = append(payloads, testRecord(i).AppendTo(nil))
	}
	return payloads
}

// seqPayload is one replayed record: its sequence number and its payload.
type seqPayload struct {
	seq     uint64
	payload string
}

// replayStream replays the whole log into (seq, payload) pairs.
func replayStream(t *testing.T, l *Log) []seqPayload {
	t.Helper()
	var out []seqPayload
	if err := l.Replay(0, func(seq uint64, p []byte) error {
		out = append(out, seqPayload{seq, string(p)})
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	return out
}

// TestWALAppendBatch: replay cannot tell batched appends from single ones.
// A log written in 16-record batches replays the same (seq, payload) stream
// as one written record by record, reports the same LastSeq, and continues
// the same sequence on later appends, before and after a reopen.
func TestWALAppendBatch(t *testing.T) {
	one, err := Open(t.TempDir(), Options{Sync: SyncNever})
	if err != nil {
		t.Fatal(err)
	}
	defer one.Close()
	dirBatch := t.TempDir()
	batch, err := Open(dirBatch, Options{Sync: SyncNever})
	if err != nil {
		t.Fatal(err)
	}
	const n = 200
	appendN(t, one, 0, n)
	for start := 0; start < n; start += 16 {
		end := min(start+16, n)
		seq, err := batch.AppendBatch(batchOf(start, end))
		if err != nil {
			t.Fatal(err)
		}
		if want := uint64(end); seq != want {
			t.Fatalf("batch through %d got seq %d, want %d", end, seq, want)
		}
	}
	want := replayStream(t, one)
	if len(want) != n {
		t.Fatalf("record-at-a-time log replayed %d records, want %d", len(want), n)
	}
	for i, r := range want {
		if r.seq != uint64(i+1) || r.payload != string(testRecord(i).AppendTo(nil)) {
			t.Fatalf("record-at-a-time record %d = (%d, %x)", i, r.seq, r.payload)
		}
	}
	check := func(stage string, l *Log, want []seqPayload) {
		t.Helper()
		if got := l.LastSeq(); got != uint64(len(want)) {
			t.Fatalf("%s: LastSeq = %d, want %d", stage, got, len(want))
		}
		if got := replayStream(t, l); !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: batched log replays %d records that differ from the record-at-a-time log's %d", stage, len(got), len(want))
		}
	}
	check("batched", batch, want)
	if err := batch.Close(); err != nil {
		t.Fatal(err)
	}
	reopened, err := Open(dirBatch, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer reopened.Close()
	check("reopened", reopened, want)
	appendN(t, one, n, 5)
	appendN(t, reopened, n, 5)
	check("continued", reopened, replayStream(t, one))
}

// TestWALAppendBatchSyncOnce: under SyncAlways a batch costs one fsync, not
// one per record; an empty batch costs nothing and does not move the seq.
func TestWALAppendBatchSyncOnce(t *testing.T) {
	reg := telemetry.NewRegistry()
	l, err := Open(t.TempDir(), Options{Sync: SyncAlways, Telemetry: reg})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	if seq, err := l.AppendBatch(nil); err != nil || seq != 0 {
		t.Fatalf("empty batch: seq=%d err=%v", seq, err)
	}
	if _, err := l.AppendBatch(batchOf(0, 32)); err != nil {
		t.Fatal(err)
	}
	syncs := reg.Counter(metricSyncs, "").Value()
	if syncs != 1 {
		t.Fatalf("32-record batch issued %d syncs, want 1", syncs)
	}
	if got := reg.Counter(metricAppends, "").Value(); got != 32 {
		t.Fatalf("appends counter = %d, want 32", got)
	}
}

// TestWALAppendBatchRotates: a batch that pushes the segment past
// SegmentSize still rotates, keeping replay chains intact across files.
func TestWALAppendBatchRotates(t *testing.T) {
	l, err := Open(t.TempDir(), Options{Sync: SyncNever, SegmentSize: 256})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	if _, err := l.AppendBatch(batchOf(0, 64)); err != nil {
		t.Fatal(err)
	}
	if _, err := l.AppendBatch(batchOf(64, 65)); err != nil {
		t.Fatal(err)
	}
	if got := l.Segments(); got < 2 {
		t.Fatalf("segments = %d, want rotation after oversized batch", got)
	}
	recs := replayAll(t, l, 0)
	if len(recs) != 65 {
		t.Fatalf("replayed %d records, want 65", len(recs))
	}
}

// TestWALTornTailMidBatch is the torn-write property for AppendBatch: a
// crash can land at any byte inside the one write a batch issues, and the
// batch is one frame, so it survives whole or not at all. For every
// truncation point across the batch region, Open must repair the segment
// to the records appended before the batch — or all of them once the
// frame is whole — replay exactly those, and accept continuation appends.
func TestWALTornTailMidBatch(t *testing.T) {
	master := t.TempDir()
	l, err := Open(master, Options{Sync: SyncNever})
	if err != nil {
		t.Fatal(err)
	}
	const pre = 5   // records appended one at a time before the batch
	const batch = 8 // records in the single AppendBatch write
	appendN(t, l, 0, pre)
	seq, err := l.AppendBatch(batchOf(pre, pre+batch))
	if err != nil {
		t.Fatal(err)
	}
	if want := uint64(pre + batch); seq != want {
		t.Fatalf("batch seq = %d, want %d", seq, want)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	segs, err := filepath.Glob(filepath.Join(master, "*.wal"))
	if err != nil || len(segs) != 1 {
		t.Fatalf("want 1 segment, got %v (%v)", segs, err)
	}
	data, err := os.ReadFile(segs[0])
	if err != nil {
		t.Fatal(err)
	}
	batchStart := segHeaderSize + pre*appendFrame
	ends := append(appendEnds(pre), frameEnd{batchStart + batchFrame(batch), pre + batch})
	if want := ends[len(ends)-1].off; len(data) != want {
		t.Fatalf("segment is %d bytes, want %d", len(data), want)
	}

	// Cut everywhere from "batch entirely lost" to "batch whole".
	var cuts []int
	for cut := batchStart; cut <= len(data); cut++ {
		cuts = append(cuts, cut)
	}
	checkTornCuts(t, filepath.Base(segs[0]), data, ends, cuts)
}

// TestWALExportTail: the shipped tail is exactly the records a local replay
// past the same cursor would apply, byte for byte, and a torn final frame is
// silently excluded.
func TestWALExportTail(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{Sync: SyncNever})
	if err != nil {
		t.Fatal(err)
	}
	const n = 30
	appendN(t, l, 0, n)

	const after = 12
	tail, err := l.ExportTail(after)
	if err != nil {
		t.Fatal(err)
	}
	if len(tail) != n-after {
		t.Fatalf("exported %d records after %d, want %d", len(tail), after, n-after)
	}
	for i, payload := range tail {
		r, err := DecodeRecord(payload)
		if err != nil {
			t.Fatalf("tail record %d: %v", i, err)
		}
		if r != testRecord(after+i) {
			t.Fatalf("tail record %d = %+v, want %+v", i, r, testRecord(after+i))
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	// Tear the final frame one byte short: the export stops at the last
	// complete record instead of shipping a frame no replay would apply.
	segs, _ := filepath.Glob(filepath.Join(dir, "*.wal"))
	data, err := os.ReadFile(segs[0])
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(segs[0], data[:len(data)-1], 0o644); err != nil {
		t.Fatal(err)
	}
	lt, err := Open(dir, Options{Sync: SyncNever})
	if err != nil {
		t.Fatal(err)
	}
	defer lt.Close()
	torn, err := lt.ExportTail(after)
	if err != nil {
		t.Fatal(err)
	}
	if len(torn) != n-after-1 {
		t.Fatalf("torn export returned %d records, want %d", len(torn), n-after-1)
	}
}

// TestWALSkipTo: an adopting node continues the donor's sequence space; a
// log that already holds records refuses the jump.
func TestWALSkipTo(t *testing.T) {
	l, err := Open(t.TempDir(), Options{Sync: SyncNever})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	if err := l.SkipTo(41); err != nil {
		t.Fatal(err)
	}
	var buf []byte
	buf = testRecord(0).AppendTo(buf)
	seq, err := l.Append(buf)
	if err != nil {
		t.Fatal(err)
	}
	if seq != 42 {
		t.Fatalf("first append after SkipTo(41) got seq %d, want 42", seq)
	}
	if err := l.SkipTo(100); err == nil {
		t.Fatal("SkipTo on a non-empty log must refuse")
	}
	recs := replayAll(t, l, 41)
	if len(recs) != 1 || recs[0] != testRecord(0) {
		t.Fatalf("replay after 41 = %+v", recs)
	}
}
