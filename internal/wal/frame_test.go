package wal

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/telemetry"
)

// rawFrame is a frame with a valid CRC around an arbitrary body.
func rawFrame(firstSeq uint64, body []byte) []byte {
	frame := append(openFrame(nil, firstSeq), body...)
	sealFrame(frame)
	return frame
}

// packed is payload behind its varint length: one record of a frame body.
func packed(payload []byte) []byte {
	return append(binary.AppendUvarint(nil, uint64(len(payload))), payload...)
}

// TestWALRejectsLegacyFormat: a DICEWAL1 segment, as the tail or ahead of
// a current one, fails Open with ErrLegacyFormat and is left untouched.
// Its one-record frame would pass the current CRC check, so only the magic
// keeps it from replaying as garbage.
func TestWALRejectsLegacyFormat(t *testing.T) {
	payload := testRecord(0).AppendTo(nil)
	legacy := append(append([]byte(nil), legacyMagic[:]...), make([]byte, 8)...)
	binary.LittleEndian.PutUint64(legacy[8:], 1)
	var hdr [frameHeader]byte
	binary.LittleEndian.PutUint64(hdr[0:8], 1)
	binary.LittleEndian.PutUint32(hdr[8:12], uint32(len(payload)))
	sum := crc32.Update(crc32.Update(0, castagnoli, hdr[0:12]), castagnoli, payload)
	binary.LittleEndian.PutUint32(hdr[12:16], sum)
	legacy = append(append(legacy, hdr[:]...), payload...)

	current := segmentHeader(2)
	for _, tc := range []struct {
		name  string
		files map[uint64][]byte
	}{
		{"tail", map[uint64][]byte{1: legacy}},
		{"ahead of a current segment", map[uint64][]byte{1: legacy, 2: append(current[:], rawFrame(2, packed(payload))...)}},
	} {
		dir := t.TempDir()
		for first, data := range tc.files {
			if err := os.WriteFile(filepath.Join(dir, fmt.Sprintf("%016x.wal", first)), data, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := Open(dir, Options{Sync: SyncNever}); !errors.Is(err, ErrLegacyFormat) {
			t.Fatalf("%s: Open error = %v, want ErrLegacyFormat", tc.name, err)
		}
		for first, want := range tc.files {
			got, err := os.ReadFile(filepath.Join(dir, fmt.Sprintf("%016x.wal", first)))
			if err != nil || !bytes.Equal(got, want) {
				t.Fatalf("%s: segment %d changed by the refused Open (%v)", tc.name, first, err)
			}
		}
	}
}

// TestWALMalformedFrameBody: a frame whose CRC holds but whose body does
// not parse exactly into records yields nothing. Open counts it, truncates
// the segment to the frame before it (dropping a valid frame behind it
// too), replays only that prefix, and continues the chain.
func TestWALMalformedFrameBody(t *testing.T) {
	good := testRecord(0).AppendTo(nil)
	for _, tc := range []struct {
		name string
		body []byte
	}{
		{"empty body", nil},
		{"truncated varint", []byte{0x80}},
		{"overflowing varint", bytes.Repeat([]byte{0xff}, binary.MaxVarintLen64+1)},
		{"length past body end", append(binary.AppendUvarint(nil, uint64(len(good)+1)), good...)},
		{"record over the size limit", binary.AppendUvarint(nil, maxRecordSize+1)},
		{"trailing bytes", append(packed(good), 0x05, 0x01)},
		{"trailing partial varint", append(packed(good), 0x80)},
	} {
		dir := t.TempDir()
		path := filepath.Join(dir, fmt.Sprintf("%016x.wal", 1))
		seg := segmentHeader(1)
		data := append(seg[:], rawFrame(1, packed(good))...)
		goodSize := len(data)
		data = append(data, rawFrame(2, tc.body)...)
		data = append(data, rawFrame(2, packed(good))...)
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		reg := telemetry.NewRegistry()
		l, err := Open(dir, Options{Sync: SyncNever, Telemetry: reg})
		if err != nil {
			t.Fatalf("%s: open: %v", tc.name, err)
		}
		if got := l.LastSeq(); got != 1 {
			t.Fatalf("%s: LastSeq = %d, want 1", tc.name, got)
		}
		if got := reg.Counter(metricCorrupt, "").Value(); got != 1 {
			t.Fatalf("%s: corrupt counter = %d, want 1", tc.name, got)
		}
		info, err := os.Stat(path)
		if err != nil {
			t.Fatal(err)
		}
		if info.Size() != int64(goodSize) {
			t.Fatalf("%s: segment truncated to %d bytes, want %d", tc.name, info.Size(), goodSize)
		}
		if got, want := replayStream(t, l), []seqPayload{{1, string(good)}}; !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: replayed %v, want only seq 1", tc.name, got)
		}
		if seq, err := l.Append(good); err != nil || seq != 2 {
			t.Fatalf("%s: continuation append seq %d err %v", tc.name, seq, err)
		}
		l.Close()
	}
}

// TestWALAppendBatchSplitsFrames: a batch whose records overflow
// maxFrameBody packs into several frames in one write. A record of maximum
// size fills a frame alone, the batch round-trips byte for byte, and a cut
// anywhere past a frame keeps every whole frame before it.
func TestWALAppendBatchSplitsFrames(t *testing.T) {
	big := make([]byte, maxRecordSize)
	for i := range big {
		big[i] = byte(i * 7)
	}
	payloads := [][]byte{testRecord(0).AppendTo(nil), big, testRecord(2).AppendTo(nil), testRecord(3).AppendTo(nil)}
	dir := t.TempDir()
	l, err := Open(dir, Options{Sync: SyncNever})
	if err != nil {
		t.Fatal(err)
	}
	if seq, err := l.AppendBatch(payloads); err != nil || seq != 4 {
		t.Fatalf("AppendBatch: seq %d err %v", seq, err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	name := fmt.Sprintf("%016x.wal", 1)
	data, err := os.ReadFile(filepath.Join(dir, name))
	if err != nil {
		t.Fatal(err)
	}
	// Frames: [record 0] | [big] | [records 2, 3].
	first := segHeaderSize + appendFrame
	second := first + frameHeader + len(packed(big))
	ends := []frameEnd{{first, 1}, {second, 2}, {second + batchFrame(2), 4}}
	if len(data) != ends[2].off {
		t.Fatalf("segment is %d bytes, want %d", len(data), ends[2].off)
	}

	var want []seqPayload
	for i, p := range payloads {
		want = append(want, seqPayload{uint64(i + 1), string(p)})
	}
	for _, cut := range []int{len(data), len(data) - 1, second, second - 1, first + frameHeader, first} {
		cdir := t.TempDir()
		if err := os.WriteFile(filepath.Join(cdir, name), data[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		l, err := Open(cdir, Options{Sync: SyncNever})
		if err != nil {
			t.Fatalf("cut %d: open: %v", cut, err)
		}
		kept := keptFrames(ends, cut).records
		if got := l.LastSeq(); got != uint64(kept) {
			t.Fatalf("cut %d: LastSeq = %d, want %d", cut, got, kept)
		}
		if got := replayStream(t, l); !reflect.DeepEqual(got, want[:kept]) {
			t.Fatalf("cut %d: replayed %d records, want the first %d byte for byte", cut, len(got), kept)
		}
		l.Close()
	}
}
