package wal

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"repro/internal/device"
	"repro/internal/event"
)

// randomEvents returns n events with arbitrary device IDs (negative and
// past any registry included) and values, ascending in time.
func randomEvents(rng *rand.Rand, n int) []event.Event {
	evts := make([]event.Event, n)
	at := time.Duration(rng.Int63n(int64(time.Hour)))
	for i := range evts {
		at += time.Duration(rng.Int63n(int64(time.Second)))
		evts[i] = event.Event{At: at, Device: device.ID(rng.Int31() - 1<<30), Value: rng.NormFloat64() * 1e6}
	}
	return evts
}

// segmentFiles reads every file in dir, by name.
func segmentFiles(t *testing.T, dir string) map[string][]byte {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	out := make(map[string][]byte, len(entries))
	for _, e := range entries {
		data, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		out[e.Name()] = data
	}
	return out
}

// TestWALAppendEventsMatchesAppendBatch: AppendEvents writes the segments
// AppendBatch writes for the events' IngestRecord payloads, byte for byte —
// for batches of 1 and 64 events, one that just fills a frame, and one past
// a frame's capacity, which splits into two frames the same way — and both
// logs replay the same (seq, payload) stream.
func TestWALAppendEventsMatchesAppendBatch(t *testing.T) {
	const perFrame = (maxFrameBody-binary.MaxVarintLen32-recordSize)/(1+recordSize) + 1
	rng := rand.New(rand.NewSource(3))
	var batches [][]event.Event
	for _, n := range []int{1, 64, perFrame + 1000, 64, perFrame, 1} {
		batches = append(batches, randomEvents(rng, n))
	}
	evDir, batchDir := t.TempDir(), t.TempDir()
	ev, err := Open(evDir, Options{Sync: SyncNever})
	if err != nil {
		t.Fatal(err)
	}
	ref, err := Open(batchDir, Options{Sync: SyncNever})
	if err != nil {
		t.Fatal(err)
	}
	for i, b := range batches {
		payloads := make([][]byte, len(b))
		for j, e := range b {
			payloads[j] = IngestRecord(e).AppendTo(nil)
		}
		want, err := ref.AppendBatch(payloads)
		if err != nil {
			t.Fatal(err)
		}
		got, err := ev.AppendEvents(b)
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Fatalf("batch %d: AppendEvents seq %d, AppendBatch seq %d", i, got, want)
		}
	}
	if got, want := replayStream(t, ev), replayStream(t, ref); !reflect.DeepEqual(got, want) {
		t.Fatalf("replay streams differ: %d vs %d records", len(got), len(want))
	}
	for _, l := range []*Log{ev, ref} {
		if err := l.Close(); err != nil {
			t.Fatal(err)
		}
	}
	got, want := segmentFiles(t, evDir), segmentFiles(t, batchDir)
	if len(got) != len(want) {
		t.Fatalf("AppendEvents wrote %d segments, AppendBatch %d", len(got), len(want))
	}
	for name, w := range want {
		if !bytes.Equal(got[name], w) {
			t.Errorf("segment %s differs (%d vs %d bytes)", name, len(got[name]), len(w))
		}
	}
	// Rotation waits for the end of a batch, so the first segment holds all
	// three first batches: one frame each for the small ones, two for the
	// big one.
	seg := want[fmt.Sprintf("%016x.wal", 1)]
	frames := batchFrame(1) + batchFrame(64) + 2*frameHeader + len(batches[2])*(1+recordSize)
	if len(seg) != segHeaderSize+frames {
		t.Errorf("first segment is %d bytes, want %d (the big batch in two frames)", len(seg), segHeaderSize+frames)
	}
}

// TestWALAppendEventsEdges: an empty slice is a no-op reporting the tail,
// and a closed log refuses.
func TestWALAppendEventsEdges(t *testing.T) {
	l, err := Open(t.TempDir(), Options{Sync: SyncNever})
	if err != nil {
		t.Fatal(err)
	}
	if seq, err := l.AppendEvents(randomEvents(rand.New(rand.NewSource(1)), 3)); err != nil || seq != 3 {
		t.Fatalf("AppendEvents: seq %d err %v", seq, err)
	}
	if seq, err := l.AppendEvents(nil); err != nil || seq != 3 {
		t.Fatalf("empty AppendEvents: seq %d err %v, want 3", seq, err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := l.AppendEvents(randomEvents(rand.New(rand.NewSource(2)), 1)); !errors.Is(err, ErrClosed) {
		t.Fatalf("AppendEvents on a closed log: %v, want ErrClosed", err)
	}
}
