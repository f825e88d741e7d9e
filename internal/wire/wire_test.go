package wire

import (
	"encoding/binary"
	"errors"
	"strings"
	"testing"
	"time"

	"repro/internal/device"
	"repro/internal/event"
)

func sampleEvents(n int) []event.Event {
	evts := make([]event.Event, n)
	for i := range evts {
		evts[i] = event.Event{
			At:     time.Duration(i) * 37 * time.Second,
			Device: device.ID(i % 11),
			Value:  float64(i) * 0.75,
		}
	}
	return evts
}

func TestReportRoundTrip(t *testing.T) {
	for _, n := range []int{0, 1, 16, 257} {
		evts := sampleEvents(n)
		payload := AppendReport(nil, evts)
		b, err := DecodeBatch(payload, nil)
		if err != nil {
			t.Fatalf("n=%d: decode: %v", n, err)
		}
		if b.Kind != KindReport {
			t.Fatalf("n=%d: kind %d, want report", n, b.Kind)
		}
		if len(b.Events) != n {
			t.Fatalf("n=%d: decoded %d events", n, len(b.Events))
		}
		for i, e := range b.Events {
			if e != evts[i] {
				t.Fatalf("n=%d: event %d = %+v, want %+v", n, i, e, evts[i])
			}
		}
	}
}

func TestAdvanceRoundTrip(t *testing.T) {
	payload := AppendAdvance(nil, 90*time.Minute)
	b, err := DecodeBatch(payload, nil)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if b.Kind != KindAdvance || b.At != 90*time.Minute {
		t.Fatalf("got kind=%d at=%s", b.Kind, b.At)
	}
}

// TestSniffRejectsJSON: the magic check turns away JSON reports and
// payloads too short to hold the magic before any other field is read.
func TestSniffRejectsJSON(t *testing.T) {
	for _, p := range [][]byte{
		[]byte(`[{"at":1,"d":2,"v":3}]`),
		[]byte(`{"at":60000}`),
		[]byte(""),
		[]byte("DWB"),
	} {
		if _, err := DecodeBatch(p, nil); !errors.Is(err, ErrMalformed) || !strings.Contains(err.Error(), "missing magic") {
			t.Fatalf("payload %q: err = %v, want missing magic", p, err)
		}
	}
}

func TestDecodeRejectsMalformed(t *testing.T) {
	good := AppendReport(nil, sampleEvents(4))
	cases := map[string][]byte{
		"not binary":  []byte(`[]`),
		"short":       good[:headerSize],
		"truncated":   good[:len(good)-1],
		"extra byte":  append(append([]byte(nil), good...), 0),
		"bad version": withByte(good, 4, 99),
		"bad kind":    withByte(good, 5, 7),
		"bad crc":     withByte(good, len(good)-1, good[len(good)-1]^0xff),
		"flipped bit": withByte(good, headerSize+3, good[headerSize+3]^0x10),
	}
	// A count that disagrees with the body length must fail even with a
	// recomputed CRC: DecodeBatch cross-checks both.
	bad := append([]byte(nil), good...)
	binary.LittleEndian.PutUint32(bad[6:10], 3)
	bad = appendTrailer(bad[:len(bad)-trailerSize])
	cases["count mismatch"] = bad

	adv := AppendAdvance(nil, time.Hour)
	advBad := append([]byte(nil), adv...)
	binary.LittleEndian.PutUint32(advBad[6:10], 1)
	advBad = appendTrailer(advBad[:len(advBad)-trailerSize])
	cases["advance with count"] = advBad

	for name, payload := range cases {
		if _, err := DecodeBatch(payload, nil); !errors.Is(err, ErrMalformed) {
			t.Errorf("%s: err = %v, want ErrMalformed", name, err)
		}
	}
}

func withByte(src []byte, i int, v byte) []byte {
	out := append([]byte(nil), src...)
	out[i] = v
	return out
}

// A corrupted version/kind byte must fail the CRC before any semantic
// check can mis-handle it; equally, a re-sealed batch with a hostile
// count must fail the length check. Both are covered above — this guard
// is about the decode hot path staying allocation-free.
func TestDecodeBatchZeroAlloc(t *testing.T) {
	evts := sampleEvents(64)
	payload := AppendReport(nil, evts)
	scratch := make([]event.Event, 0, len(evts))
	allocs := testing.AllocsPerRun(100, func() {
		b, err := DecodeBatch(payload, scratch)
		if err != nil {
			t.Fatal(err)
		}
		scratch = b.Events
	})
	if allocs != 0 {
		t.Fatalf("DecodeBatch allocates %.1f times per call, want 0", allocs)
	}
}

func TestAppendReportZeroAllocSteadyState(t *testing.T) {
	evts := sampleEvents(64)
	buf := AppendReport(nil, evts) // grow once
	allocs := testing.AllocsPerRun(100, func() {
		buf = AppendReport(buf[:0], evts)
	})
	if allocs != 0 {
		t.Fatalf("AppendReport allocates %.1f times per call, want 0", allocs)
	}
}

func TestEventsPoolRoundTrip(t *testing.T) {
	s := GetEvents()
	b, err := DecodeBatch(AppendReport(nil, sampleEvents(32)), *s)
	if err != nil {
		t.Fatal(err)
	}
	*s = b.Events
	if len(*s) != 32 {
		t.Fatalf("decoded %d events", len(*s))
	}
	PutEvents(s)
	s2 := GetEvents()
	if len(*s2) != 0 {
		t.Fatalf("pooled slice came back with length %d", len(*s2))
	}
	PutEvents(s2)
}

func FuzzDecodeBatch(f *testing.F) {
	f.Add(AppendReport(nil, sampleEvents(0)))
	f.Add(AppendReport(nil, sampleEvents(1)))
	f.Add(AppendReport(nil, sampleEvents(16)))
	f.Add(AppendAdvance(nil, time.Hour))
	f.Add([]byte(`[{"at":1,"d":2,"v":3}]`))
	f.Add([]byte("DWB1garbage"))
	f.Fuzz(func(t *testing.T, payload []byte) {
		b, err := DecodeBatch(payload, nil)
		if err != nil {
			if !errors.Is(err, ErrMalformed) {
				t.Fatalf("non-ErrMalformed decode error: %v", err)
			}
			return
		}
		// A successful decode must re-encode to the identical payload:
		// the format has no redundancy beyond the CRC, so round-tripping
		// is exact.
		var again []byte
		switch b.Kind {
		case KindReport:
			again = AppendReport(nil, b.Events)
		case KindAdvance:
			again = AppendAdvance(nil, b.At)
		default:
			t.Fatalf("decoded unknown kind %d", b.Kind)
		}
		if string(again) != string(payload) {
			t.Fatalf("round trip mismatch:\n in %x\nout %x", payload, again)
		}
	})
}
