package gateway

import (
	"bytes"
	"testing"
	"time"
)

// FuzzDecodeCheckpoint feeds arbitrary bytes to DecodeCheckpoint twice:
// raw, and sealed in a valid envelope so mutations reach the JSON parser
// and the version check past the CRC. It must never panic, and whatever it
// accepts must survive a round trip: EncodeCheckpoint renders it,
// DecodeCheckpoint takes that back, and the re-decoded value encodes to the
// same bytes. The seeds are one real checkpoint — taken mid-window from an
// adaptive gateway with a fault in progress — as its checksummed envelope
// and as the bare JSON payload.
func FuzzDecodeCheckpoint(f *testing.F) {
	h, ctx := trainedHome(f)
	gw, err := New(ctx, WithAdaptation())
	if err != nil {
		f.Fatal(err)
	}
	for _, e := range faultyAfternoon(f, h, 4) {
		if e.At >= 2*time.Hour+30*time.Minute+30*time.Second {
			break
		}
		if err := gw.Ingest(e); err != nil {
			f.Fatal(err)
		}
	}
	env, err := EncodeCheckpoint(gw.ExportCheckpoint())
	if err != nil {
		f.Fatal(err)
	}
	f.Add(env)
	f.Add(env[12:])
	f.Fuzz(func(t *testing.T, data []byte) {
		roundTripCheckpoint(t, data)
		roundTripCheckpoint(t, sealCheckpoint(data))
	})
}

// roundTripCheckpoint decodes data and, when it is accepted, checks that
// encoding is stable across a decode.
func roundTripCheckpoint(t *testing.T, data []byte) {
	t.Helper()
	cp, err := DecodeCheckpoint(data)
	if err != nil {
		return
	}
	enc, err := EncodeCheckpoint(cp)
	if err != nil {
		t.Fatalf("decoded checkpoint does not encode: %v", err)
	}
	back, err := DecodeCheckpoint(enc)
	if err != nil {
		t.Fatalf("re-encoded checkpoint does not decode: %v", err)
	}
	again, err := EncodeCheckpoint(back)
	if err != nil {
		t.Fatalf("re-decoded checkpoint does not encode: %v", err)
	}
	if !bytes.Equal(again, enc) {
		t.Fatalf("checkpoint changed across a round trip:\n first: %s\nsecond: %s", enc[12:], again[12:])
	}
}
