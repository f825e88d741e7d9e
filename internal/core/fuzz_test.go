package core

import (
	"bytes"
	"encoding/json"
	"testing"

	"repro/internal/device"
	"repro/internal/window"
)

// FuzzLoadContext feeds arbitrary bytes to LoadContext twice: raw, and
// sealed in a valid envelope so mutations reach the JSON parser and the
// layout and fingerprint checks past the CRC. It must never panic, and
// whatever it accepts must survive a round trip: Save renders it,
// LoadContext takes that back with the same fingerprint, and the reloaded
// context saves to the same bytes. The seeds are a trained context as its
// envelope and as the bare JSON payload.
func FuzzLoadContext(f *testing.F) {
	l, ctx := trainAlternating(f)
	var buf bytes.Buffer
	if err := ctx.Save(&buf); err != nil {
		f.Fatal(err)
	}
	env := buf.Bytes()
	f.Add(env)
	f.Add(env[12:])
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, in := range [][]byte{data, sealContext(data)} {
			got, err := LoadContext(bytes.NewReader(in), l)
			if err != nil {
				continue
			}
			var first bytes.Buffer
			if err := got.Save(&first); err != nil {
				t.Fatalf("loaded context does not save: %v", err)
			}
			back, err := LoadContext(bytes.NewReader(first.Bytes()), l)
			if err != nil {
				t.Fatalf("saved context does not load: %v", err)
			}
			if back.Fingerprint() != got.Fingerprint() {
				t.Fatalf("fingerprint changed across a round trip: %s, then %s", got.Fingerprint(), back.Fingerprint())
			}
			var second bytes.Buffer
			if err := back.Save(&second); err != nil {
				t.Fatalf("reloaded context does not save: %v", err)
			}
			if !bytes.Equal(first.Bytes(), second.Bytes()) {
				t.Fatalf("context changed across a round trip:\n first: %s\nsecond: %s", first.Bytes()[12:], second.Bytes()[12:])
			}
		}
	})
}

// FuzzAdapterState unmarshals arbitrary JSON into an AdapterState,
// restores it into an adapter over the small alternating context, and
// feeds the adapter windows that sight an unseen set, fire an unseen
// transition, alert, and reach the decay cadence; every version it
// publishes then runs a detector over the same windows. A snapshot no
// export could produce must come back as an error from RestoreState or
// Observe, never as a panic. The seeds are an untouched adapter's state and
// states exported with a pending set and a pending edge in their ledgers.
func FuzzAdapterState(f *testing.F) {
	l, ctx := trainAlternating(f)
	seed := func(a *Adapter) {
		data, err := json.Marshal(a.ExportState())
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	a := newTestAdapter(f, ctx, WithAdmitAfter(3))
	seed(a)
	idx := 0
	feedAdmissionCycle(f, a, l, &idx)
	seed(a)
	for _, o := range []*window.Observation{oddObs(l, idx), evenBulbObs(l, idx+1)} {
		if _, err := a.Observe(o, Result{Violation: CheckG2A, Detected: true}); err != nil {
			f.Fatal(err)
		}
	}
	seed(a)

	g2aAlert := Result{Violation: CheckG2A, Detected: true, Alert: &Alert{Devices: []device.ID{4}, Cause: CheckG2A}}
	steps := []struct {
		obs *window.Observation
		res Result
	}{
		{oddObs(l, 0), Result{}},
		{evenObs(l, 1), Result{}},
		{newSetObs(l, 2), Result{Violation: CheckCorrelation, Detected: true, Identifying: true}},
		{oddObs(l, 3), Result{Identifying: true}},
		{evenBulbObs(l, 4), g2aAlert},
		{oddObs(l, 5), Result{}},
		{newSetObs(l, 6), Result{Violation: CheckCorrelation, Detected: true, Identifying: true}},
		{evenObs(l, 7), Result{}},
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var st AdapterState
		if err := json.Unmarshal(data, &st); err != nil {
			return
		}
		a, err := NewAdapter(ctx, WithAdmitAfter(2), WithDecay(0.5, 4))
		if err != nil {
			t.Fatal(err)
		}
		if err := a.RestoreState(&st); err != nil {
			return
		}
		for _, s := range steps {
			pub, err := a.Observe(s.obs, s.res)
			if err != nil {
				return
			}
			if pub == nil {
				continue
			}
			d, err := New(pub)
			if err != nil {
				continue
			}
			for _, s := range steps {
				if _, err := d.Process(s.obs); err != nil {
					break
				}
			}
		}
	})
}
