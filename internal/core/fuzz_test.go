package core

import (
	"bytes"
	"testing"
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
