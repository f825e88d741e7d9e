package core

import (
	"bytes"
	"errors"
	"math"
	"strings"
	"testing"
	"time"

	"repro/internal/bitvec"
)

// mustBuilder returns a fresh epoch-0 builder over the toy core layout.
func mustBuilder(t testing.TB) *ContextBuilder {
	t.Helper()
	l := coreLayout(t)
	cb, err := NewContextBuilder(l, time.Minute, []float64{20, 100})
	if err != nil {
		t.Fatal(err)
	}
	return cb
}

// seal builds the context, failing the test on error.
func seal(t testing.TB, cb *ContextBuilder) *Context {
	t.Helper()
	ctx, err := cb.Build()
	if err != nil {
		t.Fatal(err)
	}
	return ctx
}

func vec(t testing.TB, s string) *bitvec.Vec {
	t.Helper()
	v, err := bitvec.Parse(s)
	if err != nil {
		t.Fatal(err)
	}
	return v
}

func TestNewContextBuilderValidation(t *testing.T) {
	l := coreLayout(t)
	if _, err := NewContextBuilder(nil, time.Minute, nil); err == nil {
		t.Error("nil layout accepted")
	}
	if _, err := NewContextBuilder(l, time.Minute, []float64{1}); err == nil {
		t.Error("wrong threshold count accepted")
	}
	cb, err := NewContextBuilder(l, 0, []float64{1, 2})
	if err != nil {
		t.Fatal(err)
	}
	if ctx := seal(t, cb); ctx.Duration() != DefaultDuration {
		t.Errorf("zero duration should default, got %v", ctx.Duration())
	}
}

func TestAddGroupInterns(t *testing.T) {
	cb := mustBuilder(t)
	a := vec(t, "10000000")
	b := vec(t, "01000000")
	id0 := cb.AddGroup(a)
	id1 := cb.AddGroup(b)
	id0again := cb.AddGroup(a.Clone())
	if id0 != 0 || id1 != 1 || id0again != 0 {
		t.Errorf("ids = %d, %d, %d", id0, id1, id0again)
	}
	ctx := seal(t, cb)
	if ctx.NumGroups() != 2 {
		t.Errorf("NumGroups = %d, want 2", ctx.NumGroups())
	}
	if id, ok := ctx.GroupID(b); !ok || id != 1 {
		t.Errorf("GroupID = (%d, %v)", id, ok)
	}
	if _, ok := ctx.GroupID(vec(t, "11111111")); ok {
		t.Error("unknown group found")
	}
}

func TestAddGroupCopies(t *testing.T) {
	cb := mustBuilder(t)
	a := vec(t, "10000000")
	cb.AddGroup(a)
	a.Set(7) // mutate the caller's vector
	g, err := seal(t, cb).Group(0)
	if err != nil {
		t.Fatal(err)
	}
	if g.Get(7) {
		t.Error("context aliased the caller's vector")
	}
}

func TestGroupErrors(t *testing.T) {
	if _, err := seal(t, mustBuilder(t)).Group(0); err == nil {
		t.Error("empty context returned a group")
	}
	cb := mustBuilder(t)
	cb.AddGroup(vec(t, "10000000"))
	if _, err := seal(t, cb).Group(-1); err == nil {
		t.Error("negative id accepted")
	}
}

func TestScanFindsMain(t *testing.T) {
	cb := mustBuilder(t)
	g0 := cb.AddGroup(vec(t, "10000000"))
	cb.AddGroup(vec(t, "11000000")) // distance 1 from g0
	cb.AddGroup(vec(t, "11100000")) // distance 2 from g0
	cb.AddGroup(vec(t, "11111111")) // far away
	ctx := seal(t, cb)

	c := ctx.Scan(vec(t, "10000000"), 2)
	if c.Main != g0 {
		t.Errorf("Main = %d, want %d", c.Main, g0)
	}
	// An exact match short-circuits the scan: no caller consumes Probable
	// or MinDistance when a main group exists.
	if c.Probable != nil {
		t.Errorf("Probable = %v, want nil on the exact-match path", c.Probable)
	}
	if c.MinDistance != NoDistance {
		t.Errorf("MinDistance = %d, want NoDistance", c.MinDistance)
	}
}

func TestScanEmptyCatalogue(t *testing.T) {
	ctx := seal(t, mustBuilder(t))
	c := ctx.Scan(vec(t, "10000000"), 2)
	if c.Main != NoGroup {
		t.Errorf("Main = %d, want NoGroup", c.Main)
	}
	if c.Probable != nil {
		t.Errorf("Probable = %v, want nil", c.Probable)
	}
	if c.MinDistance != NoDistance {
		t.Errorf("MinDistance = %d, want NoDistance (documented empty-catalogue sentinel)", c.MinDistance)
	}
	if n := ctx.ScanNaive(vec(t, "10000000"), 2); n.MinDistance != NoDistance || n.Main != NoGroup {
		t.Errorf("ScanNaive on empty catalogue = %+v", n)
	}
}

func TestScanNoMainGroup(t *testing.T) {
	cb := mustBuilder(t)
	g0 := cb.AddGroup(vec(t, "11000000"))
	cb.AddGroup(vec(t, "00111111"))
	c := seal(t, cb).Scan(vec(t, "10000000"), 1)
	if c.Main != NoGroup {
		t.Errorf("Main = %d, want NoGroup", c.Main)
	}
	if len(c.Probable) != 1 || c.Probable[0] != g0 {
		t.Errorf("Probable = %v, want [%d]", c.Probable, g0)
	}
	if c.MinDistance != 1 {
		t.Errorf("MinDistance = %d, want 1", c.MinDistance)
	}
}

func TestScanFallbackToNearest(t *testing.T) {
	cb := mustBuilder(t)
	// Both groups far from the query; candidate distance 1 finds none, so
	// Scan falls back to the nearest set.
	gNear := cb.AddGroup(vec(t, "11110000")) // distance 3 from query
	cb.AddGroup(vec(t, "11111111"))          // distance 7
	c := seal(t, cb).Scan(vec(t, "10000000"), 1)
	if c.Main != NoGroup {
		t.Fatalf("Main = %d, want NoGroup", c.Main)
	}
	if len(c.Probable) != 1 || c.Probable[0] != gNear {
		t.Errorf("fallback Probable = %v, want [%d]", c.Probable, gNear)
	}
	if c.MinDistance != 3 {
		t.Errorf("MinDistance = %d, want 3", c.MinDistance)
	}
}

func TestScanProbableOrderedByDistance(t *testing.T) {
	cb := mustBuilder(t)
	gFar := cb.AddGroup(vec(t, "01100000"))  // distance 3 from query
	gNear := cb.AddGroup(vec(t, "10100000")) // distance 1
	c := seal(t, cb).Scan(vec(t, "10000000"), 3)
	if len(c.Probable) != 2 || c.Probable[0] != gNear || c.Probable[1] != gFar {
		t.Errorf("Probable = %v, want [%d %d]", c.Probable, gNear, gFar)
	}
}

func TestCorrelationDegree(t *testing.T) {
	if got := seal(t, mustBuilder(t)).CorrelationDegree(); got != 0 {
		t.Error("empty context degree should be 0")
	}
	cb := mustBuilder(t)
	// Group 1: binary 0 active + numeric slot 0 active (2 sensors).
	// Layout bits: [b0 b1 | n0:skew n0:trend n0:mean | n1...]
	cb.AddGroup(vec(t, "10110000"))
	// Group 2: all four sensors active; three numeric-1 bits still one sensor.
	cb.AddGroup(vec(t, "11001111"))
	want := (2.0 + 4.0) / 2.0
	if got := seal(t, cb).CorrelationDegree(); math.Abs(got-want) > 1e-12 {
		t.Errorf("CorrelationDegree = %v, want %v", got, want)
	}
}

// TestBuilderVersionChain: a builder publishes an epoch chain — each Build
// seals an immutable snapshot whose parent hash pins its predecessor, and
// Derive forks a copy-on-write working copy without touching the original.
func TestBuilderVersionChain(t *testing.T) {
	cb := mustBuilder(t)
	g0 := cb.AddGroup(vec(t, "10000000"))
	base := seal(t, cb)
	if base.Epoch() != 0 {
		t.Fatalf("trained context epoch = %d, want 0", base.Epoch())
	}
	if base.Fingerprint() == "" || base.ParentFingerprint() != "" {
		t.Fatalf("base fingerprint/parent = %q/%q", base.Fingerprint(), base.ParentFingerprint())
	}

	db := base.Derive()
	g1 := db.AddGroup(vec(t, "01000000"))
	db.ObserveG2G(g0, g1)
	next := seal(t, db)
	if next.Epoch() != 1 || next.ParentFingerprint() != base.Fingerprint() {
		t.Fatalf("derived epoch/parent = %d/%q, want 1/%q", next.Epoch(), next.ParentFingerprint(), base.Fingerprint())
	}
	if next.Fingerprint() == base.Fingerprint() {
		t.Error("distinct versions share a fingerprint")
	}
	// The original version is untouched: group IDs are append-only and the
	// base still knows nothing about the new group or transition.
	if base.NumGroups() != 1 {
		t.Errorf("base NumGroups = %d after derive, want 1", base.NumGroups())
	}
	if base.G2G().Possible(g0, g1) {
		t.Error("derivation leaked a transition into the parent version")
	}
	if id, ok := next.GroupID(vec(t, "10000000")); !ok || id != g0 {
		t.Errorf("derived version lost group %d: (%d, %v)", g0, id, ok)
	}

	// The same builder keeps publishing: a further Build chains onto next.
	db.AddGroup(vec(t, "00100000"))
	third := seal(t, db)
	if third.Epoch() != 2 || third.ParentFingerprint() != next.Fingerprint() {
		t.Errorf("third epoch/parent = %d/%q, want 2/%q", third.Epoch(), third.ParentFingerprint(), next.Fingerprint())
	}
}

// TestFingerprintDeterministic: the fingerprint is a pure function of the
// context's payload, so an identically rebuilt context reproduces it.
func TestFingerprintDeterministic(t *testing.T) {
	build := func() *Context {
		cb := mustBuilder(t)
		a := cb.AddGroup(vec(t, "10110000"))
		b := cb.AddGroup(vec(t, "01001100"))
		cb.ObserveG2G(a, b)
		cb.ObserveG2A(a, 0)
		cb.ObserveA2G(0, b)
		return seal(t, cb)
	}
	c1, c2 := build(), build()
	if c1.Fingerprint() != c2.Fingerprint() {
		t.Errorf("identical builds disagree: %q vs %q", c1.Fingerprint(), c2.Fingerprint())
	}
}

func TestContextSaveLoadRoundTrip(t *testing.T) {
	l := coreLayout(t)
	cb, err := NewContextBuilder(l, 2*time.Minute, []float64{21.5, 98})
	if err != nil {
		t.Fatal(err)
	}
	g0 := cb.AddGroup(vec(t, "10110000"))
	g1 := cb.AddGroup(vec(t, "01001100"))
	cb.ObserveG2G(g0, g1)
	cb.ObserveG2G(g1, g1)
	cb.ObserveG2A(g0, 0)
	cb.ObserveA2G(0, g1)
	ctx := seal(t, cb)

	var buf bytes.Buffer
	if err := ctx.Save(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := LoadContext(&buf, l)
	if err != nil {
		t.Fatal(err)
	}
	if got.Duration() != 2*time.Minute {
		t.Errorf("duration = %v", got.Duration())
	}
	if got.NumGroups() != 2 {
		t.Fatalf("NumGroups = %d", got.NumGroups())
	}
	if id, ok := got.GroupID(vec(t, "01001100")); !ok || id != g1 {
		t.Errorf("group lookup after load: (%d, %v)", id, ok)
	}
	if !got.G2G().Possible(g0, g1) || !got.G2G().Possible(g1, g1) {
		t.Error("G2G lost transitions")
	}
	if !got.G2A().Possible(g0, 0) || !got.A2G().Possible(0, g1) {
		t.Error("G2A/A2G lost transitions")
	}
	thre := got.ValueThre()
	if thre[0] != 21.5 || thre[1] != 98 {
		t.Errorf("thresholds = %v", thre)
	}
	if got.Epoch() != ctx.Epoch() || got.Fingerprint() != ctx.Fingerprint() {
		t.Errorf("version lost: epoch %d/%d fingerprint %q/%q",
			got.Epoch(), ctx.Epoch(), got.Fingerprint(), ctx.Fingerprint())
	}
}

// TestContextEnvelope: Save writes the checksummed DICECKS1 envelope; a
// flipped payload byte surfaces as ErrCorruptContext, and a plain-JSON
// stream (no envelope) fails with ErrLegacyContext.
func TestContextEnvelope(t *testing.T) {
	l := coreLayout(t)
	cb, err := NewContextBuilder(l, time.Minute, []float64{1, 2})
	if err != nil {
		t.Fatal(err)
	}
	cb.AddGroup(vec(t, "10000000"))
	ctx := seal(t, cb)
	var buf bytes.Buffer
	if err := ctx.Save(&buf); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	if !bytes.HasPrefix(raw, []byte("DICECKS1")) {
		t.Fatalf("saved context missing envelope magic: %q", raw[:8])
	}

	// Bit rot in the payload: CRC catches it.
	rot := append([]byte(nil), raw...)
	rot[len(rot)-2] ^= 0x40
	if _, err := LoadContext(bytes.NewReader(rot), l); !errors.Is(err, ErrCorruptContext) {
		t.Errorf("corrupt payload: err = %v, want ErrCorruptContext", err)
	}

	// The bare JSON payload, as written before the envelope existed, and
	// inputs too short to hold one are legacy files, not damage.
	for _, legacy := range [][]byte{raw[12:], raw[:11], nil} {
		_, err := LoadContext(bytes.NewReader(legacy), l)
		if !errors.Is(err, ErrLegacyContext) || errors.Is(err, ErrCorruptContext) {
			t.Errorf("%d-byte file without envelope: err = %v, want ErrLegacyContext", len(legacy), err)
		}
	}
	if got, err := LoadContext(bytes.NewReader(sealContext(raw[12:])), l); err != nil || got.Fingerprint() != ctx.Fingerprint() {
		t.Fatalf("resealed payload: err = %v", err)
	}

	// A tampered fingerprint field under a valid CRC fails verification.
	tampered := strings.Replace(string(raw[12:]), ctx.Fingerprint(), strings.Repeat("0", 16), 1)
	if _, err := LoadContext(bytes.NewReader(sealContext([]byte(tampered))), l); !errors.Is(err, ErrCorruptContext) {
		t.Errorf("tampered fingerprint: err = %v, want ErrCorruptContext", err)
	}
}

func TestLoadContextRejectsWrongLayout(t *testing.T) {
	l := coreLayout(t)
	cb, err := NewContextBuilder(l, time.Minute, []float64{1, 2})
	if err != nil {
		t.Fatal(err)
	}
	cb.AddGroup(vec(t, "10000000"))
	ctx := seal(t, cb)
	var buf bytes.Buffer
	if err := ctx.Save(&buf); err != nil {
		t.Fatal(err)
	}
	// Reseal the payload with the fingerprint blanked, so the layout
	// checks are what reject the mutations rather than the integrity
	// checks.
	text := strings.Replace(buf.String()[12:], ctx.Fingerprint(), "", 1)
	load := func(payload string) error {
		_, err := LoadContext(bytes.NewReader(sealContext([]byte(payload))), l)
		return err
	}
	if err := load(text); err != nil {
		t.Fatalf("unmutated payload rejected: %v", err)
	}
	if load(strings.Replace(text, "motion-a", "motion-X", 1)) == nil {
		t.Error("renamed device accepted")
	}
	if load("{bad json") == nil {
		t.Error("malformed JSON accepted")
	}
	// Wrong group width.
	if load(strings.Replace(text, `"10000000"`, `"100"`, 1)) == nil {
		t.Error("wrong group width accepted")
	}
}
