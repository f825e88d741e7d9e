package core

import (
	"math/rand"
	"reflect"
	"testing"
	"time"

	"repro/internal/bitvec"
	"repro/internal/device"
	"repro/internal/window"
)

// wideLayout builds a layout whose state set spans several words, so the
// indexed scan's word loop and popcount buckets are exercised beyond the
// 8-bit toy layout of the other tests: 80 binary + 16 numeric = 128 bits.
func wideLayout(t testing.TB) (*window.Layout, []float64) {
	t.Helper()
	reg := device.NewRegistry()
	for i := 0; i < 80; i++ {
		reg.MustAdd("bin-"+string(rune('a'+i%26))+"-"+string(rune('0'+i/26)), device.Binary, device.Motion, "room")
	}
	thre := make([]float64, 16)
	for i := 0; i < 16; i++ {
		reg.MustAdd("num-"+string(rune('a'+i)), device.Numeric, device.Temperature, "room")
		thre[i] = 20
	}
	return window.NewLayout(reg), thre
}

// randVec draws a vector of n bits with the given set-bit density.
func randVec(rng *rand.Rand, n int, density float64) *bitvec.Vec {
	v := bitvec.New(n)
	for i := 0; i < n; i++ {
		if rng.Float64() < density {
			v.Set(i)
		}
	}
	return v
}

// randCatalogue interns size random groups clustered around a handful of
// seed patterns, mimicking real catalogues where groups are near-neighbours
// of each other rather than uniform noise, and returns the sealed context.
func randCatalogue(t testing.TB, rng *rand.Rand, layout *window.Layout, thre []float64, nbits, size int) *Context {
	t.Helper()
	cb, err := NewContextBuilder(layout, time.Minute, thre)
	if err != nil {
		t.Fatal(err)
	}
	seeds := make([]*bitvec.Vec, 8)
	for i := range seeds {
		seeds[i] = randVec(rng, nbits, 0.25)
	}
	for cb.NumGroups() < size {
		g := seeds[rng.Intn(len(seeds))].Clone()
		for f := rng.Intn(6); f > 0; f-- {
			g.Flip(rng.Intn(nbits))
		}
		cb.AddGroup(g)
	}
	ctx, err := cb.Build()
	if err != nil {
		t.Fatal(err)
	}
	return ctx
}

// TestScanMatchesNaiveReference is the property-style equivalence test: the
// indexed Scan must return identical Candidates to the retained naive
// reference across randomized catalogues, queries, and candidate distances.
func TestScanMatchesNaiveReference(t *testing.T) {
	layout, thre := wideLayout(t)
	nbits := layout.NumBinary() + BitsPerNumeric*layout.NumNumeric()
	rng := rand.New(rand.NewSource(7))
	for round := 0; round < 40; round++ {
		ctx := randCatalogue(t, rng, layout, thre, nbits, 1+rng.Intn(200))
		scratch := new(ScanScratch)
		for q := 0; q < 25; q++ {
			var query *bitvec.Vec
			switch q % 3 {
			case 0: // exact-match path
				g, err := ctx.Group(rng.Intn(ctx.NumGroups()))
				if err != nil {
					t.Fatal(err)
				}
				query = g.Clone()
			case 1: // near-miss: a group with a few bits flipped
				g, err := ctx.Group(rng.Intn(ctx.NumGroups()))
				if err != nil {
					t.Fatal(err)
				}
				query = g.Clone()
				for f := 1 + rng.Intn(4); f > 0; f-- {
					query.Flip(rng.Intn(nbits))
				}
			default: // far query
				query = randVec(rng, nbits, rng.Float64())
			}
			maxDist := rng.Intn(8)
			got := ctx.ScanWith(scratch, query, maxDist)
			want := ctx.ScanNaive(query, maxDist)
			if got.Main != want.Main || got.MinDistance != want.MinDistance ||
				!equalIntSlices(got.Probable, want.Probable) {
				t.Fatalf("round %d query %d maxDist %d:\nindexed %+v\nnaive   %+v",
					round, q, maxDist, got, want)
			}
		}
	}
}

func equalIntSlices(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestScanWithScratchReuse: reusing one scratch across scans must not leak
// results between calls.
func TestScanWithScratchReuse(t *testing.T) {
	layout, thre := wideLayout(t)
	nbits := layout.NumBinary() + BitsPerNumeric*layout.NumNumeric()
	rng := rand.New(rand.NewSource(11))
	ctx := randCatalogue(t, rng, layout, thre, nbits, 64)
	scratch := new(ScanScratch)
	q1 := randVec(rng, nbits, 0.25)
	first := ctx.ScanWith(scratch, q1, 4)
	firstCopy := Candidates{
		Main:        first.Main,
		Probable:    append([]int(nil), first.Probable...),
		MinDistance: first.MinDistance,
	}
	// A second scan through the same scratch may overwrite first.Probable's
	// memory (documented); the fresh result must still match the reference.
	q2 := randVec(rng, nbits, 0.5)
	second := ctx.ScanWith(scratch, q2, 4)
	want := ctx.ScanNaive(q2, 4)
	if second.Main != want.Main || !equalIntSlices(second.Probable, want.Probable) {
		t.Fatalf("second scan diverged: %+v vs %+v", second, want)
	}
	if wantFirst := ctx.ScanNaive(q1, 4); !reflect.DeepEqual(firstCopy, wantFirst) {
		t.Fatalf("first scan (copied before reuse) diverged: %+v vs %+v", firstCopy, wantFirst)
	}
}

// TestScanExactMatchAllocFree: the exact-match path of ScanWith must not
// allocate — it is the per-window common case of the real-time phase.
func TestScanExactMatchAllocFree(t *testing.T) {
	layout, thre := wideLayout(t)
	nbits := layout.NumBinary() + BitsPerNumeric*layout.NumNumeric()
	rng := rand.New(rand.NewSource(3))
	ctx := randCatalogue(t, rng, layout, thre, nbits, 256)
	g, err := ctx.Group(100)
	if err != nil {
		t.Fatal(err)
	}
	query := g.Clone()
	scratch := new(ScanScratch)
	ctx.ScanWith(scratch, query, 4) // warm the scratch
	allocs := testing.AllocsPerRun(100, func() {
		c := ctx.ScanWith(scratch, query, 4)
		if c.Main != 100 {
			t.Fatal("lost the main group")
		}
	})
	if allocs != 0 {
		t.Errorf("exact-match ScanWith allocates %.1f objects per run, want 0", allocs)
	}
}

// TestScanViolationPathAllocs: with a warmed scratch, the violation path
// allocates nothing: candidates land in the scratch and are ordered by a
// reflection-free sort.
func TestScanViolationPathAllocs(t *testing.T) {
	layout, thre := wideLayout(t)
	nbits := layout.NumBinary() + BitsPerNumeric*layout.NumNumeric()
	rng := rand.New(rand.NewSource(5))
	ctx := randCatalogue(t, rng, layout, thre, nbits, 256)
	g, err := ctx.Group(100)
	if err != nil {
		t.Fatal(err)
	}
	query := g.Clone()
	query.Flip(0)
	query.Flip(nbits - 1) // near-miss: forces the bucketed scan
	scratch := new(ScanScratch)
	ctx.ScanWith(scratch, query, 4) // warm the scratch
	allocs := testing.AllocsPerRun(100, func() {
		ctx.ScanWith(scratch, query, 4)
	})
	if allocs != 0 {
		t.Errorf("violation-path ScanWith allocates %.1f objects per run, want 0", allocs)
	}
}

// TestDetectorCleanWindowAllocFree: a clean (trained) window through
// Detector.Process must not allocate once the detector is warm.
func TestDetectorCleanWindowAllocFree(t *testing.T) {
	l := coreLayout(t)
	obs := make([]*window.Observation, 12)
	for i := range obs {
		o := l.NewObservation(i)
		o.Binary[0] = i%2 == 0
		o.Binary[1] = i%2 == 1
		temp, light := 10.0, 50.0
		if i%2 == 0 {
			temp, light = 30, 200
		}
		o.Numeric[0] = []float64{temp, temp}
		o.Numeric[1] = []float64{light, light}
		obs[i] = o
	}
	ctx, err := TrainWindows(l, time.Minute, obs)
	if err != nil {
		t.Fatal(err)
	}
	if !ctx.TimingCapable() {
		t.Fatal("context carries no interval sketches; the timing stage would not run")
	}
	det, err := New(ctx)
	if err != nil {
		t.Fatal(err)
	}
	// Warm: replay once so maps and scratch reach steady state.
	for _, o := range obs {
		if _, err := det.Process(o); err != nil {
			t.Fatal(err)
		}
	}
	i := 0
	allocs := testing.AllocsPerRun(200, func() {
		res, err := det.Process(obs[i%len(obs)])
		i++
		if err != nil || res.Detected {
			t.Fatal("clean window flagged", err)
		}
	})
	if allocs != 0 {
		t.Errorf("clean-window Process allocates %.1f objects per run, want 0", allocs)
	}
}
