package core

import (
	"math/rand"
	"slices"
	"sort"
	"testing"

	"repro/internal/device"
)

// refSet is the map-based reference the slice-backed set helpers are held
// to.
type refSet map[device.ID]bool

func refOf(ids []device.ID) refSet {
	m := refSet{}
	for _, id := range ids {
		m[id] = true
	}
	return m
}

// sorted returns the reference's members ascending (nil when empty), the
// form every set helper must produce.
func (m refSet) sorted() []device.ID {
	if len(m) == 0 {
		return nil
	}
	out := make([]device.ID, 0, len(m))
	for id := range m {
		out = append(out, id)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// randIDs draws an unsorted list over a small ID space, so duplicates and
// overlaps between draws are common.
func randIDs(rng *rand.Rand) []device.ID {
	ids := make([]device.ID, rng.Intn(12))
	for i := range ids {
		ids[i] = device.ID(rng.Intn(16))
	}
	return ids
}

// isSet reports whether s is ascending and duplicate-free.
func isSet(s []device.ID) bool {
	for i := 1; i < len(s); i++ {
		if s[i] <= s[i-1] {
			return false
		}
	}
	return true
}

// TestSetHelpersMatchMapReference: build, intersect, subset and union over random unsorted inputs with duplicates agree with
// a map-based reference, and never write to their inputs.
func TestSetHelpersMatchMapReference(t *testing.T) {
	rng := rand.New(rand.NewSource(18))
	for trial := 0; trial < 2000; trial++ {
		rawA, rawB := randIDs(rng), randIDs(rng)
		keepA := slices.Clone(rawA)
		refA, refB := refOf(rawA), refOf(rawB)

		a, b := toSet(rawA), toSet(rawB)
		if !slices.Equal(rawA, keepA) {
			t.Fatalf("toSet reordered its input: %v, was %v", rawA, keepA)
		}
		if !slices.Equal(a, refA.sorted()) {
			t.Fatalf("toSet(%v) = %v, want %v", rawA, a, refA.sorted())
		}

		refI := refSet{}
		for id := range refA {
			if refB[id] {
				refI[id] = true
			}
		}
		if got := intersect(nil, a, b); !slices.Equal(got, refI.sorted()) {
			t.Fatalf("intersect(%v, %v) = %v, want %v", a, b, got, refI.sorted())
		}
		keep := slices.Clone(a)
		inPlace := intersect(a[:0], a, b)
		if len(refI) == 0 {
			if len(inPlace) != 0 || !slices.Equal(a, keep) {
				t.Fatalf("disjoint in-place intersect of %v with %v changed it to %v", keep, b, a)
			}
		} else if !slices.Equal(inPlace, refI.sorted()) {
			t.Fatalf("in-place intersect(%v, %v) = %v, want %v", keep, b, inPlace, refI.sorted())
		}
		a = keep

		refSub := true
		for id := range refA {
			if !refB[id] {
				refSub = false
			}
		}
		if subsetOf(a, b) != refSub {
			t.Fatalf("subsetOf(%v, %v) = %v, want %v", a, b, !refSub, refSub)
		}

		refU := refOf(append(slices.Clone(rawA), rawB...))
		if got := union(a, b); !slices.Equal(got, refU.sorted()) {
			t.Fatalf("union(%v, %v) = %v, want %v", a, b, got, refU.sorted())
		}
	}
}

// scrambledCheck raises a correlation finding on every window whose
// suspects come back unsorted and duplicated, as a custom Check may return
// them: {0, 2, 3} on even windows and {2, 3} on odd ones.
type scrambledCheck struct{}

func (scrambledCheck) Name() string { return "scrambled" }
func (scrambledCheck) Cause() Cause { return CheckCorrelation }
func (scrambledCheck) Run(_ *Detector, in CheckInput) *Finding {
	if in.Obs.Index%2 == 0 {
		return &Finding{Cause: CheckCorrelation, Suspects: []device.ID{3, 0, 2, 0, 3}}
	}
	return &Finding{Cause: CheckCorrelation, Suspects: []device.ID{2, 3, 2}}
}

// TestDetectorNormalizesCustomSuspects: whatever order a custom Check
// returns its suspects in, Result.Probable, Alert.Devices and the Explain
// intersections come out ascending and duplicate-free, in single- and
// multi-fault mode. Every window's Probable is scribbled over after
// Process, so an episode that aliased what it handed out would narrow to
// garbage.
func TestDetectorNormalizesCustomSuspects(t *testing.T) {
	l, ctx := trainAlternating(t)
	for _, maxFaults := range []int{1, 2} {
		d, err := New(ctx, WithChecks(scrambledCheck{}), WithConfig(Config{MaxFaults: maxFaults, MaxIdentifyWindows: 4}))
		if err != nil {
			t.Fatal(err)
		}
		var alert *Alert
		for idx := 0; idx < 8 && alert == nil; idx++ {
			res, err := d.Process(evenObs(l, idx))
			if err != nil {
				t.Fatal(err)
			}
			if !isSet(res.Probable) {
				t.Fatalf("MaxFaults %d window %d: Probable %v not ascending and duplicate-free", maxFaults, idx, res.Probable)
			}
			for i := range res.Probable {
				res.Probable[i] = 99
			}
			alert = res.Alert
		}
		if alert == nil {
			t.Fatalf("MaxFaults %d: no alert", maxFaults)
		}
		if want := []device.ID{2, 3}; !slices.Equal(alert.Devices, want) {
			t.Errorf("MaxFaults %d: alert names %v, want %v", maxFaults, alert.Devices, want)
		}
		for _, st := range alert.Explain.Steps {
			if !isSet(st.Intersection) || slices.Contains(st.Intersection, 99) {
				t.Errorf("MaxFaults %d: Explain intersection %v at window %d", maxFaults, st.Intersection, st.Window)
			}
		}
	}
}

// BenchmarkDetectorProcessEpisode is BenchmarkDetectorProcessClean's
// counterpart for the identification loop: MaxFaults 2 under a persistent
// two-device storm (motion-a dark on even windows, temp stuck high on odd
// ones). Episodes open, split, narrow and conclude in a four-window cycle,
// three windows of which run identifyStep.
func BenchmarkDetectorProcessEpisode(b *testing.B) {
	l, ctx := trainAlternating(b)
	d := newTestDetector(b, ctx, Config{MaxFaults: 2})
	even := evenObs(l, 0)
	even.Binary[0] = false
	odd := makeObs(l, 1, []bool{false, true}, [][]float64{{30, 30, 30}, {50, 50, 50}}, device.ID(4))
	alerts := 0
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		o := even
		if i%2 == 1 {
			o = odd
		}
		o.Index = i
		res, err := d.Process(o)
		if err != nil {
			b.Fatal(err)
		}
		alerts += len(res.Alerts)
	}
	if b.N >= 8 && alerts == 0 {
		b.Fatal("the storm never concluded an episode")
	}
}
