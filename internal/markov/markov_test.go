package markov

import (
	"encoding/json"
	"math"
	"testing"
	"testing/quick"
)

func TestObserveAndProb(t *testing.T) {
	c := NewChain()
	c.Observe(1, 2)
	c.Observe(1, 2)
	c.Observe(1, 3)
	if got := c.Prob(1, 2); math.Abs(got-2.0/3.0) > 1e-12 {
		t.Errorf("Prob(1,2) = %v, want 2/3", got)
	}
	if got := c.Prob(1, 3); math.Abs(got-1.0/3.0) > 1e-12 {
		t.Errorf("Prob(1,3) = %v, want 1/3", got)
	}
	if got := c.Prob(1, 9); got != 0 {
		t.Errorf("Prob(1,9) = %v, want 0", got)
	}
	if got := c.Prob(9, 1); got != 0 {
		t.Errorf("unknown source Prob = %v, want 0", got)
	}
}

func TestPossibleAndKnown(t *testing.T) {
	c := NewChain()
	c.Observe(5, 6)
	if !c.Possible(5, 6) {
		t.Error("observed transition reported impossible")
	}
	if c.Possible(5, 7) || c.Possible(6, 5) {
		t.Error("unobserved transition reported possible")
	}
	if !c.Known(5) {
		t.Error("source 5 should be known")
	}
	if c.Known(6) {
		t.Error("state 6 was never a source")
	}
}

func TestCountAndTotals(t *testing.T) {
	c := NewChain()
	for i := 0; i < 4; i++ {
		c.Observe(0, 1)
	}
	c.Observe(0, 2)
	if c.Count(0, 1) != 4 {
		t.Errorf("Count = %d, want 4", c.Count(0, 1))
	}
	if c.RowTotal(0) != 5 {
		t.Errorf("RowTotal = %d, want 5", c.RowTotal(0))
	}
	if c.TotalObservations() != 5 {
		t.Errorf("TotalObservations = %d, want 5", c.TotalObservations())
	}
	if c.NumTransitions() != 2 {
		t.Errorf("NumTransitions = %d, want 2", c.NumTransitions())
	}
}

// TestObserveNMatchesObserve: ObserveN(a, b, n) leaves the chain exactly
// as n calls of Observe do, and n <= 0 leaves no trace (not even an empty
// row that would make the source Known).
func TestObserveNMatchesObserve(t *testing.T) {
	one, bulk := NewChain(), NewChain()
	for _, tr := range []struct {
		a, b int
		n    int64
	}{{0, 1, 4}, {0, 2, 1}, {3, 3, 2}, {5, 6, 0}, {7, 8, -3}} {
		for i := int64(0); i < tr.n; i++ {
			one.Observe(tr.a, tr.b)
		}
		bulk.ObserveN(tr.a, tr.b, tr.n)
	}
	want, err := json.Marshal(one)
	if err != nil {
		t.Fatal(err)
	}
	got, err := json.Marshal(bulk)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != string(want) {
		t.Errorf("ObserveN chain %s, want %s", got, want)
	}
	if bulk.Known(5) || bulk.Known(7) {
		t.Error("a non-positive ObserveN made its source known")
	}
}

func TestSuccessorsSorted(t *testing.T) {
	c := NewChain()
	c.Observe(1, 9)
	c.Observe(1, 3)
	c.Observe(1, 5)
	got := c.Successors(1)
	want := []int{3, 5, 9}
	if len(got) != 3 || got[0] != want[0] || got[1] != want[1] || got[2] != want[2] {
		t.Errorf("Successors = %v, want %v", got, want)
	}
	if c.Successors(99) != nil {
		t.Error("unknown source should have nil successors")
	}
}

func TestStates(t *testing.T) {
	c := NewChain()
	c.Observe(2, 7)
	c.Observe(7, 2)
	c.Observe(2, 2)
	got := c.States()
	if len(got) != 2 || got[0] != 2 || got[1] != 7 {
		t.Errorf("States = %v, want [2 7]", got)
	}
}

func TestSelfLoop(t *testing.T) {
	c := NewChain()
	c.Observe(4, 4)
	if !c.Possible(4, 4) {
		t.Error("self-loop not recorded")
	}
	if c.Prob(4, 4) != 1 {
		t.Errorf("self-loop prob = %v, want 1", c.Prob(4, 4))
	}
}

func TestMerge(t *testing.T) {
	a := NewChain()
	a.Observe(1, 2)
	b := NewChain()
	b.Observe(1, 2)
	b.Observe(3, 4)
	a.Merge(b)
	if a.Count(1, 2) != 2 {
		t.Errorf("merged Count(1,2) = %d, want 2", a.Count(1, 2))
	}
	if !a.Possible(3, 4) {
		t.Error("merge dropped a transition")
	}
	if a.TotalObservations() != 3 {
		t.Errorf("merged total = %d, want 3", a.TotalObservations())
	}
}

func TestJSONRoundTrip(t *testing.T) {
	c := NewChain()
	c.Observe(0, 1)
	c.Observe(0, 1)
	c.Observe(1, 0)
	c.Observe(5, 5)
	data, err := json.Marshal(c)
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	got := NewChain()
	if err := json.Unmarshal(data, got); err != nil {
		t.Fatalf("unmarshal: %v", err)
	}
	if got.Count(0, 1) != 2 || got.Count(1, 0) != 1 || got.Count(5, 5) != 1 {
		t.Errorf("round trip lost counts: %s", data)
	}
	if got.TotalObservations() != c.TotalObservations() {
		t.Error("round trip changed totals")
	}
}

func TestUnmarshalRejectsBadCounts(t *testing.T) {
	c := NewChain()
	if err := json.Unmarshal([]byte(`{"cells":[{"from":1,"to":2,"count":0}]}`), c); err == nil {
		t.Error("zero count accepted")
	}
	if err := json.Unmarshal([]byte(`{"cells":`), c); err == nil {
		t.Error("malformed JSON accepted")
	}
}

func TestMarshalDeterministic(t *testing.T) {
	c := NewChain()
	c.Observe(3, 1)
	c.Observe(1, 3)
	c.Observe(2, 2)
	d1, err := json.Marshal(c)
	if err != nil {
		t.Fatal(err)
	}
	d2, err := json.Marshal(c)
	if err != nil {
		t.Fatal(err)
	}
	if string(d1) != string(d2) {
		t.Error("marshal output not deterministic")
	}
}

// Property: row probabilities sum to 1 for every known source.
func TestRowStochasticProperty(t *testing.T) {
	f := func(pairs [][2]uint8) bool {
		c := NewChain()
		for _, p := range pairs {
			c.Observe(int(p[0]), int(p[1]))
		}
		for _, a := range c.States() {
			if !c.Known(a) {
				continue
			}
			sum := 0.0
			for _, b := range c.Successors(a) {
				sum += c.Prob(a, b)
			}
			if math.Abs(sum-1) > 1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: JSON round trip preserves every cell.
func TestJSONProperty(t *testing.T) {
	f := func(pairs [][2]uint8) bool {
		c := NewChain()
		for _, p := range pairs {
			c.Observe(int(p[0]), int(p[1]))
		}
		data, err := json.Marshal(c)
		if err != nil {
			return false
		}
		got := NewChain()
		if err := json.Unmarshal(data, got); err != nil {
			return false
		}
		for _, p := range pairs {
			if got.Count(int(p[0]), int(p[1])) != c.Count(int(p[0]), int(p[1])) {
				return false
			}
		}
		return got.TotalObservations() == c.TotalObservations()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func BenchmarkObserve(b *testing.B) {
	c := NewChain()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c.Observe(i%100, (i+7)%100)
	}
}

func BenchmarkPossible(b *testing.B) {
	c := NewChain()
	for i := 0; i < 1000; i++ {
		c.Observe(i%50, (i*13)%50)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Possible(i%50, (i+1)%50)
	}
}
