// Package markov implements the sparse transition-probability matrices DICE
// uses for its transition check: group-to-group (G2G), group-to-actuator
// (G2A), and actuator-to-group (A2G). The transition check only ever asks
// "is this transition's probability zero?", so the chain stores raw counts
// and derives probabilities on demand; zero cells are simply absent.
package markov

import (
	"encoding/json"
	"fmt"
	"sort"
)

// Chain is a sparse first-order Markov transition-count matrix over integer
// states. The zero value is not usable; construct with NewChain.
type Chain struct {
	counts    map[int]map[int]int64
	rowTotals map[int]int64
}

// NewChain returns an empty chain.
func NewChain() *Chain {
	return &Chain{
		counts:    make(map[int]map[int]int64),
		rowTotals: make(map[int]int64),
	}
}

// Observe records one transition from state a to state b.
func (c *Chain) Observe(a, b int) {
	row := c.counts[a]
	if row == nil {
		row = make(map[int]int64)
		c.counts[a] = row
	}
	row[b]++
	c.rowTotals[a]++
}

// ObserveN records n transitions from state a to state b at once: the same
// counts as n calls of Observe, and nothing when n <= 0.
func (c *Chain) ObserveN(a, b int, n int64) {
	if n <= 0 {
		return
	}
	row := c.counts[a]
	if row == nil {
		row = make(map[int]int64)
		c.counts[a] = row
	}
	row[b] += n
	c.rowTotals[a] += n
}

// Count returns the number of observed a->b transitions.
func (c *Chain) Count(a, b int) int64 {
	return c.counts[a][b]
}

// RowTotal returns the total transitions observed out of state a.
func (c *Chain) RowTotal(a int) int64 {
	return c.rowTotals[a]
}

// Prob returns the maximum-likelihood probability of a->b. It returns 0
// when a was never observed as a source state: the transition check treats
// an unknown source the same as a zero-probability transition.
func (c *Chain) Prob(a, b int) float64 {
	total := c.rowTotals[a]
	if total == 0 {
		return 0
	}
	return float64(c.counts[a][b]) / float64(total)
}

// Known reports whether state a has been observed as a source.
func (c *Chain) Known(a int) bool {
	return c.rowTotals[a] > 0
}

// Possible reports whether the transition a->b has ever been observed.
// This is the predicate behind all three violation cases in §3.3.2.
func (c *Chain) Possible(a, b int) bool {
	return c.counts[a][b] > 0
}

// Successors returns the states reachable from a in ascending order. The
// identification step uses these as the probable groups for a G2G violation.
func (c *Chain) Successors(a int) []int {
	row := c.counts[a]
	if len(row) == 0 {
		return nil
	}
	out := make([]int, 0, len(row))
	for b := range row {
		out = append(out, b)
	}
	sort.Ints(out)
	return out
}

// States returns all states that appear as a source or destination, in
// ascending order.
func (c *Chain) States() []int {
	seen := make(map[int]bool)
	for a, row := range c.counts {
		seen[a] = true
		for b := range row {
			seen[b] = true
		}
	}
	out := make([]int, 0, len(seen))
	for s := range seen {
		out = append(out, s)
	}
	sort.Ints(out)
	return out
}

// NumTransitions returns the number of distinct nonzero cells.
func (c *Chain) NumTransitions() int {
	n := 0
	for _, row := range c.counts {
		n += len(row)
	}
	return n
}

// TotalObservations returns the total number of Observe calls.
func (c *Chain) TotalObservations() int64 {
	var t int64
	for _, v := range c.rowTotals {
		t += v
	}
	return t
}

// Clone returns a deep copy of the chain. Adaptation derives each new
// context version from its parent's chains, so published versions must
// never share count maps with the working copy still being mutated.
func (c *Chain) Clone() *Chain {
	out := NewChain()
	for a, row := range c.counts {
		dst := make(map[int]int64, len(row))
		for b, n := range row {
			dst[b] = n
		}
		out.counts[a] = dst
		out.rowTotals[a] = c.rowTotals[a]
	}
	return out
}

// Decay multiplies every count by factor (0 < factor < 1), flooring the
// result; cells that decay below one observation are pruned — the
// transition is forgotten and Possible turns false again. It returns the
// number of pruned edges. This is the exponential aging behind online
// context adaptation: stale behavior fades instead of vetoing the
// transition check forever. A factor outside (0, 1) is a no-op.
func (c *Chain) Decay(factor float64) int {
	if factor <= 0 || factor >= 1 {
		return 0
	}
	pruned := 0
	for a, row := range c.counts {
		var total int64
		for b, n := range row {
			scaled := int64(float64(n) * factor)
			if scaled < 1 {
				delete(row, b)
				pruned++
				continue
			}
			row[b] = scaled
			total += scaled
		}
		if len(row) == 0 {
			delete(c.counts, a)
			delete(c.rowTotals, a)
			continue
		}
		c.rowTotals[a] = total
	}
	return pruned
}

// Merge folds another chain's counts into c.
func (c *Chain) Merge(o *Chain) {
	for a, row := range o.counts {
		for b, n := range row {
			dst := c.counts[a]
			if dst == nil {
				dst = make(map[int]int64)
				c.counts[a] = dst
			}
			dst[b] += n
			c.rowTotals[a] += n
		}
	}
}

// chainJSON is the serialized form: a list of cells keeps the encoding
// stable and human-inspectable.
type chainJSON struct {
	Cells []cellJSON `json:"cells"`
}

type cellJSON struct {
	From  int   `json:"from"`
	To    int   `json:"to"`
	Count int64 `json:"count"`
}

// MarshalJSON encodes the chain with cells sorted by (from, to).
func (c *Chain) MarshalJSON() ([]byte, error) {
	var cells []cellJSON
	for a, row := range c.counts {
		for b, n := range row {
			cells = append(cells, cellJSON{From: a, To: b, Count: n})
		}
	}
	sort.Slice(cells, func(i, j int) bool {
		if cells[i].From != cells[j].From {
			return cells[i].From < cells[j].From
		}
		return cells[i].To < cells[j].To
	})
	return json.Marshal(chainJSON{Cells: cells})
}

// UnmarshalJSON decodes a chain produced by MarshalJSON.
func (c *Chain) UnmarshalJSON(data []byte) error {
	var cj chainJSON
	if err := json.Unmarshal(data, &cj); err != nil {
		return fmt.Errorf("markov: decode: %w", err)
	}
	c.counts = make(map[int]map[int]int64)
	c.rowTotals = make(map[int]int64)
	for _, cell := range cj.Cells {
		if cell.Count <= 0 {
			return fmt.Errorf("markov: non-positive count %d for %d->%d", cell.Count, cell.From, cell.To)
		}
		row := c.counts[cell.From]
		if row == nil {
			row = make(map[int]int64)
			c.counts[cell.From] = row
		}
		row[cell.To] += cell.Count
		c.rowTotals[cell.From] += cell.Count
	}
	return nil
}
