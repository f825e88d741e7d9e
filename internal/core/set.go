package core

import (
	"slices"

	"repro/internal/device"
)

// Device sets are ascending, duplicate-free []device.ID slices. Membership
// is a binary search and intersection, union and subset are linear merges,
// so a set is already in the order every Result, Explain step and
// checkpoint reports it, and handing one out is a plain copy (copyIDs).

// setOf sorts and deduplicates ids in place and returns the resulting set
// (nil when empty). The caller gives up ids.
func setOf(ids []device.ID) []device.ID {
	if len(ids) == 0 {
		return nil
	}
	slices.Sort(ids)
	return slices.Compact(ids)
}

// toSet returns a new set holding the IDs of ids, which may be unsorted and
// hold duplicates (a custom Check's Suspects, a checkpoint's lists). ids is
// left untouched.
func toSet(ids []device.ID) []device.ID { return setOf(slices.Clone(ids)) }

// intersect appends the IDs common to a and b to dst and returns it. dst
// may be a[:0]: the merge writes position k only after reading a[k], and it
// writes nothing at all when the sets are disjoint, so a stays intact when
// the result is empty.
func intersect(dst, a, b []device.ID) []device.ID {
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] < b[j]:
			i++
		case a[i] > b[j]:
			j++
		default:
			dst = append(dst, a[i])
			i++
			j++
		}
	}
	return dst
}

// union returns a new set holding every ID of a and b (nil when both are
// empty).
func union(a, b []device.ID) []device.ID {
	if len(a)+len(b) == 0 {
		return nil
	}
	out := make([]device.ID, 0, len(a)+len(b))
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] < b[j]:
			out = append(out, a[i])
			i++
		case a[i] > b[j]:
			out = append(out, b[j])
			j++
		default:
			out = append(out, a[i])
			i++
			j++
		}
	}
	out = append(out, a[i:]...)
	return append(out, b[j:]...)
}

// subsetOf reports whether every element of sub is in super; both must be
// ascending.
func subsetOf(sub, super []device.ID) bool {
	j := 0
	for _, s := range sub {
		for j < len(super) && super[j] < s {
			j++
		}
		if j >= len(super) || super[j] != s {
			return false
		}
	}
	return true
}
