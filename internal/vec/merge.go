package vec

import "sort"

// MergeNeighbors merges per-source top-k lists into one global top-k,
// ordered by (Dist, Index) — the same total order TopK.Results and the
// serve shard merge use — and truncated to k.
//
// Exactness argument: if every source contributes its own k best under
// (dist, index) order, the global k best are a subset of the union, so
// sorting the concatenation and truncating is equivalent to a single
// scan over all sources. Inputs need not be sorted; indices must already
// be in the shared (global) id space.
func MergeNeighbors(k int, lists ...[]Neighbor) []Neighbor {
	total := 0
	for _, l := range lists {
		total += len(l)
	}
	out := make([]Neighbor, 0, total)
	for _, l := range lists {
		out = append(out, l...)
	}
	return SortNeighbors(out, k)
}

// SortNeighbors sorts nn in place by (Dist, Index) and truncates it to
// its k best: the second half of MergeNeighbors, for callers that
// concatenate into their own buffer. It is the one comparator every
// merge in the repo resolves ties with.
func SortNeighbors(nn []Neighbor, k int) []Neighbor {
	sort.Slice(nn, func(i, j int) bool {
		if nn[i].Dist != nn[j].Dist {
			return nn[i].Dist < nn[j].Dist
		}
		return nn[i].Index < nn[j].Index
	})
	if len(nn) > k {
		nn = nn[:k]
	}
	return nn
}
