package knn

import (
	"sync/atomic"

	"pimmine/internal/pim"
)

// CountFeatures counts the query features every memo computes from now
// until the returned stop, which reports the count. Tests that use it must
// not run in parallel: the hook is process-wide.
func CountFeatures() (stop func() int64) {
	var n atomic.Int64
	featureHook = func() { n.Add(1) }
	return func() int64 {
		featureHook = nil
		return n.Load()
	}
}

// CountDotRows counts, per payload name, the rows every gather of a lazy
// stage lists from now until the returned stop, which reports the counts.
// Tests that use it must not run in parallel: the hook is process-wide.
func CountDotRows() (stop func() map[string]int) {
	counts := map[string]int{}
	dotRowsHook = func(p *pim.Payload, rows int) { counts[p.Name] += rows }
	return func() map[string]int {
		dotRowsHook = nil
		return counts
	}
}
