package knn

import "sync/atomic"

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
