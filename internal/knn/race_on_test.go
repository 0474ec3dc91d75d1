//go:build race

package knn_test

// raceEnabled: the race detector makes sync.Pool drop a share of what is
// Put, so pooled query memos allocate again and alloc counts mean nothing.
const raceEnabled = true
