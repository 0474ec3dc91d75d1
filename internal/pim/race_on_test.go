//go:build race

package pim

// raceEnabled: the race detector makes sync.Pool drop a share of what is
// Put, so pooled scratch allocates again and alloc counts mean nothing.
const raceEnabled = true
