//go:build !race

package pim

// See race_on_test.go.
const raceEnabled = false
