//go:build !race

package exp

// See race.go: without the race detector experiments run at their
// calibrated speed.
const raceScale = 1
