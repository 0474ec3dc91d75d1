//go:build race

package exp

// raceScale widens ext-cluster's measured window under the race detector:
// instrumented code runs an order of magnitude slower, and a window sized
// for production speed would hold a fraction of the queries it was sized
// for.
const raceScale = 6
