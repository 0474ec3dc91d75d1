package knn

import (
	"fmt"
	"math"
	"time"

	"pimmine/internal/arch"
	"pimmine/internal/vec"
)

// lazyStage is a first stage that need not run its array pass to start the
// walk. Its payloads carry a digest (pim.Engine.UpperAll) that bounds every
// row's dot from above out of 1/32 of the bytes; the stage's G consumes the
// dot as −2·dot through operations that each round monotonically, so the
// same expression over the upper bounds is an under-estimate LB′ ≤ lb(i) —
// in floating point, not only over the reals, which is why a stage over
// two payloads takes one upper bound per payload and never a merged sum.
// A walk that prunes on LB′ > τ prunes nothing lb(i) > τ would not; the
// rows it cannot prune are the ones it asks the stage to tighten.
type lazyStage interface {
	stage
	// startLazy is called once, by the cascade this stage leads: from then
	// on prepare answers from the digests where they exist and accept the
	// query. It reports whether they exist; prepare otherwise stays eager.
	startLazy() bool
	// isLoose reports whether the last prepare left upper bounds in the dot
	// arrays, so that lb and lbInto now under-estimate.
	isLoose() bool
	// tighten gives the listed rows their exact dots and overwrites their
	// entries of col, a column lbInto filled, with lb(i) to the bit.
	tighten(rows []int, col []float64)
	// sweep runs the whole array pass for the prepared query: afterwards
	// nothing is loose. prepare has charged the query already, whichever way
	// it answered, so the walk passes no meter.
	sweep(meter *arch.Meter) error
}

// tightenShare bounds one tighten pass: a pass that would list more than
// 1/tightenShare of the rows is not run, the stage sweeps instead. A pass
// gathers its rows four at a time (pim.Engine.DotRows); over evenly spread
// rows of 5000×210 payloads visited round-robin (the wire-knn shard) it
// costs 0.16 of a sweep at n/8, 0.33 at n/4, about half at n/3 and the
// whole sweep at n/2, where the listed rows pull in every line the sweep
// streams. Besides the k seeds a walk runs at most two passes, so at n/4 a
// query the digest carries to the end still costs less than the sweep
// (2·0.33 plus 0.03 for the digest), and one that falls back has paid at
// most a third of a sweep for nothing (EXPERIMENTS.md "Gathered fix-ups").
const tightenShare = 4

// The ways a walk ends its first stage, as the seed event's exit attribute
// reports them.
const (
	exitEager = "eager" // no digest, or it refused the query: prepare swept
	exitLazy  = "lazy"  // every row the threshold could not rule out was tightened
	exitTheta = "theta" // too many rows at or below the seeds' largest bound: swept
	exitTau   = "tau"   // too many rows at or below the seeded threshold: swept
)

// lazyWalk is what a cascade keeps for a lazy first stage: the stage, and
// the retained scratch and counts of the walk over its loose column
// (Cascade.seedAndScan has the argument).
type lazyWalk struct {
	lazyStage
	tight      []uint64      // bitset of the rows whose column entry is exact
	rows       []int         // the rows of one tighten pass
	exit       string        // how the last walk left the first stage
	nLoose     int           // rows at or below the threshold that decided exit
	nTight     int           // rows tightened
	timed      bool          // the walk is traced: tighten passes are timed
	tightenDur time.Duration // time in the tighten passes of a timed walk
}

// newLazyWalk returns the walk state for a cascade of n objects led by
// first, or nil when first is not a lazy stage over digested payloads.
func newLazyWalk(first stage, n int) *lazyWalk {
	ls, ok := first.(lazyStage)
	if !ok || !ls.startLazy() {
		return nil
	}
	return &lazyWalk{lazyStage: ls, tight: make([]uint64, (n+63)/64), rows: make([]int, 0, n/tightenShare)}
}

// begin starts the walk of a prepared query over n objects, timing its
// tighten passes when timed, and reports whether its column is loose.
func (w *lazyWalk) begin(n int, timed bool) bool {
	w.exit, w.nLoose, w.nTight, w.timed, w.tightenDur = exitEager, 0, 0, timed, 0
	if !w.isLoose() {
		return false
	}
	w.exit = exitLazy
	w.tight = vec.Resized(w.tight, (n+63)/64) // the index may have grown
	clear(w.tight)
	return true
}

// tightenSeeds is step (1) over a loose column, k ≤ n/tightenShare. It
// reports false, with the column partly tightened, when more rows lie at or
// below θ than one pass may list.
func (c *Cascade) tightenSeeds(col []float64, k int) bool {
	w := c.lazy
	c.selectSeeds(col, k)
	w.rows = w.rows[:0]
	for _, s := range c.seedBuf {
		w.rows = append(w.rows, s.Index)
	}
	w.tightenRows(col)
	theta := math.Inf(-1)
	for _, i := range w.rows {
		theta = max(theta, col[i])
	}
	return w.tightenBelow(col, theta)
}

// tightenBelow tightens every row still loose whose entry of col is at most
// thr, unless they are more than one pass may list: it then reports false
// and leaves the column as it found it.
func (w *lazyWalk) tightenBelow(col []float64, thr float64) bool {
	most, found := len(col)/tightenShare, 0
	w.rows = w.rows[:0]
	for i, b := range col {
		if b <= thr && w.tight[i>>6]&(1<<(i&63)) == 0 {
			if found < most {
				w.rows = append(w.rows, i)
			}
			found++
		}
	}
	w.nLoose = w.nTight + found
	if found > most {
		return false
	}
	w.tightenRows(col)
	return true
}

// tightenRows runs one tighten pass over w.rows and marks them.
func (w *lazyWalk) tightenRows(col []float64) {
	if w.timed {
		t0 := time.Now()
		w.tighten(w.rows, col)
		w.tightenDur += time.Since(t0)
	} else {
		w.tighten(w.rows, col)
	}
	for _, i := range w.rows {
		w.tight[i>>6] |= 1 << (i & 63)
	}
	w.nTight += len(w.rows)
}

// sweepColumn gives up on the digest for the query in flight: the stage
// runs its array pass and the column is refilled with exact bounds.
func (w *lazyWalk) sweepColumn(col []float64, exit string) {
	if err := w.sweep(nil); err != nil {
		panic(fmt.Sprintf("knn: %s sweep: %v", w.name(), err)) // prepare accepted this query
	}
	w.lbInto(col)
	w.exit = exit
}
