package knn

import (
	"fmt"
	"math"
	"time"

	"pimmine/internal/arch"
	"pimmine/internal/pim"
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
	// digested reports whether the stage's payloads carry digests: a
	// cascade led by it walks it lazily.
	digested() bool
	// startLazy is called once on a walk's own copy of a digested first
	// stage: from then on its prepare answers from the digests where they
	// accept the query, and sweeps where they do not.
	startLazy()
	// isLoose reports whether the last prepare left upper bounds in the dot
	// arrays, so that lb and lbInto now under-estimate.
	isLoose() bool
	// tighten gives the listed rows of col, a column lbInto filled, their
	// first payload's exact dot, and its remaining payloads' exact dots
	// where the bound is then still at most thr (all of them at +Inf, none
	// at −Inf on a stage of two payloads). It moves the rows it made exact
	// to the front of rows, their order kept, and returns them: their
	// entries are lb(i) to the bit. Every other listed entry is an
	// under-estimate above thr, and no entry decreases. A stage of one
	// payload makes every listed row exact.
	tighten(rows []int, col []float64, thr float64) []int
	// sweep runs the whole array pass for the prepared query: afterwards
	// nothing is loose. prepare has charged the query already, whichever way
	// it answered, so the walk passes no meter.
	sweep(meter *arch.Meter) error
}

// dotRowsHook, when set by a test, sees the number of rows every gather of
// a lazy stage lists, and the payload it gathers from.
var dotRowsHook func(p *pim.Payload, rows int)

// gatherDots is pim.Engine.DotRows for a lazy stage's tighten.
func gatherDots(eng *pim.Engine, p *pim.Payload, input []uint32, rows []int, dst []int64) {
	if len(rows) == 0 {
		return
	}
	if dotRowsHook != nil {
		dotRowsHook(p, len(rows))
	}
	eng.DotRows(p, input, rows, dst)
}

// tightenShare bounds one listing: a pass that would list more than
// 1/tightenShare of the rows is not run, the stage sweeps instead. A pass
// gathers its rows four at a time (pim.Engine.DotRows); over evenly spread
// rows of 5000×210 payloads visited round-robin (the wire-knn shard) it
// costs 0.16 of a sweep at n/8, 0.33 at n/4, about half at n/3 and the
// whole sweep at n/2, where the listed rows pull in every line the sweep
// streams. Besides the k seeds a walk lists rows out of the whole column
// at most twice, at θ₁ and at τ (tightenSeeds); its other passes re-list
// rows of the θ₁ listing, and no row's dot is gathered twice from one
// payload. So at n/4 a query the digest carries to the end still costs
// less than the sweep (2·0.33 plus 0.03 for the digest), and one that
// falls back has paid at most a third of a sweep for nothing
// (EXPERIMENTS.md "Gathered fix-ups"). On LB_PIM-FNN the second payload
// is gathered only for the rows its first one's exact dot leaves in play
// (EXPERIMENTS.md "Three precisions").
const tightenShare = 4

// The ways a walk ends its first stage, as the seed event's exit attribute
// reports them.
const (
	exitEager = "eager" // no digest, or it refused the query: prepare swept
	exitLazy  = "lazy"  // every row the threshold could not rule out was tightened
	exitTheta = "theta" // too many rows at or below the seeds' largest bound: swept
	exitTau   = "tau"   // too many rows at or below the seeded threshold: swept
)

// begin starts the walk of a prepared query and reports whether its
// column is loose: whether its first stage is lazy and answered from the
// digests.
func (w *walk) begin() bool {
	w.exit, w.nLoose, w.nTight, w.nPart, w.tightenDur = exitEager, 0, 0, 0, 0
	if w.lazy == nil || !w.lazy.isLoose() {
		return false
	}
	w.exit = exitLazy
	clear(w.tight)
	clear(w.part)
	return true
}

// tightenSeeds runs, over a loose column and k ≤ n/tightenShare, the
// passes that make the k smallest (LB, index) exact before the seeds are
// selected:
//
//  1. The k smallest entries are made exact. θ, the largest of them, has k
//     exact bounds at or below it, so θ₁ = min(θ, ceiling) is at least
//     every bound of the k smallest (LB, index) the walk can visit.
//  2. Every row still loose with LB′ ≤ θ₁ is listed and made partial.
//  3. The k smallest listed entries are made exact; θ₂, the lesser of θ₁
//     and the largest of them, again has k exact bounds at or below it.
//  4. The listed rows still partial at or below θ₂ are made exact.
//
// Afterwards every entry at or below θ₂ is exact — an unlisted row's is
// above θ₁ and a listed one's above θ₂ — and every other entry under-
// estimates a bound above θ₂, so selecting from the column picks the seeds
// the exact column gives, up to the ceiling, where the walk stops visiting
// them anyway. It reports false, with the column partly tightened, when
// step 2 would list more rows than one pass may.
func (w *walk) tightenSeeds(col []float64, k int, ceiling float64) bool {
	w.selectSeeds(col, k)
	w.rows = w.rows[:0]
	for _, s := range w.seedBuf {
		w.rows = append(w.rows, s.Index)
	}
	theta := math.Inf(-1)
	for _, i := range w.tightenRows(col, w.rows, math.Inf(1)) {
		theta = max(theta, col[i])
	}
	w.theta1 = min(theta, ceiling)
	w.theta2 = w.theta1

	if !w.listBelow(col, w.theta1, &w.listed) {
		return false
	}
	w.tightenRows(col, w.listed, math.Inf(-1))

	// The seed scratch holds step 3's selection; the seeds are selected
	// again from the column afterwards.
	w.seeds = reuseTopK(w.seeds, k)
	for _, i := range w.listed {
		w.seeds.Push(i, col[i])
	}
	w.seedBuf = w.seeds.AppendResults(w.seedBuf[:0])
	w.rows = w.rows[:0]
	for _, s := range w.seedBuf {
		if !w.isTight(s.Index) {
			w.rows = append(w.rows, s.Index)
		}
	}
	w.tightenRows(col, w.rows, math.Inf(1))
	if len(w.seedBuf) == k {
		theta = math.Inf(-1)
		for _, s := range w.seedBuf {
			theta = max(theta, col[s.Index])
		}
		w.theta2 = min(w.theta1, theta)
	}

	w.rows = w.rows[:0]
	for _, i := range w.listed {
		if col[i] <= w.theta2 && !w.isTight(i) {
			w.rows = append(w.rows, i)
		}
	}
	w.tightenRows(col, w.rows, math.Inf(1))
	return true
}

// tightenBelow makes exact every entry of col still loose at or below
// tau, the threshold the seeds left, unless they are more than one pass
// may list: it then reports false. At or below θ₂ every entry is exact
// already, and at or below θ₁ only the rows listed there can be loose.
func (w *walk) tightenBelow(col []float64, tau float64) bool {
	if tau <= w.theta2 {
		return true
	}
	if tau <= w.theta1 {
		w.rows = w.rows[:0]
		for _, i := range w.listed {
			if col[i] <= tau && !w.isTight(i) {
				w.rows = append(w.rows, i)
			}
		}
	} else if !w.listBelow(col, tau, &w.rows) {
		return false
	}
	w.tightenRows(col, w.rows, tau)
	return true
}

// listBelow sets *dst to every row of col not yet exact whose entry is at
// most thr, unless they are more than one pass may list: it then reports
// false, and nLoose counts them with the rows made exact so far.
func (w *walk) listBelow(col []float64, thr float64, dst *[]int) bool {
	most, found := len(col)/tightenShare, 0
	rows := (*dst)[:0]
	for i, b := range col {
		if b <= thr && !w.isTight(i) {
			if found < most {
				rows = append(rows, i)
			}
			found++
		}
	}
	*dst = rows
	if found > most {
		w.nLoose = w.nTight + found
		return false
	}
	return true
}

func (w *walk) isTight(i int) bool { return w.tight[i>>6]&(1<<(i&63)) != 0 }

// tightenRows runs one tighten pass over rows at thr, marks the rows it
// made exact and the rows it left partial, and returns the exact ones.
func (w *walk) tightenRows(col []float64, rows []int, thr float64) []int {
	if len(rows) == 0 {
		return rows
	}
	var exact []int
	if w.timed {
		t0 := time.Now()
		exact = w.lazy.tighten(rows, col, thr)
		w.tightenDur += time.Since(t0)
	} else {
		exact = w.lazy.tighten(rows, col, thr)
	}
	for _, i := range exact {
		if w.part[i>>6]&(1<<(i&63)) != 0 {
			w.part[i>>6] &^= 1 << (i & 63)
			w.nPart--
		}
		w.tight[i>>6] |= 1 << (i & 63)
	}
	for _, i := range rows[len(exact):] {
		if w.part[i>>6]&(1<<(i&63)) == 0 {
			w.part[i>>6] |= 1 << (i & 63)
			w.nPart++
		}
	}
	w.nTight += len(exact)
	w.nLoose = w.nTight + w.nPart
	return exact
}

// sweepColumn gives up on the digest for the query in flight: the stage
// runs its array pass and the column is refilled with exact bounds.
func (w *walk) sweepColumn(col []float64, exit string) {
	if err := w.lazy.sweep(nil); err != nil {
		panic(fmt.Sprintf("knn: %s sweep: %v", w.lazy.name(), err)) // prepare accepted this query
	}
	w.lazy.lbInto(col)
	w.exit = exit
}
