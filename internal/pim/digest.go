package pim

import (
	"fmt"
	"math"
	"math/bits"
	"slices"

	"pimmine/internal/arch"
	"pimmine/internal/vec"
)

// The exact-mode sweep pays in bytes for dot products the modeled array
// hands back for free, and a seeded cascade (internal/knn) then reads a few
// dozen of them. The digest is what lets it not compute the rest: by
// Cauchy–Schwarz on groups G of digestGroup adjacent dimensions,
//
//	Σ_G pⱼqⱼ ≤ ‖p_G‖·‖q_G‖ ≤ ⌈‖p_G‖⌉·⌈‖q_G‖⌉,
//
// so the integer dot of two rows of ceil group norms is an upper bound on
// the exact dot, read from 1/digestGroup of the bytes. Every bound of
// pimbound consumes its dot monotonically (the "a corrected dot only widens
// the bound" extension of Theorem 3 that internal/fault rests on), so a
// bound built from it is an under-estimate of the bound built from the
// exact dot and prunes nothing the exact one would not.

// digestGroup is the number of adjacent dimensions one group norm covers.
// EXPERIMENTS.md "Lazy exact dots" has the table that fixes it: 16 leaves
// fewer rows to tighten but doubles the digest's bytes and sweep, 64 halves
// them and leaves about twice the rows.
const digestGroup = 32

// digestValueLimit is the smallest operand value a digest refuses: below
// it a group's sum of squares stays under 32·2⁵⁸ = 2⁶³ and its ceil norm
// under 2³², so neither leaves its type. α = 10⁶ floors are 20-bit values.
const digestValueLimit = 1 << 29

// ceilNorm returns ⌈‖vals‖⌉ for up to digestGroup values, or false when one
// of them reaches digestValueLimit.
func ceilNorm(vals []uint32) (uint32, bool) {
	var sum uint64
	var any uint32 // some value reaches the limit exactly when their OR does
	for _, v := range vals {
		any |= v
		sum += uint64(v) * uint64(v)
	}
	if any >= digestValueLimit {
		return 0, false
	}
	// The float root is within one of the integer one; settle it exactly.
	r := uint64(math.Sqrt(float64(sum)))
	for r*r < sum {
		r++
	}
	for r > 0 && (r-1)*(r-1) >= sum {
		r--
	}
	return uint32(r), true
}

// groupNorms writes the ceil group norms of row into dst (len
// ⌈len(row)/digestGroup⌉) and returns the largest, or false when a value
// reaches digestValueLimit.
func groupNorms(row, dst []uint32) (uint32, bool) {
	var largest uint32
	for g := range dst {
		norm, ok := ceilNorm(row[g*digestGroup : min((g+1)*digestGroup, len(row))])
		if !ok {
			return 0, false
		}
		dst[g] = norm
		largest = max(largest, norm)
	}
	return largest, true
}

// extendDigest brings the payload's digest up to its current N rows: the
// rows programmed since the last call are digested, the others are not
// touched, and the array grows in place (append's amortised doubling), so a
// stream of one-row appends costs O(rows appended). A payload whose slab
// holds a value too wide for the digest gives the digest up for good;
// UpperAll then refuses every query and its callers sweep.
func (p *Payload) extendDigest() {
	if p.digestDims == 0 {
		return
	}
	from := len(p.digest) / p.digestDims
	p.digest = slices.Grow(p.digest, (p.N-from)*p.digestDims)[:p.N*p.digestDims]
	for i := from; i < p.N; i++ {
		largest, ok := groupNorms(p.Row(i), p.digest[i*p.digestDims:(i+1)*p.digestDims])
		if !ok {
			p.digest, p.digestDims = nil, 0
			return
		}
		p.digestMax = max(p.digestMax, largest)
		p.digested++
	}
}

// DigestDims returns the length of one digest row, ⌈Dims/32⌉, or 0 for a
// payload without a digest: one programmed in simulate mode, under a fault
// injector (a faulty dot is not the slab's), at one operand bit, or holding
// a value of 2²⁹ or more.
func (p *Payload) DigestDims() int { return p.digestDims }

// Digested returns how many rows' group norms the payload has computed
// since it was programmed. It equals N for as long as the digest lives:
// Append digests the rows it adds and no others.
func (p *Payload) Digested() int64 { return p.digested }

// UpperAll sets dst[i] ≥ rowᵢ·input for every programmed row, from the
// payload's digest and the input's own group norms (written to qd, caller
// scratch of DigestDims values): one vec.IntDotRows over 1/32 of the bytes
// QueryAll reads. It reports false, with dst meaningless, when it cannot
// promise that: the payload has no digest, the shapes do not match it, an
// input value is too wide, or ⌈Dims/32⌉·maxₚ·max_q could wrap an int64.
// It meters nothing — the modeled array still fires every crossbar once
// for the query, which ChargeQuery records.
func (e *Engine) UpperAll(p *Payload, input, qd []uint32, dst []int64) ([]int64, bool) {
	if p.digestDims == 0 || len(input) != p.Dims || len(qd) != p.digestDims {
		return dst, false
	}
	qMax, ok := groupNorms(input, qd)
	if !ok {
		return dst, false
	}
	// Both norms are below 2³², so their product cannot wrap a uint64.
	hi, lo := bits.Mul64(uint64(p.digestMax)*uint64(qMax), uint64(p.digestDims))
	if hi != 0 || lo > math.MaxInt64 {
		return dst, false
	}
	dst = vec.Resized(dst, p.N)
	vec.IntDotRows(p.digest, p.digestDims, qd, dst)
	return dst, true
}

// DotRows sets dst[r] = row_r·input for the listed rows and leaves the rest
// of dst alone: the slab's own dots, which are the array's in exact mode
// without a fault injector — where UpperAll accepts a query — and are not
// under one. It is one vec.IntDotGather over the slab, four listed rows in
// lockstep, and panics on an input of the wrong length or a row outside the
// payload. Like UpperAll it meters nothing.
func (e *Engine) DotRows(p *Payload, input []uint32, rows []int, dst []int64) {
	if len(input) != p.Dims {
		panic(fmt.Sprintf("pim: %d-value input to payload %q of %d dims", len(input), p.Name, p.Dims))
	}
	vec.IntDotGather(p.slab, input, rows, dst)
}

// ChargeQuery records under fn what one query against ps costs the modeled
// array — what QueryAll (one payload) and QueryAllParallel (several, in
// disjoint crossbar groups) record for it — without running it: the charge
// of a query answered through UpperAll and DotRows.
func (e *Engine) ChargeQuery(meter *arch.Meter, fn string, ps ...*Payload) {
	e.charge(meter, fn, 0, 0, ps...)
}

// charge is the one metering rule of a query pass over payloads in
// disjoint crossbar groups:
//
//   - compute cycles: ⌈b/dac⌉ input-slicing cycles plus one cycle per
//     gather level (all data crossbars fire in parallel — this is the
//     massive-parallelism property of §II-A, and Theorem 4 guarantees the
//     payload fits without re-programming); concurrent groups cost their
//     critical path, the maximum, not the sum;
//   - buffer traffic: 8 bytes per result (the paper keeps the least
//     significant 64 bits of PIM results).
func (e *Engine) charge(meter *arch.Meter, fn string, faulty, recovered int64, ps ...*Payload) {
	if meter == nil {
		return
	}
	var cycles, bufBytes int64
	for _, p := range ps {
		cycles = max(cycles, int64(e.cfg.Crossbar.InputCycles(p.OpBits)+p.gatherLevels))
		bufBytes += int64(p.N) * 8
	}
	c := meter.C(fn)
	c.PIMCycles += cycles
	c.PIMBufBytes += bufBytes
	c.PIMFaults += faulty
	c.PIMRecovered += recovered
	c.Calls++
}
