// Package pimbound implements the paper's core contribution: PIM-aware
// function decomposition (§V-A, Table 4) and PIM-aware bound computation
// (§V-B, Theorems 1–2).
//
// A similarity or bound function F(p,q) is decomposed as
//
//	F(p,q) = G(Φ(p), Φ(q), p·q)
//
// where Φ(p) is precomputed offline per dataset object, Φ(q) is computed
// once per query on the host, the dot product runs on the ReRAM PIM array
// over non-negative integer vectors, and G combines the three in O(1) on
// the host. Because crossbars only handle non-negative integers, float
// data is quantized (internal/quant) and the G formulas here produce
// *provable* lower bounds (for ED-family functions) or upper bounds (for
// CS/PCC), so filter-and-refinement keeps results exact.
//
// The dot products themselves are produced by internal/pim; this package
// only defines the offline features and the G combinators, plus host-side
// reference dot products used by tests.
//
// Every G here consumes the PIM dot product monotonically: lower bounds
// as −2·(p̄·q̄), upper bounds as +(p̄·q̄). internal/fault exploits that to
// extend Theorem 3's error-envelope argument to hardware faults: a
// faulty array returns dot + error + |envelope| ≥ dot, which can only
// loosen these bounds — so filter-and-refine stays exact under bounded
// stuck-at/drift/read-noise faults with no change to this package.
package pimbound

import (
	"fmt"
	"math"

	"pimmine/internal/measure"
	"pimmine/internal/quant"
	"pimmine/internal/vec"
)

// ---------------------------------------------------------------------------
// LB_PIM-ED (Theorem 1): for p,q ∈ [0,1]^d quantized with factor α,
//
//	LB_PIM-ED(p,q) = (Φ(p̄) + Φ(q̄) − 2·⌊p̄⌋·⌊q̄⌋ − 2d) / α² ≤ ED(p,q)
//
// with Φ(p̄) = Σ p̄ᵢ² − 2 Σ ⌊p̄ᵢ⌋. The proof uses
// ⌊p̄ᵢ⌋⌊q̄ᵢ⌋ + ⌊p̄ᵢ⌋ + ⌊q̄ᵢ⌋ + 1 = (⌊p̄ᵢ⌋+1)(⌊q̄ᵢ⌋+1) ≥ p̄ᵢ·q̄ᵢ.
// ---------------------------------------------------------------------------

// EDIndex holds the offline features for LB_PIM-ED: per-object Φ(p̄) (kept
// in the memory array) and the integer floor vectors (programmed onto the
// PIM array by internal/pim).
type EDIndex struct {
	Q      quant.Quantizer
	D      int
	Phi    []float64 // Φ(p̄) per object
	Floors []uint32  // N×D row-major ⌊p̄⌋, the crossbar payload
	n      int
}

// EDQuery holds the once-per-query features for LB_PIM-ED.
type EDQuery struct {
	Phi   float64
	Floor []uint32
}

// BuildED precomputes LB_PIM-ED features for every row of m (values must
// be normalized to [0,1]).
func BuildED(m *vec.Matrix, q quant.Quantizer) *EDIndex {
	ix := &EDIndex{Q: q, D: m.D, Phi: make([]float64, m.N), Floors: make([]uint32, m.N*m.D), n: m.N}
	for i := 0; i < m.N; i++ {
		ix.Phi[i] = edFeatures(m.Row(i), q, ix.Floors[i*m.D:(i+1)*m.D])
	}
	return ix
}

// N returns the number of indexed objects.
func (ix *EDIndex) N() int { return ix.n }

// Floor returns object i's quantized vector (shared storage).
func (ix *EDIndex) Floor(i int) []uint32 { return ix.Floors[i*ix.D : (i+1)*ix.D] }

// Query computes Φ(q̄) and ⌊q̄⌋ for a query vector.
func (ix *EDIndex) Query(qv []float64) EDQuery {
	return ix.QueryInto(qv, make([]uint32, ix.D))
}

// QueryInto is Query writing the floors into a caller-owned buffer of len
// D — the allocation-free form the steady-state search paths use. The
// returned EDQuery aliases floor.
func (ix *EDIndex) QueryInto(qv []float64, floor []uint32) EDQuery {
	if len(qv) != ix.D {
		panic(fmt.Sprintf("pimbound: query has %d dims, index has %d", len(qv), ix.D))
	}
	if len(floor) != ix.D {
		panic(fmt.Sprintf("pimbound: floor buffer of %d, index has %d dims", len(floor), ix.D))
	}
	phi := edFeatures(qv, ix.Q, floor)
	return EDQuery{Phi: phi, Floor: floor}
}

// LB evaluates Theorem 1's lower bound for object i given the PIM dot
// product ⌊p̄⌋·⌊q̄⌋.
func (ix *EDIndex) LB(i int, qf EDQuery, dot int64) float64 {
	a2 := ix.Q.Alpha * ix.Q.Alpha
	return (ix.Phi[i] + qf.Phi - 2*float64(dot) - 2*float64(ix.D)) / a2
}

// HostDot computes the reference integer dot product on the host; the PIM
// engine must produce exactly this value (property-tested).
func (ix *EDIndex) HostDot(i int, qf EDQuery) int64 {
	return vec.IntDot(ix.Floor(i), qf.Floor)
}

// edFeatures fills floors with ⌊v·α⌋ and returns Φ = Σ(vα)² − 2Σ⌊vα⌋.
func edFeatures(v []float64, q quant.Quantizer, floors []uint32) float64 {
	var phi float64
	for i, x := range v {
		s := q.Scaled(x)
		f := q.Floor(x)
		floors[i] = f
		phi += s*s - 2*float64(f)
	}
	return phi
}

// ---------------------------------------------------------------------------
// LB_PIM-FNN (Theorem 2): apply the same floor trick to LB_FNN's segment
// means and standard deviations (computed on the scaled vector p̄):
//
//	LB_PIM-FNN(p,q) = l/α² · (Φ(p̂) + Φ(q̂) − 2⌊µ(p̂)⌋·⌊µ(q̂)⌋
//	                          − 2⌊σ(p̂)⌋·⌊σ(q̂)⌋ − 4d′) ≤ LB_FNN(p,q) ≤ ED(p,q)
//
// with Φ(p̂) = Σµ(p̂ᵢ)² + Σσ(p̂ᵢ)² − 2Σ⌊µ(p̂ᵢ)⌋ − 2Σ⌊σ(p̂ᵢ)⌋.
// ---------------------------------------------------------------------------

// FNNIndex holds the offline features for LB_PIM-FNN at one granularity:
// per-object Φ(p̂) plus the floored segment-mean and segment-σ vectors
// (both programmed onto the PIM array: Fig 10's "crossbar a / crossbar b").
type FNNIndex struct {
	Q           quant.Quantizer
	Segs, L     int
	Phi         []float64
	MuFloors    []uint32 // N×Segs row-major
	SigmaFloors []uint32 // N×Segs row-major
	n           int
}

// FNNQuery holds the once-per-query features for LB_PIM-FNN.
type FNNQuery struct {
	Phi                 float64
	MuFloor, SigmaFloor []uint32
}

// BuildFNN precomputes LB_PIM-FNN features with segs segments (m.D must be
// divisible by segs; values must be normalized to [0,1]).
func BuildFNN(m *vec.Matrix, q quant.Quantizer, segs int) (*FNNIndex, error) {
	if segs <= 0 || m.D%segs != 0 {
		return nil, fmt.Errorf("pimbound: cannot split %d dims into %d segments", m.D, segs)
	}
	ix := &FNNIndex{
		Q: q, Segs: segs, L: m.D / segs,
		Phi:         make([]float64, m.N),
		MuFloors:    make([]uint32, m.N*segs),
		SigmaFloors: make([]uint32, m.N*segs),
		n:           m.N,
	}
	for i := 0; i < m.N; i++ {
		phi, err := fnnFeatures(m.Row(i), q, segs,
			ix.MuFloors[i*segs:(i+1)*segs], ix.SigmaFloors[i*segs:(i+1)*segs])
		if err != nil {
			return nil, err
		}
		ix.Phi[i] = phi
	}
	return ix, nil
}

// N returns the number of indexed objects.
func (ix *FNNIndex) N() int { return ix.n }

// MuFloor returns object i's floored segment means (shared storage).
func (ix *FNNIndex) MuFloor(i int) []uint32 { return ix.MuFloors[i*ix.Segs : (i+1)*ix.Segs] }

// SigmaFloor returns object i's floored segment σ (shared storage).
func (ix *FNNIndex) SigmaFloor(i int) []uint32 { return ix.SigmaFloors[i*ix.Segs : (i+1)*ix.Segs] }

// Query computes the query-side features once per query.
func (ix *FNNIndex) Query(qv []float64) (FNNQuery, error) {
	return ix.QueryInto(qv, make([]uint32, ix.Segs), make([]uint32, ix.Segs))
}

// QueryInto is Query writing the floored segment statistics into
// caller-owned buffers (both len Segs) — the allocation-free form the
// steady-state search paths use. The returned FNNQuery aliases mu and sg.
func (ix *FNNIndex) QueryInto(qv []float64, mu, sg []uint32) (FNNQuery, error) {
	if len(mu) != ix.Segs || len(sg) != ix.Segs {
		return FNNQuery{}, fmt.Errorf("pimbound: segment buffers of %d/%d, want %d", len(mu), len(sg), ix.Segs)
	}
	phi, err := fnnFeatures(qv, ix.Q, ix.Segs, mu, sg)
	if err != nil {
		return FNNQuery{}, err
	}
	return FNNQuery{Phi: phi, MuFloor: mu, SigmaFloor: sg}, nil
}

// LB evaluates Theorem 2's lower bound for object i given the two PIM dot
// products over floored means and floored σ.
func (ix *FNNIndex) LB(i int, qf FNNQuery, dotMu, dotSigma int64) float64 {
	a2 := ix.Q.Alpha * ix.Q.Alpha
	return float64(ix.L) / a2 *
		(ix.Phi[i] + qf.Phi - 2*float64(dotMu) - 2*float64(dotSigma) - 4*float64(ix.Segs))
}

// HostDots computes the reference integer dot products on the host.
func (ix *FNNIndex) HostDots(i int, qf FNNQuery) (dotMu, dotSigma int64) {
	return vec.IntDot(ix.MuFloor(i), qf.MuFloor), vec.IntDot(ix.SigmaFloor(i), qf.SigmaFloor)
}

// fnnFeatures computes segment stats of the *scaled* vector v̄ = v·α,
// floors them into mu/sg, and returns Φ(p̂). The per-segment stats are
// computed inline (bit-identical to vec.SegmentStats, which evaluates the
// same vec.MeanStd per segment) so the query path never allocates.
func fnnFeatures(v []float64, q quant.Quantizer, segs int, mu, sg []uint32) (float64, error) {
	if segs <= 0 || len(v)%segs != 0 {
		return 0, fmt.Errorf("pimbound: cannot split %d dims into %d equal segments", len(v), segs)
	}
	l := len(v) / segs
	var phi float64
	for i := 0; i < segs; i++ {
		mean, std := vec.MeanStd(v[i*l : (i+1)*l])
		sm := q.Scaled(mean) // mean scales linearly with α
		sd := q.Scaled(std)  // σ scales linearly with α
		fm := uint32(sm)
		fd := uint32(sd)
		mu[i] = fm
		sg[i] = fd
		phi += sm*sm + sd*sd - 2*float64(fm) - 2*float64(fd)
	}
	return phi, nil
}

// ---------------------------------------------------------------------------
// UB_PIM-CS / UB_PIM-PCC: for maximum-similarity search under CS and PCC,
// the same floor trick yields an *upper* bound on the inner product:
//
//	p·q ≤ (⌊p̄⌋·⌊q̄⌋ + Σ⌊p̄⌋ + Σ⌊q̄⌋ + d) / α²
//
// which divided by the (precomputed, exact) norms bounds CS from above,
// and plugged into PCC's Table 4 decomposition
// PCC = (d·p·q − Φb(p)Φb(q)) / (Φa(p)Φa(q)) bounds PCC from above (the
// denominator is positive whenever both vectors are non-constant).
// ---------------------------------------------------------------------------

// CSIndex holds offline features for PIM upper bounds on CS and PCC:
// floor vectors (PIM payload), Σ⌊p̄ᵢ⌋, plus the Table 4 Φ values — the
// norm ‖p‖ for CS and Φa, Φb for PCC.
type CSIndex struct {
	Q      quant.Quantizer
	D      int
	Floors []uint32  // N×D row-major
	SumFlr []float64 // Σ⌊p̄ᵢ⌋ per object
	Norm   []float64 // ‖p‖ per object (CS)
	PhiA   []float64 // √(d·Σp² − (Σp)²) per object (PCC)
	PhiB   []float64 // Σpᵢ per object (PCC)
	n      int
}

// CSQuery holds the once-per-query features.
type CSQuery struct {
	Floor  []uint32
	SumFlr float64
	Norm   float64
	PhiA   float64
	PhiB   float64
}

// BuildCS precomputes CS/PCC upper-bound features for every row of m.
func BuildCS(m *vec.Matrix, q quant.Quantizer) *CSIndex {
	ix := &CSIndex{
		Q: q, D: m.D,
		Floors: make([]uint32, m.N*m.D),
		SumFlr: make([]float64, m.N),
		Norm:   make([]float64, m.N),
		PhiA:   make([]float64, m.N),
		PhiB:   make([]float64, m.N),
		n:      m.N,
	}
	for i := 0; i < m.N; i++ {
		f := csFeatures(m.Row(i), q, ix.Floors[i*m.D:(i+1)*m.D])
		ix.SumFlr[i], ix.Norm[i], ix.PhiA[i], ix.PhiB[i] = f.SumFlr, f.Norm, f.PhiA, f.PhiB
	}
	return ix
}

// N returns the number of indexed objects.
func (ix *CSIndex) N() int { return ix.n }

// Floor returns object i's quantized vector (shared storage).
func (ix *CSIndex) Floor(i int) []uint32 { return ix.Floors[i*ix.D : (i+1)*ix.D] }

// Query computes the query-side features once per query.
func (ix *CSIndex) Query(qv []float64) CSQuery {
	return ix.QueryInto(qv, make([]uint32, ix.D))
}

// QueryInto is Query writing the floors into a caller-owned buffer of len
// D — the allocation-free form the steady-state search paths use. The
// returned CSQuery aliases floor.
func (ix *CSIndex) QueryInto(qv []float64, floor []uint32) CSQuery {
	if len(qv) != ix.D || len(floor) != ix.D {
		panic(fmt.Sprintf("pimbound: query of %d dims into a buffer of %d, index has %d", len(qv), len(floor), ix.D))
	}
	f := csFeatures(qv, ix.Q, floor)
	f.Floor = floor
	return f
}

// UBDot returns the upper bound on p·q for object i given the PIM dot
// product.
func (ix *CSIndex) UBDot(i int, qf *CSQuery, dot int64) float64 {
	a2 := ix.Q.Alpha * ix.Q.Alpha
	return (float64(dot) + ix.SumFlr[i] + qf.SumFlr + float64(ix.D)) / a2
}

// UBCS returns the upper bound on CS(p,q) for object i. Zero-norm vectors
// get an upper bound of 0, matching measure.Cosine's convention.
func (ix *CSIndex) UBCS(i int, qf *CSQuery, dot int64) float64 {
	np := ix.Norm[i]
	if np == 0 || qf.Norm == 0 {
		return 0
	}
	return ix.UBDot(i, qf, dot) / (np * qf.Norm)
}

// UBPCC returns the upper bound on PCC(p,q) for object i. Constant vectors
// (Φa = 0) get an upper bound of 0, matching measure.Pearson's convention.
// Both products are rounded before the subtraction, so the value is the
// same bits on platforms that would otherwise fuse one into it.
func (ix *CSIndex) UBPCC(i int, qf *CSQuery, dot int64) float64 {
	den := ix.PhiA[i] * qf.PhiA
	if den == 0 {
		return 0
	}
	return (float64(float64(ix.D)*ix.UBDot(i, qf, dot)) - float64(ix.PhiB[i]*qf.PhiB)) / den
}

// HostDot computes the reference integer dot product on the host.
func (ix *CSIndex) HostDot(i int, qf CSQuery) int64 {
	return vec.IntDot(ix.Floor(i), qf.Floor)
}

func csFeatures(v []float64, q quant.Quantizer, floors []uint32) CSQuery {
	var sumFlr, sum, sq float64
	for i, x := range v {
		f := q.Floor(x)
		floors[i] = f
		sumFlr += float64(f)
		sum += x
		sq += x * x
	}
	d := float64(len(v))
	phiA2 := d*sq - sum*sum
	if phiA2 < 0 { // guard tiny negative round-off
		phiA2 = 0
	}
	return CSQuery{SumFlr: sumFlr, Norm: math.Sqrt(sq), PhiA: math.Sqrt(phiA2), PhiB: sum}
}

// ---------------------------------------------------------------------------
// HD on PIM (Table 4): Hamming distance over binary vectors is computed
// *exactly* on PIM via dot products,
//
//	HD(p,q) = d − p·q − p̃·q̃
//
// where p̃ is the bitwise complement. Expanding p̃·q̃ = d − Σp − Σq + p·q
// gives the equivalent single-dot-product form
//
//	HD(p,q) = Ones(p) + Ones(q) − 2·p·q
//
// which matches Eq. 3 with Φ(p) = Ones(p) precomputed offline, and needs
// only ONE crossbar payload — the form the production searcher uses (it
// is what lets 10M 1024-bit codes fit the 2GB PIM array). Binary operands
// are already non-negative integers, so no quantization slack arises and
// both forms are exact (property-tested against each other).
// ---------------------------------------------------------------------------

// HDIndex holds binary codes in the 0/1 integer form the crossbars consume,
// both direct and complemented, plus the Ones(p) Φ values.
type HDIndex struct {
	D     int
	Bits  []uint32 // N×D row-major, values in {0,1}
	Comp  []uint32 // N×D row-major complement
	Ones  []int    // popcount per code (Φ of the single-payload form)
	Codes []measure.BitVector
}

// BuildHD expands packed binary codes into crossbar-ready 0/1 vectors.
// All codes must share one length.
func BuildHD(codes []measure.BitVector) (*HDIndex, error) {
	if len(codes) == 0 {
		return &HDIndex{Codes: codes}, nil
	}
	d := codes[0].Bits
	ix := &HDIndex{
		D:     d,
		Bits:  make([]uint32, len(codes)*d),
		Comp:  make([]uint32, len(codes)*d),
		Ones:  make([]int, len(codes)),
		Codes: codes,
	}
	for i, c := range codes {
		if c.Bits != d {
			return nil, fmt.Errorf("pimbound: code %d has %d bits, want %d", i, c.Bits, d)
		}
		row := ix.Bits[i*d : (i+1)*d]
		comp := ix.Comp[i*d : (i+1)*d]
		for b := 0; b < d; b++ {
			if c.Get(b) {
				row[b] = 1
			} else {
				comp[b] = 1
			}
		}
		ix.Ones[i] = c.Ones()
	}
	return ix, nil
}

// HDQuery is the 0/1 expansion of a query code plus its complement.
type HDQuery struct {
	Bits, Comp []uint32
}

// Query expands a query code. Panics on length mismatch.
func (ix *HDIndex) Query(code measure.BitVector) HDQuery {
	qf := HDQuery{Bits: make([]uint32, ix.D), Comp: make([]uint32, ix.D)}
	ix.QueryBitsInto(code, qf.Bits)
	for b, bit := range qf.Bits {
		qf.Comp[b] = 1 - bit
	}
	return qf
}

// QueryBitsInto expands a query code into a caller-owned buffer of len D
// — the single-payload form's only query-side operand, without an
// allocation. Panics on length mismatch.
func (ix *HDIndex) QueryBitsInto(code measure.BitVector, bits []uint32) {
	if code.Bits != ix.D || len(bits) != ix.D {
		panic(fmt.Sprintf("pimbound: query code of %d bits into a buffer of %d, index has %d", code.Bits, len(bits), ix.D))
	}
	for b := range bits {
		bits[b] = uint32(code.Words[b/64] >> (b % 64) & 1)
	}
}

// HD combines the two PIM dot products into the exact Hamming distance
// (Table 4's two-payload form).
func (ix *HDIndex) HD(dotPQ, dotComp int64) int {
	return ix.D - int(dotPQ) - int(dotComp)
}

// HD1 computes the exact Hamming distance from the single dot product and
// the precomputed Ones Φ values: Ones(p) + Ones(q) − 2·p·q.
func (ix *HDIndex) HD1(i int, qOnes int, dotPQ int64) int {
	return ix.Ones[i] + qOnes - 2*int(dotPQ)
}

// HostDots computes the reference dot products on the host.
func (ix *HDIndex) HostDots(i int, qf HDQuery) (dotPQ, dotComp int64) {
	row := ix.Bits[i*ix.D : (i+1)*ix.D]
	comp := ix.Comp[i*ix.D : (i+1)*ix.D]
	return vec.IntDot(row, qf.Bits), vec.IntDot(comp, qf.Comp)
}
