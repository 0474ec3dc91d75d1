package pim

import (
	"fmt"

	"pimmine/internal/arch"
	"pimmine/internal/vec"
)

// §V-C discusses — and rejects — the "simple solution" for datasets that
// exceed the PIM array: "divide the dataset into multiple small parts,
// and each time the crossbars are re-programmed with one part for
// processing. However, due to the limited write endurance of ReRAM, we
// should avoid re-programming crossbars."
//
// PartitionedPayload implements that strawman so it can be compared
// against Theorem 4 compression (see the ablation benchmarks): the
// payload is split into waves that fit the usable array; every query
// batch re-programs each wave in turn, paying the full programming time
// per wave and burning one write per visited cell.

// ReRAMEnduranceWrites is the low end of Table 1's ReRAM endurance range
// (10⁸ writes per cell), used for lifetime estimates.
const ReRAMEnduranceWrites = 1e8

// PartitionedPayload is an integer matrix too large for the PIM array,
// processed wave by wave with re-programming.
type PartitionedPayload struct {
	Name    string
	N, Dims int
	OpBits  int

	slab       []uint32 // the N rows back to back, as Payload.slab
	waveSize   int      // vectors per wave
	waves      int
	reprogNs   float64 // programming time per wave (critical path + bus)
	cellWrites int64   // cell writes per full pass over the dataset

	// passes counts full re-programming sweeps, for endurance reporting.
	passes int64
}

// ProgramPartitioned prepares the strawman layout: the largest wave that
// fits the usable array, the per-wave re-programming cost, and the
// endurance bill per pass. Unlike Program, it never rejects a payload for
// size — that is the point of the strawman.
func (e *Engine) ProgramPartitioned(name string, n, dims, vectorsPerObject, opBits int, rows func(i int) []uint32) (*PartitionedPayload, error) {
	if n <= 0 || dims <= 0 {
		return nil, fmt.Errorf("pim: empty partitioned payload %q (%d×%d)", name, n, dims)
	}
	if opBits <= 0 || opBits > 32 {
		return nil, fmt.Errorf("pim: payload %q operand width %d outside [1,32]", name, opBits)
	}
	// Largest wave that fits: binary search over vector count.
	lo, hi := 0, n
	for lo < hi {
		mid := (lo + hi + 1) / 2
		if e.model.FitsB(mid, dims, vectorsPerObject, opBits) {
			lo = mid
		} else {
			hi = mid - 1
		}
	}
	if lo == 0 {
		return nil, fmt.Errorf("pim: even one %d-dim vector exceeds the PIM array", dims)
	}
	slab, err := resolveSlab(name, n, dims, rows)
	if err != nil {
		return nil, err
	}
	waveSize := lo
	waves := (n + waveSize - 1) / waveSize
	cost := e.programCost(waveSize, dims, opBits)
	cpo := e.cfg.Crossbar.CellsPerOperand(opBits)
	return &PartitionedPayload{
		Name:       name,
		N:          n,
		Dims:       dims,
		OpBits:     opBits,
		slab:       slab,
		waveSize:   waveSize,
		waves:      waves,
		reprogNs:   cost.TotalNs(),
		cellWrites: int64(n) * int64(dims) * int64(cpo),
	}, nil
}

// Waves returns how many re-programming waves one full pass takes.
func (p *PartitionedPayload) Waves() int { return p.waves }

// QueryAll computes the dot product of input with every vector, paying
// one full re-programming sweep (all waves) on top of the compute: each
// wave is programmed, queried, and overwritten by the next.
func (p *PartitionedPayload) QueryAll(e *Engine, meter *arch.Meter, fn string, input []uint32, dst []int64) ([]int64, error) {
	if len(input) != p.Dims {
		return nil, fmt.Errorf("pim: query has %d dims, payload %q has %d", len(input), p.Name, p.Dims)
	}
	if cap(dst) < p.N {
		dst = make([]int64, p.N)
	}
	dst = dst[:p.N]
	vec.IntDotRows(p.slab, p.Dims, input, dst)
	p.passes++
	if meter != nil {
		c := meter.C(fn)
		perWave := int64(e.cfg.Crossbar.InputCycles(p.OpBits) + e.model.GatherLevels(p.Dims))
		c.PIMCycles += perWave * int64(p.waves)
		c.PIMBufBytes += int64(p.N) * 8
		// Re-programming is *online* here — that is the strawman's cost.
		c.PIMWriteNs += p.reprogNs * float64(p.waves)
		c.Calls++
	}
	return dst, nil
}

// EnduranceReport summarizes the wear of the strawman against Theorem 4
// compression (which programs each cell exactly once).
type EnduranceReport struct {
	// PassesRun is how many full re-programming sweeps have executed.
	PassesRun int64
	// WritesPerCellPerPass is the wear of one sweep on the busiest cells.
	WritesPerCellPerPass float64
	// LifetimePasses is how many sweeps Table 1's low-end ReRAM endurance
	// (10⁸ writes) sustains.
	LifetimePasses float64
}

// Endurance returns the wear report. Each pass writes every wave's cells
// once, so the busiest cell takes waves·(cells reused per wave)/cells ≈ 1
// write per pass per occupied cell; with the array fully reused across
// waves, each physical cell absorbs ~waves writes per pass of the region
// it hosts — conservatively 1 write per pass per wave sharing its tile.
func (p *PartitionedPayload) Endurance() EnduranceReport {
	perPass := float64(p.waves) // each physical tile is rewritten once per wave
	return EnduranceReport{
		PassesRun:            p.passes,
		WritesPerCellPerPass: perPass,
		LifetimePasses:       ReRAMEnduranceWrites / perPass,
	}
}
