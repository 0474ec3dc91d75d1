// Package fault is a deterministic, seedable fault-injection layer for the
// PIM substrate. It models the failure modes that separate simulated
// accelerators from deployed ones — stuck-at-0/1 cells, bounded
// conductance drift, transient read noise, and whole-crossbar failure —
// and pairs every fault model with a recovery path that keeps
// filter-and-refine exact:
//
//   - Cell faults (stuck-at, drift) are known per cell after programming
//     (ReRAM program-and-verify reads every cell back), so the injector
//     derives, per affected vector, both the exact signed error its faulty
//     cells contribute to a dot product and a non-negative error envelope
//     that bounds it. Corrected dots are returned as faulty + envelope ≥
//     true dot. Since every lower bound of Theorems 1–2 consumes the dot
//     product as −2·dot and every similarity upper bound consumes it as
//     +dot, overestimating the dot keeps all bounds admissible — this
//     extends Theorem 3's quantization-slack argument (the 4d/α + 2d/α²
//     envelope) with a hardware-slack term, and no searcher changes.
//   - Transient read noise (post-ADC, |noise| ≤ ReadNoise) is compensated
//     the same way: the returned dot adds noise + ReadNoise ≥ 0.
//   - A dead crossbar loses its vectors' dots entirely; the injector
//     reports pim.DeadDot for them, a sentinel so large that no bound can
//     prune the object, which forces exact host refinement (never-prune
//     recovery). The serve layer additionally degrades a shard with dead
//     crossbars to the host scan outright.
//
// Everything is a pure function of (Model.Seed, payload name, tile
// coordinates), so fault maps are reproducible across runs and identical
// between exact and simulate engine modes: the analytic error applied in
// exact mode is bit-for-bit the error the bit-sliced crossbar simulator
// produces through its cell-read hooks (property-tested).
package fault

import (
	"fmt"
	"math/bits"
	"sync"

	"pimmine/internal/crossbar"
	"pimmine/internal/pim"
)

// Model configures the injected fault distribution. The zero value injects
// nothing. All rates are per-trial probabilities in [0,1].
type Model struct {
	// Seed drives every pseudo-random draw; equal seeds (with equal
	// geometry) reproduce identical fault maps.
	Seed int64
	// StuckAt0 is the per-cell probability of a cell stuck at level 0
	// (lowest conductance).
	StuckAt0 float64
	// StuckAt1 is the per-cell probability of a cell stuck at the full
	// level 2^CellBits−1.
	StuckAt1 float64
	// Drift is the per-cell probability of a static conductance drift.
	Drift float64
	// DriftLevels bounds a drifted cell's level offset: the observed level
	// is the programmed one shifted by a nonzero offset in
	// [−DriftLevels, +DriftLevels], clamped to the cell's range. Must be
	// ≥ 1 when Drift > 0.
	DriftLevels int
	// ReadNoise bounds the transient post-ADC noise added to every dot
	// product: |noise| ≤ ReadNoise, drawn fresh per (vector, query).
	ReadNoise int64
	// CrossbarFail is the per-tile probability that a whole crossbar is
	// dead (detected at attach time — a power-on self test).
	CrossbarFail float64
}

// Validate checks the model for usability.
func (m Model) Validate() error {
	rates := []struct {
		name string
		v    float64
	}{
		{"StuckAt0", m.StuckAt0}, {"StuckAt1", m.StuckAt1},
		{"Drift", m.Drift}, {"CrossbarFail", m.CrossbarFail},
	}
	for _, r := range rates {
		if r.v < 0 || r.v > 1 || r.v != r.v {
			return fmt.Errorf("fault: %s rate %v outside [0,1]", r.name, r.v)
		}
	}
	if s := m.StuckAt0 + m.StuckAt1 + m.Drift; s > 1 {
		return fmt.Errorf("fault: cell fault rates sum to %v > 1", s)
	}
	if m.Drift > 0 && m.DriftLevels < 1 {
		return fmt.Errorf("fault: Drift %v needs DriftLevels >= 1", m.Drift)
	}
	if m.DriftLevels < 0 || m.DriftLevels > 127 {
		return fmt.Errorf("fault: DriftLevels %d outside [0,127]", m.DriftLevels)
	}
	if m.ReadNoise < 0 {
		return fmt.Errorf("fault: negative ReadNoise %d", m.ReadNoise)
	}
	return nil
}

// Enabled reports whether the model injects any fault at all.
func (m Model) Enabled() bool {
	return m.StuckAt0 > 0 || m.StuckAt1 > 0 || m.Drift > 0 ||
		m.ReadNoise > 0 || m.CrossbarFail > 0
}

// DeriveSeed mixes a base seed with a sequence number, giving each engine
// (e.g. each serve shard) of one framework an independent fault universe
// while staying reproducible from the base seed.
func DeriveSeed(seed int64, seq int) int64 {
	return int64(splitmix(uint64(seed) ^ splitmix(uint64(seq)+0xd1b54a32d192ed03)))
}

// Cell fault kinds.
const (
	kindStuck0 = uint8(iota)
	kindStuck1
	kindDrift
)

// cellFault is one faulty cell of a tile.
type cellFault struct {
	kind  uint8
	drift int8 // signed level offset, kindDrift only
}

// observe maps a programmed level to the level a faulty read returns.
func observe(cf cellFault, level, maxLevel uint16) uint16 {
	switch cf.kind {
	case kindStuck0:
		return 0
	case kindStuck1:
		return maxLevel
	default:
		l := int(level) + int(cf.drift)
		if l < 0 {
			return 0
		}
		if l > int(maxLevel) {
			return maxLevel
		}
		return uint16(l)
	}
}

// vecFault is one faulty cell mapped into payload-vector coordinates: the
// dimension it stores a slice of and the slice's bit position (which is
// also the S&A weight shift — cell k of a group stores operand bits
// [(cpo−1−k)·h, (cpo−k)·h)).
type vecFault struct {
	dim   int32
	shift uint8
	cf    cellFault
}

// tile is the derived fault map of one crossbar.
type tile struct {
	dead  bool
	cells map[int32]cellFault // row*M+col → fault, for the read hook
}

// payloadFaults is the per-payload fault state.
type payloadFaults struct {
	seed    uint64
	tiles   map[[2]int]*tile   // (group, chunk) → map
	vecs    map[int][]vecFault // vector index → its faulty cells
	deadGrp map[int]bool       // groups containing a dead tile
}

// Injector implements pim.FaultInjector for one engine. Safe for
// concurrent use: Attach adds a payload under a write lock, query-path
// reads take a read lock.
type Injector struct {
	model    Model
	spec     crossbar.Spec
	maxLevel uint16

	mu       sync.RWMutex
	payloads map[string]*payloadFaults
	dead     int
}

// NewInjector builds an injector for crossbars of the given geometry.
func NewInjector(m Model, spec crossbar.Spec) (*Injector, error) {
	if err := m.Validate(); err != nil {
		return nil, err
	}
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	return &Injector{
		model:    m,
		spec:     spec,
		maxLevel: uint16(1)<<uint(spec.CellBits) - 1,
		payloads: make(map[string]*payloadFaults),
	}, nil
}

// Model returns the fault model in effect.
func (in *Injector) Model() Model { return in.model }

// Attach implements pim.FaultInjector: it derives the fault map of every
// tile covering the payload, once, when the payload is programmed —
// mirroring how real cell defects are discovered once and remembered.
func (in *Injector) Attach(p *pim.Payload) error {
	perGroup, chunks := p.Layout()
	if perGroup <= 0 {
		return fmt.Errorf("fault: payload %q has no tile layout", p.Name)
	}
	pf := &payloadFaults{
		seed:    splitmix(uint64(in.model.Seed) ^ hashString(p.Name)),
		tiles:   make(map[[2]int]*tile),
		vecs:    make(map[int][]vecFault),
		deadGrp: make(map[int]bool),
	}
	in.mu.Lock()
	defer in.mu.Unlock()
	cpo := in.spec.CellsPerOperand(p.OpBits)
	for g := 0; g < p.Groups(); g++ {
		for c := 0; c < chunks; c++ {
			in.deriveTile(pf, p, g, c, perGroup, cpo)
		}
	}
	in.payloads[p.Name] = pf
	return nil
}

// deriveTile generates tile (g, c)'s fault map from its deterministic seed
// and folds the occupied cells into per-vector fault lists. Cells are
// visited in fixed index order, so the per-vector lists — and with them
// the saturation behavior of the error envelope — are reproducible.
func (in *Injector) deriveTile(pf *payloadFaults, p *pim.Payload, g, c, perGroup, cpo int) {
	seed := splitmix(pf.seed ^ splitmix(uint64(g)<<32|uint64(uint32(c))))
	t := &tile{cells: make(map[int32]cellFault)}
	pf.tiles[[2]int{g, c}] = t

	var seq uint64
	next := func() uint64 { seq++; return splitmix(seed + seq) }
	if u01(next()) < in.model.CrossbarFail {
		t.dead = true
		pf.deadGrp[g] = true
		in.dead++
		// A dead tile's cell map is irrelevant: all of its group's dots
		// are replaced wholesale by pim.DeadDot.
		return
	}

	pCell := in.model.StuckAt0 + in.model.StuckAt1 + in.model.Drift
	if pCell <= 0 {
		return
	}
	m := in.spec.M
	// Dimensions this chunk covers (rows beyond it are never programmed or
	// read) and the occupied column span.
	chunkDims := p.Dims - c*m
	if chunkDims > m {
		chunkDims = m
	}
	for row := 0; row < m; row++ {
		for col := 0; col < m; col++ {
			u := u01(next())
			if u >= pCell {
				continue
			}
			var cf cellFault
			switch {
			case u < in.model.StuckAt0:
				cf = cellFault{kind: kindStuck0}
			case u < in.model.StuckAt0+in.model.StuckAt1:
				cf = cellFault{kind: kindStuck1}
			default:
				r := next()
				mag := int8(1 + r%uint64(in.model.DriftLevels))
				if r&(1<<63) != 0 {
					mag = -mag
				}
				cf = cellFault{kind: kindDrift, drift: mag}
			}
			t.cells[int32(row)*int32(m)+int32(col)] = cf
			// Map into vector coordinates when the cell can ever be read:
			// slot v of this group, weight slice k, dimension row of chunk c.
			v, k := col/cpo, col%cpo
			if v >= perGroup || row >= chunkDims {
				continue
			}
			pf.vecs[g*perGroup+v] = append(pf.vecs[g*perGroup+v], vecFault{
				dim:   int32(c*m + row),
				shift: uint8((cpo - 1 - k) * in.spec.CellBits),
				cf:    cf,
			})
		}
	}
}

// TileFault implements pim.FaultInjector: the cell-read hook the simulate
// mode installs on tile (g, c).
func (in *Injector) TileFault(p *pim.Payload, g, c int) crossbar.ReadFault {
	in.mu.RLock()
	pf := in.payloads[p.Name]
	var t *tile
	if pf != nil {
		t = pf.tiles[[2]int{g, c}]
	}
	in.mu.RUnlock()
	if t == nil || len(t.cells) == 0 {
		return nil
	}
	m := int32(in.spec.M)
	maxLevel := in.maxLevel
	cells := t.cells // frozen after derivation
	return func(row, col int, level uint16) uint16 {
		cf, ok := cells[int32(row)*m+int32(col)]
		if !ok {
			return level
		}
		return observe(cf, level, maxLevel)
	}
}

// DeadCrossbars implements pim.FaultInjector.
func (in *Injector) DeadCrossbars() int {
	in.mu.RLock()
	defer in.mu.RUnlock()
	return in.dead
}

// satMax caps the error envelope. An envelope at or beyond the cap cannot
// be proven to dominate the (wrapping) signed error, so the vector is
// handled like a dead-crossbar one: sentinel dot, never pruned, refined
// exactly on the host. Below the cap, Σ|contrib| < 2^59 bounds |delta|,
// so no intermediate wrapped.
const satMax = int64(1) << 59

// Apply implements pim.FaultInjector. For every vector of the batch it
// rewrites dst[i] into an admissible overestimate of the true dot product:
//
//	dst[i] = trueDot + delta + envelope [+ noise + ReadNoise]
//
// where delta is the signed error the vector's faulty cells inject
// (already physically present in dst when simulated; added analytically
// in exact mode — the two are bit-identical by construction) and
// envelope = Σ|per-cell contribution| ≥ |delta|. Vectors in a dead group,
// or whose envelope saturates, get pim.DeadDot instead.
func (in *Injector) Apply(p *pim.Payload, simulated bool, input []uint32, dst []int64) (faulty, recovered int64) {
	in.mu.RLock()
	pf := in.payloads[p.Name]
	in.mu.RUnlock()
	if pf == nil {
		return 0, 0
	}
	perGroup, _ := p.Layout()
	noisy := in.model.ReadNoise > 0
	var inputHash uint64
	if noisy {
		inputHash = hashInput(input)
	}
	for i := range dst {
		if pf.deadGrp[i/perGroup] {
			dst[i] = pim.DeadDot
			recovered++
			continue
		}
		var adj, env int64
		touched := false
		if cfs := pf.vecs[i]; len(cfs) > 0 {
			row := p.Row(i)
			sat := false
			for _, vf := range cfs {
				prog := uint16(row[vf.dim]>>vf.shift) & in.maxLevel
				obs := observe(vf.cf, prog, in.maxLevel)
				d := int64(obs) - int64(prog)
				if d == 0 {
					continue
				}
				touched = true
				// Exact signed error, in the crossbar's wrapping S&A
				// arithmetic: (obs−prog) · input[dim] · 2^shift.
				if !simulated {
					adj += d * int64(input[vf.dim]) << vf.shift
				}
				// Envelope contribution |d|·input·2^shift, saturating.
				mag := d
				if mag < 0 {
					mag = -mag
				}
				hi, lo := bits.Mul64(uint64(mag), uint64(input[vf.dim]))
				if hi != 0 || lo > uint64(satMax)>>vf.shift {
					sat = true
					break
				}
				env += int64(lo) << vf.shift
				if env >= satMax {
					sat = true
					break
				}
			}
			if sat {
				dst[i] = pim.DeadDot
				recovered++
				continue
			}
			adj += env
		}
		if noisy {
			touched = true
			adj += in.noiseFor(pf.seed, i, inputHash) + in.model.ReadNoise
		}
		if touched {
			dst[i] += adj
			faulty++
		}
	}
	return faulty, recovered
}

// noiseFor draws the transient read noise for one (vector, query) pair:
// uniform in [−ReadNoise, +ReadNoise], a pure function of its inputs so
// exact and simulate modes agree bit-for-bit.
func (in *Injector) noiseFor(seed uint64, i int, inputHash uint64) int64 {
	h := splitmix(seed ^ splitmix(uint64(i)+0x2545f4914f6cdd1d) ^ inputHash)
	span := uint64(2*in.model.ReadNoise + 1)
	return int64(h%span) - in.model.ReadNoise
}

// splitmix is the SplitMix64 mixer — the per-draw core of the injector's
// counter-based deterministic randomness.
func splitmix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// u01 maps a 64-bit draw to [0, 1).
func u01(x uint64) float64 { return float64(x>>11) / (1 << 53) }

// hashString is FNV-1a over a string.
func hashString(s string) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(s); i++ {
		h = (h ^ uint64(s[i])) * 1099511628211
	}
	return h
}

// hashInput is FNV-1a over a query vector's words.
func hashInput(input []uint32) uint64 {
	h := uint64(14695981039346656037)
	for _, v := range input {
		h = (h ^ uint64(v&0xff)) * 1099511628211
		h = (h ^ uint64(v>>8&0xff)) * 1099511628211
		h = (h ^ uint64(v>>16&0xff)) * 1099511628211
		h = (h ^ uint64(v>>24&0xff)) * 1099511628211
	}
	return h
}

// Compile-time interface check.
var _ pim.FaultInjector = (*Injector)(nil)
