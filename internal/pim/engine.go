package pim

import (
	"fmt"
	"sync"
	"sync/atomic"

	"pimmine/internal/arch"
	"pimmine/internal/crossbar"
	"pimmine/internal/vec"
)

// Mode selects how the Engine evaluates dot products.
type Mode int

const (
	// ModeExact evaluates dot products with host integer arithmetic — one
	// vec.IntDotRows sweep over the payload's row-major slab per query —
	// while accounting PIM activity analytically. This is what the mining
	// algorithms use: it is fast and bit-identical to the crossbar
	// pipeline (property-tested). A healthy exact-mode payload also carries
	// a digest (digest.go), from which UpperAll bounds every row's dot and
	// DotRows then computes only the ones a caller still needs.
	ModeExact Mode = iota
	// ModeSimulate routes every dot product through the bit-sliced
	// functional crossbar simulator, allocating real crossbar tiles: each
	// tile answers with one integer sweep over the operands its analog
	// read observes (read-fault hook included), pinned bit-identical to
	// the cell-at-a-time pipeline (crossbar.DotAllRef). Intended for
	// verification and small demos.
	ModeSimulate
)

// DeadDot is the sentinel dot product reported for a vector whose crossbar
// is dead (whole-tile failure, internal/fault). It is a huge positive
// value, so every bound built from it keeps the object: lower bounds use
// −2·dot and collapse far below any threshold, similarity upper bounds use
// +dot and stay far above. The object is then refined exactly on the host
// — the never-prune recovery path. Admissible whenever true |dot| < 2^60,
// which the quantizer's value range guarantees with huge margin.
const DeadDot = int64(1) << 60

// FaultInjector is the hook internal/fault implements to model hardware
// faults (stuck-at cells, conductance drift, read noise, dead crossbars)
// while keeping filter-and-refine exact. The engine calls Attach once per
// payload, installs the per-tile read faults in simulate mode, and routes
// every dot-product batch through Apply.
type FaultInjector interface {
	// Attach derives the deterministic fault map of the payload's tile
	// grid.
	Attach(p *Payload) error
	// TileFault returns the cell-read fault hook for tile (group, chunk)
	// of an attached payload, or nil for a fault-free tile.
	TileFault(p *Payload, g, c int) crossbar.ReadFault
	// Apply post-processes one dot-product batch in place: in exact mode
	// it adds the analytic fault delta (bit-identical to what the faulty
	// crossbar simulation produces), in both modes it adds the error
	// envelope that restores bound admissibility, and it replaces dots
	// lost to dead crossbars with DeadDot. It reports how many dots were
	// fault-corrected and how many were dead-recovered.
	Apply(p *Payload, simulated bool, input []uint32, dst []int64) (faulty, recovered int64)
	// DeadCrossbars reports how many attached tiles failed entirely.
	DeadCrossbars() int
}

// Engine owns the PIM array of one architecture instance: payload
// programming (offline) and batched dot-product queries (online).
type Engine struct {
	cfg      arch.Config
	model    CapacityModel
	mode     Mode
	payloads map[string]*Payload

	inj FaultInjector
	// Cumulative fault activity, kept on the engine (atomically, since
	// serve-layer shards may query concurrently) so callers without a meter
	// still observe fault counts.
	faultDots     int64
	recoveredDots int64
}

// NewEngine creates an engine for the given architecture.
func NewEngine(cfg arch.Config, mode Mode) (*Engine, error) {
	return NewFaultyEngine(cfg, mode, nil)
}

// NewFaultyEngine creates an engine whose dot products pass through the
// given fault injector (nil behaves exactly like NewEngine).
func NewFaultyEngine(cfg arch.Config, mode Mode, inj FaultInjector) (*Engine, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return &Engine{
		cfg:      cfg,
		model:    ModelFor(cfg),
		mode:     mode,
		inj:      inj,
		payloads: make(map[string]*Payload),
	}, nil
}

// Faulty reports whether a fault injector is installed. Searchers that
// treat PIM dots as exact values (HD-PIM) switch to filter-and-refine
// when this is true.
func (e *Engine) Faulty() bool { return e.inj != nil }

// DeadCrossbars reports how many of the engine's tiles failed entirely
// (0 without an injector). The serve layer checks this after building a
// shard's searcher to decide whether to degrade to a host scan.
func (e *Engine) DeadCrossbars() int {
	if e.inj == nil {
		return 0
	}
	return e.inj.DeadCrossbars()
}

// FaultCounts returns the cumulative number of fault-corrected and
// dead-recovered dot products served by this engine.
func (e *Engine) FaultCounts() (faulty, recovered int64) {
	return atomic.LoadInt64(&e.faultDots), atomic.LoadInt64(&e.recoveredDots)
}

// Model exposes the Theorem 4 capacity model in effect.
func (e *Engine) Model() CapacityModel { return e.model }

// Config returns the architecture configuration.
func (e *Engine) Config() arch.Config { return e.cfg }

// Payload is one named integer matrix programmed onto the PIM array (e.g.
// the ⌊p̄⌋ vectors for LB_PIM-ED, or the ⌊µ(p̂)⌋ vectors for LB_PIM-FNN).
type Payload struct {
	Name    string
	N, Dims int
	// OpBits is this payload's stored operand width (1 for binary codes,
	// the architecture default of 32 for quantized integers).
	OpBits int

	// slab holds the N programmed rows back to back (row-major, len
	// N·Dims). It aliases the caller's storage when the rows already lie
	// that way, and is a payload-owned packed copy otherwise (resolveSlab).
	slab []uint32

	// digest holds N rows of digestDims ceil group norms of the slab's rows
	// (digest.go), payload-owned; digestDims is 0 for a payload without
	// one. digestMax is the largest norm in it.
	digest     []uint32
	digestDims int
	digestMax  uint32

	// Simulate-mode tiling: groups × chunks crossbars, where each group
	// holds perGroup vectors and each chunk covers up to m dimensions.
	xbars    [][]*crossbar.Crossbar
	perGroup int
	chunks   int

	gatherLevels int
	cost         ProgramCost
}

// Row returns vector i (the fault injector's analytic path reads the
// programmed levels through this in exact mode).
func (p *Payload) Row(i int) []uint32 { return p.slab[i*p.Dims : (i+1)*p.Dims] }

// resolveSlab turns the row accessor handed to Program into the
// row-major slab the query path sweeps, visiting every row once and
// rejecting any whose length is not dims. Every in-repo caller returns
// back-to-back sub-slices of one array (EDIndex.Floor, FNNIndex.MuFloor,
// ...): &rows(i)[0] == &slab[i·dims] verifies that row by row, and the
// slab then aliases that array — nothing is copied. At the first row that
// is not back to back the rows are packed into a payload-owned slab
// instead, so query time has a single path either way.
func resolveSlab(name string, n, dims int, rows func(i int) []uint32) ([]uint32, error) {
	var slab []uint32
	owned := false
	for i := 0; i < n; i++ {
		row := rows(i)
		if len(row) != dims {
			return nil, fmt.Errorf("pim: payload %q row %d has %d dims, want %d", name, i, len(row), dims)
		}
		lo, hi := i*dims, (i+1)*dims
		switch {
		case owned:
			copy(slab[lo:hi], row)
		case i == 0:
			slab = row
		case hi <= cap(slab) && &slab[:hi][lo] == &row[0]:
			slab = slab[:hi]
		default:
			packed := make([]uint32, n*dims)
			copy(packed, slab)
			copy(packed[lo:hi], row)
			slab, owned = packed, true
		}
	}
	return slab, nil
}

// Layout returns the payload's tile geometry: vectors per crossbar group
// and dimension chunks per group. It is defined in both modes — exact
// mode computes the same layout the simulator would allocate.
func (p *Payload) Layout() (perGroup, chunks int) { return p.perGroup, p.chunks }

// Groups returns how many crossbar groups cover the payload's N rows.
func (p *Payload) Groups() int {
	if p.perGroup == 0 {
		return 0
	}
	return (p.N + p.perGroup - 1) / p.perGroup
}

// ProgramCost reports the modeled offline cost of programming a payload.
type ProgramCost struct {
	// WriteNs is the critical-path ReRAM programming time: crossbars
	// program in parallel, rows within one crossbar serially.
	WriteNs float64
	// BusNs is the time to deliver the payload bytes over the internal bus.
	BusNs float64
	// Bytes is the payload size at the modeled operand width.
	Bytes int64
	// DataCrossbars/GatherCrossbars echo the Theorem 4 demand.
	DataCrossbars, GatherCrossbars int64
}

// TotalNs returns the full modeled programming time.
func (pc ProgramCost) TotalNs() float64 { return pc.WriteNs + pc.BusNs }

// Program lays a payload of n vectors × dims non-negative integers onto
// the array. rows(i) must return vector i (exactly dims long) and stay
// valid and unmodified for the engine's lifetime: rows that lie back to
// back in one array are aliased, not copied (resolveSlab). Programming
// enforces Theorem 4: a payload that does not fit
// the usable array (given how many sibling payloads the caller will
// store — vectorsPerObject) is rejected, because re-programming would
// burn ReRAM endurance (§V-C).
func (e *Engine) Program(name string, n, dims, vectorsPerObject int, rows func(i int) []uint32) (*Payload, error) {
	return e.ProgramWidth(name, n, dims, vectorsPerObject, e.cfg.OperandBits, rows)
}

// ProgramWidth is Program with an explicit operand width: binary payloads
// (Table 4's HD decomposition) store 1-bit operands and pack 32× denser
// than the default integers.
func (e *Engine) ProgramWidth(name string, n, dims, vectorsPerObject, opBits int, rows func(i int) []uint32) (*Payload, error) {
	if n <= 0 || dims <= 0 {
		return nil, fmt.Errorf("pim: empty payload %q (%d×%d)", name, n, dims)
	}
	if opBits <= 0 || opBits > 32 {
		return nil, fmt.Errorf("pim: payload %q operand width %d outside [1,32]", name, opBits)
	}
	if _, dup := e.payloads[name]; dup {
		return nil, fmt.Errorf("pim: payload %q already programmed (re-programming burns endurance)", name)
	}
	if !e.model.FitsB(n, dims, vectorsPerObject, opBits) {
		return nil, fmt.Errorf("pim: payload %q (%d×%d ×%d) exceeds PIM array capacity; compress with CapacityModel.ChooseS",
			name, n, dims, vectorsPerObject)
	}
	slab, err := resolveSlab(name, n, dims, rows)
	if err != nil {
		return nil, err
	}
	p := &Payload{Name: name, N: n, Dims: dims, OpBits: opBits, slab: slab, gatherLevels: e.model.GatherLevels(dims)}
	p.cost = e.programCost(n, dims, opBits)
	// The tile layout is defined in every mode: exact mode needs it for
	// the fault injector's cell→vector geometry, simulate mode for tile
	// allocation.
	spec := e.cfg.Crossbar
	p.chunks = (p.Dims + spec.M - 1) / spec.M
	p.perGroup = spec.VectorsPerCrossbar(minInt(p.Dims, spec.M), p.OpBits)
	if p.perGroup == 0 && (e.mode == ModeSimulate || e.inj != nil) {
		return nil, fmt.Errorf("pim: operand width %d leaves no room in %d-wide crossbar", p.OpBits, spec.M)
	}
	if e.mode == ModeSimulate {
		if err := e.buildTiles(p); err != nil {
			return nil, err
		}
	}
	if err := e.installFaults(p); err != nil {
		return nil, err
	}
	// Only where the slab's own dots are what QueryAll returns: not through
	// the simulator's tiles, not under a fault injector. A binary payload's
	// group norm bounds nothing its 32×-denser sweep does not already give.
	if e.mode == ModeExact && e.inj == nil && opBits > 1 {
		p.digestDims = (dims + digestGroup - 1) / digestGroup
		p.buildDigest()
	}
	e.payloads[name] = p
	return p, nil
}

// installFaults attaches the fault injector to a freshly programmed
// payload — deriving the fault map of every tile (a power-on self test:
// dead crossbars are known before the first query) — and, in simulate
// mode, installs the cell-read hooks on every allocated tile.
func (e *Engine) installFaults(p *Payload) error {
	if e.inj == nil {
		return nil
	}
	if err := e.inj.Attach(p); err != nil {
		return fmt.Errorf("pim: attaching fault injector to payload %q: %w", p.Name, err)
	}
	for g, tiles := range p.xbars {
		for c, xb := range tiles {
			xb.SetReadFault(e.inj.TileFault(p, g, c))
		}
	}
	return nil
}

// WriteVerifyPulses models ReRAM cell programming as iterative
// program-and-verify (multi-level cells need several pulses to land on
// the target resistance — the reason Table 1's ReRAM write latency and
// endurance trail DRAM's). Combined with the write-power limit that
// serializes row programming across the array (one m-cell row per pulse
// window), this is what makes PIM pre-processing slower than the host
// baseline's DRAM writes despite touching less data (Fig 17).
const WriteVerifyPulses = 8

// programCost models the offline programming cost analytically.
func (e *Engine) programCost(n, dims, opBits int) ProgramCost {
	spec := e.cfg.Crossbar
	nd, ng := e.model.CostB(n, dims, opBits)
	bytes := (int64(n)*int64(dims)*int64(opBits) + 7) / 8
	// Total cells to program, serialized into m-cell row writes by the
	// write-power budget, each taking WriteVerifyPulses pulses.
	cells := float64(n) * float64(dims) * float64(spec.CellsPerOperand(opBits))
	rowWrites := cells / float64(spec.M)
	return ProgramCost{
		WriteNs:         rowWrites * WriteVerifyPulses * spec.WriteLatencyNs,
		BusNs:           float64(bytes) / e.cfg.InternalBusGBs,
		Bytes:           bytes,
		DataCrossbars:   nd,
		GatherCrossbars: ng,
	}
}

// buildTiles allocates and programs real crossbar tiles (simulate mode).
// Layout (perGroup, chunks) was computed by ProgramWidth.
func (e *Engine) buildTiles(p *Payload) error {
	spec := e.cfg.Crossbar
	m := spec.M
	if p.perGroup == 0 {
		return fmt.Errorf("pim: operand width %d leaves no room in %d-wide crossbar", p.OpBits, m)
	}
	groups := (p.N + p.perGroup - 1) / p.perGroup
	p.xbars = make([][]*crossbar.Crossbar, groups)
	for g := range p.xbars {
		p.xbars[g] = make([]*crossbar.Crossbar, p.chunks)
		for c := range p.xbars[g] {
			p.xbars[g][c] = crossbar.New(spec)
		}
	}
	for i := 0; i < p.N; i++ {
		row := p.Row(i)
		g := i / p.perGroup
		for c := 0; c < p.chunks; c++ {
			lo := c * m
			hi := minInt(lo+m, p.Dims)
			if _, err := p.xbars[g][c].ProgramVector(row[lo:hi], p.OpBits); err != nil {
				return fmt.Errorf("pim: programming payload %q row %d chunk %d: %w", p.Name, i, c, err)
			}
		}
	}
	return nil
}

// RecordProgramCost adds a payload's offline programming cost to the named
// function of a meter (pre-processing accounting, Fig 17).
func RecordProgramCost(m *arch.Meter, fn string, p *Payload) {
	c := m.C(fn)
	c.PIMWriteNs += p.cost.TotalNs()
	c.Calls++
}

// Cost returns the payload's modeled programming cost.
func (p *Payload) Cost() ProgramCost { return p.cost }

// QueryAll computes the dot product of input with every payload vector,
// appending results to dst (allocated if nil) and recording the PIM
// activity under fn in the meter (charge has the rule).
func (e *Engine) QueryAll(meter *arch.Meter, fn string, p *Payload, input []uint32, dst []int64) ([]int64, error) {
	dst, faulty, recovered, err := e.sweep(p, input, dst)
	if err != nil {
		return nil, err
	}
	e.charge(meter, fn, faulty, recovered, p)
	return dst, nil
}

// sweep is QueryAll without the meter: every row's dot as the array
// returns it, and how many of them the fault injector corrected and
// recovered (also added to the engine's cumulative counts).
func (e *Engine) sweep(p *Payload, input []uint32, dst []int64) (out []int64, faulty, recovered int64, err error) {
	if len(input) != p.Dims {
		return nil, 0, 0, fmt.Errorf("pim: query has %d dims, payload %q has %d", len(input), p.Name, p.Dims)
	}
	dst = vec.Resized(dst, p.N)
	switch e.mode {
	case ModeExact:
		vec.IntDotRows(p.slab, p.Dims, input, dst)
	case ModeSimulate:
		if err := e.simulateQuery(p, input, dst); err != nil {
			return nil, 0, 0, err
		}
	default:
		return nil, 0, 0, fmt.Errorf("pim: unknown mode %d", e.mode)
	}
	if e.inj != nil {
		faulty, recovered = e.inj.Apply(p, e.mode == ModeSimulate, input, dst)
		atomic.AddInt64(&e.faultDots, faulty)
		atomic.AddInt64(&e.recoveredDots, recovered)
	}
	return dst, faulty, recovered, nil
}

// simScratch is simulateQuery's per-call scratch: one tile's partial dots.
type simScratch struct {
	part []int64
}

// simPool holds simulateQuery's scratch, so a warmed-up simulate-mode
// query allocates nothing and concurrent shard engines never share a
// buffer.
var simPool = sync.Pool{New: func() any { return new(simScratch) }}

// simulateQuery runs the query through the functional crossbar tiles: a
// dimension chunk of the input is injected into every group's tile of
// that chunk (crossbar.DotAllInto, one integer sweep over the operands the
// tile's read observes), and dst accumulates the chunk partials (the
// gather crossbars' summation).
func (e *Engine) simulateQuery(p *Payload, input []uint32, dst []int64) error {
	spec := e.cfg.Crossbar
	sc := simPool.Get().(*simScratch)
	defer simPool.Put(sc)
	for i := range dst {
		dst[i] = 0
	}
	for c := 0; c < p.chunks; c++ {
		lo := c * spec.M
		hi := minInt(lo+spec.M, p.Dims)
		for g, tiles := range p.xbars {
			xb := tiles[c]
			if cap(sc.part) < xb.Vectors() {
				sc.part = make([]int64, xb.Vectors())
			}
			part := sc.part[:xb.Vectors()]
			if _, err := xb.DotAllInto(input[lo:hi], p.OpBits, part); err != nil {
				return fmt.Errorf("pim: querying payload %q group %d chunk %d: %w", p.Name, g, c, err)
			}
			base := g * p.perGroup
			for v, d := range part[:minInt(p.perGroup, p.N-base)] {
				dst[base+v] += d
			}
		}
	}
	return nil
}

func minInt(a, b int) int {
	if a < b {
		return a
	}
	return b
}
