package cluster

import (
	"fmt"
	"math/rand"
	"sync"
	"time"
)

// Chaos is a deterministic failure injector: node kills, pauses,
// asymmetric partitions, and slow nodes, drawn from a seeded schedule.
// Every step is replayable — the same seed over the same engine
// produces the same event log (pinned by a CI golden), because every
// choice comes from the seeded generator and the engine's state evolves
// only through the steps themselves.
//
// Chaos is safety-bounded: it refuses any step that would
// leave some shard without a live, current replica, so a query issued
// at any point between steps can always be answered — which is what
// lets the race hammer exactness-verify every success. The quorum check
// and the state change happen in one engine critical section (the
// *IfSafe helpers in admin.go), so a concurrent admin op or write
// cannot invalidate the check before it is acted on. Restores run
// anti-entropy Repair, so R recovers after each kill.
type Chaos struct {
	eng *Engine
	rng *rand.Rand
	cfg ChaosConfig

	mu  sync.Mutex
	n   int
	log []string
}

// ChaosConfig tunes the harness; the zero value is usable.
type ChaosConfig struct {
	// MaxSlow bounds injected per-visit dwell (default 2ms).
	MaxSlow time.Duration
}

// NewChaos builds a harness over eng with a seeded schedule.
func NewChaos(eng *Engine, seed int64, cfg ChaosConfig) *Chaos {
	if cfg.MaxSlow <= 0 {
		cfg.MaxSlow = 2 * time.Millisecond
	}
	return &Chaos{eng: eng, rng: rand.New(rand.NewSource(seed)), cfg: cfg}
}

// Step applies one chaos event and returns its log line. Unsafe or
// inapplicable draws (killing the last quorum holder, pausing a dead
// node) are logged as refusals rather than retried, keeping the
// schedule a pure function of the seed.
func (c *Chaos) Step() string {
	c.mu.Lock()
	defer c.mu.Unlock()
	op := c.rng.Intn(8)
	target := c.rng.Intn(len(c.eng.nodes))
	line := c.apply(op, target)
	entry := fmt.Sprintf("step %03d: %s", c.n, line)
	c.n++
	c.log = append(c.log, entry)
	return entry
}

// Steps applies n events and returns their log lines.
func (c *Chaos) Steps(n int) []string {
	out := make([]string, 0, n)
	for i := 0; i < n; i++ {
		out = append(out, c.Step())
	}
	return out
}

// Log returns every event applied so far.
func (c *Chaos) Log() []string {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]string(nil), c.log...)
}

func (c *Chaos) apply(op, target int) string {
	e := c.eng
	switch op {
	case 0: // kill
		res, err := e.killNodeIfSafe(target)
		switch {
		case err != nil:
			return fmt.Sprintf("kill node%d failed: %v", target, err)
		case res == disableRedundant:
			return fmt.Sprintf("kill node%d refused: already down", target)
		case res == disableUnsafe:
			return fmt.Sprintf("kill node%d refused: would lose quorum", target)
		}
		return fmt.Sprintf("kill node%d", target)
	case 1: // restore + anti-entropy
		if e.nodes[target].state.Load() == nodeUp {
			return fmt.Sprintf("restore node%d refused: already up", target)
		}
		if err := e.RestoreNode(target); err != nil {
			return fmt.Sprintf("restore node%d failed: %v", target, err)
		}
		ships, err := e.Repair()
		if err != nil {
			return fmt.Sprintf("restore node%d, repair shipped %d with errors: %v", target, ships, err)
		}
		return fmt.Sprintf("restore node%d, repair shipped %d", target, ships)
	case 2: // pause
		res, err := e.pauseNodeIfSafe(target)
		switch {
		case err != nil:
			return fmt.Sprintf("pause node%d failed: %v", target, err)
		case res == disableRedundant:
			return fmt.Sprintf("pause node%d refused: not up", target)
		case res == disableUnsafe:
			return fmt.Sprintf("pause node%d refused: would lose quorum", target)
		}
		return fmt.Sprintf("pause node%d", target)
	case 3: // unpause
		if e.nodes[target].state.Load() != nodePaused {
			return fmt.Sprintf("unpause node%d refused: not paused", target)
		}
		if err := e.UnpauseNode(target); err != nil {
			return fmt.Sprintf("unpause node%d failed: %v", target, err)
		}
		return fmt.Sprintf("unpause node%d", target)
	case 4: // asymmetric partition: sever coordinator -> target
		res, err := e.severCoordLinkIfSafe(target)
		switch {
		case err != nil:
			return fmt.Sprintf("partition node%d failed: %v", target, err)
		case res == disableRedundant:
			return fmt.Sprintf("partition node%d refused: already severed", target)
		case res == disableUnsafe:
			return fmt.Sprintf("partition node%d refused: would lose quorum", target)
		}
		return fmt.Sprintf("partition coordinator->node%d", target)
	case 5: // heal all links
		if err := e.HealLinks(); err != nil {
			return fmt.Sprintf("heal links failed: %v", err)
		}
		return "heal all links"
	case 6: // slow
		if e.nodes[target].state.Load() == nodeDown {
			return fmt.Sprintf("slow node%d refused: down", target)
		}
		d := time.Duration(c.rng.Int63n(int64(c.cfg.MaxSlow)))
		if err := e.SlowNode(target, d); err != nil {
			return fmt.Sprintf("slow node%d failed: %v", target, err)
		}
		return fmt.Sprintf("slow node%d by %v", target, d)
	case 7: // unslow
		if e.nodes[target].state.Load() == nodeDown {
			return fmt.Sprintf("unslow node%d refused: down", target)
		}
		if err := e.SlowNode(target, 0); err != nil {
			return fmt.Sprintf("unslow node%d failed: %v", target, err)
		}
		return fmt.Sprintf("unslow node%d", target)
	}
	return "unreachable"
}
