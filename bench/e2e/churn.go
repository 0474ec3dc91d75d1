package main

import (
	"fmt"
	"math"
	"math/rand"
	"os"
	"strings"
	"time"

	"pimmine/internal/serve"
	"pimmine/internal/vec"
	"pimmine/internal/wal"
)

// model is the benchmark's own copy of what churn-durable's engine must
// hold: every live id and its vector. The writer applies each
// acknowledged mutation here too; with the writer quiesced the engine
// must equal it bit for bit, and so must the engine recovered from the
// WAL after the run.
type model struct {
	rng  *rand.Rand
	vecs map[int][]float64
	live []int       // ids in arbitrary order, for O(1) random picks
	pos  map[int]int // id → index in live
	// next walks the pool of write vectors.
	pool *vec.Matrix
	next int
	// userBytes is the vector payload acknowledged so far.
	userBytes int64
}

func newModel(in *inputs, seed int64) *model {
	m := &model{rng: rand.New(rand.NewSource(seed)), vecs: make(map[int][]float64, in.x.N),
		pos: make(map[int]int, in.x.N), pool: in.writeVecs}
	for id := 0; id < in.x.N; id++ {
		m.put(id, in.x.Row(id))
	}
	return m
}

func (m *model) put(id int, v []float64) {
	if _, ok := m.vecs[id]; !ok {
		m.pos[id] = len(m.live)
		m.live = append(m.live, id)
	}
	m.vecs[id] = v
}

func (m *model) drop(id int) {
	i := m.pos[id]
	last := m.live[len(m.live)-1]
	m.live[i] = last
	m.pos[last] = i
	m.live = m.live[:len(m.live)-1]
	delete(m.pos, id)
	delete(m.vecs, id)
}

func (m *model) vector() []float64 {
	v := m.pool.Row(m.next % m.pool.N)
	m.next++
	return v
}

// write issues the next mutation of the seeded mix — 50 % insert, 25 %
// update, 25 % delete — and mirrors it into the model once acknowledged.
func (m *model) write(eng *serve.MutableEngine) error {
	switch r := m.rng.Intn(4); {
	case r < 2:
		v := m.vector()
		id, err := eng.Insert(v)
		if err != nil {
			return err
		}
		m.put(id, v)
		m.userBytes += int64(8 * len(v))
	case r == 2:
		id, v := m.live[m.rng.Intn(len(m.live))], m.vector()
		if err := eng.Update(id, v); err != nil {
			return err
		}
		m.put(id, v)
		m.userBytes += int64(8 * len(v))
	default:
		id := m.live[m.rng.Intn(len(m.live))]
		if err := eng.Delete(id); err != nil {
			return err
		}
		m.drop(id)
	}
	return nil
}

// writerStats is one window of the open-loop writer.
type writerStats struct {
	attempted, failed int
	firstErr          error
	// latency is acknowledgement minus due time: a stalled engine makes
	// every later write late, and that wait counts.
	latency []time.Duration
	// late is issue minus due time: how far the generator itself ran
	// behind its schedule.
	late []time.Duration
	// service is acknowledgement minus issue: the engine call alone.
	service []time.Duration
}

// runWriter issues writes on a fixed schedule — write i is due at
// start + i/rate — until dur has passed. It never skips a due write, so
// after a stall it catches up back to back.
func (m *model) runWriter(eng *serve.MutableEngine, start time.Time, dur time.Duration) writerStats {
	var ws writerStats
	interval := time.Second / writeRate
	for i := 0; ; i++ {
		due := start.Add(time.Duration(i) * interval)
		if due.Sub(start) >= dur {
			return ws
		}
		time.Sleep(time.Until(due))
		issued := time.Now()
		err := m.write(eng)
		acked := time.Now()
		ws.attempted++
		ws.late = append(ws.late, issued.Sub(due))
		if err != nil {
			ws.failed++
			if ws.firstErr == nil {
				ws.firstErr = err
			}
			continue
		}
		ws.latency = append(ws.latency, acked.Sub(due))
		ws.service = append(ws.service, acked.Sub(issued))
	}
}

// equalLive checks a materialized live set against the model: same ids
// in ascending order, same vector bits.
func (m *model) equalLive(got *vec.Matrix, ids []int) error {
	if len(ids) != len(m.live) {
		return fmt.Errorf("engine holds %d live rows, model %d", len(ids), len(m.live))
	}
	for row, id := range ids {
		if row > 0 && ids[row-1] >= id {
			return fmt.Errorf("ids not ascending at row %d", row)
		}
		want, ok := m.vecs[id]
		if !ok {
			return fmt.Errorf("engine holds id %d, model does not", id)
		}
		for j, x := range got.Row(row) {
			if math.Float64bits(x) != math.Float64bits(want[j]) {
				return fmt.Errorf("id %d dim %d: engine %v, model %v", id, j, x, want[j])
			}
		}
	}
	return nil
}

// verifyQuiesced runs with the writer stopped: the engine's live set
// must equal the model, and n pool queries (from first, wrapping) asked
// over the wire must equal a brute-force scan of the model. It returns
// queries attempted and failed.
func (st *stack) verifyQuiesced(m *model, c *conn, first, n int) (attempted, failed int, err error) {
	live, ids := st.mutable.Materialize()
	if err := m.equalLive(live, ids); err != nil {
		return 1, 1, err
	}
	qs := vec.NewMatrix(n, st.in.pool.D)
	for i := 0; i < n; i++ {
		copy(qs.Row(i), st.in.pool.Row((first+i)%poolSize))
	}
	want := bruteForce(live, qs, topK)
	for i := range want {
		for j := range want[i] {
			want[i][j].Index = ids[want[i][j].Index]
		}
	}
	check := exactly(want)
	for i := 0; i < n; i++ {
		attempted++
		reply, perr := c.post(st.path(), st.in.bodies[(first+i)%poolSize])
		if perr == nil {
			_, perr = verify(st.in, i, reply, check)
		}
		if perr != nil {
			failed++
			if err == nil {
				err = perr
			}
		}
	}
	return attempted, failed, err
}

// recoverAndCheck restarts from the WAL directory alone: the recovered
// live set must equal the model, i.e. every acknowledged write survived.
// It returns the recovery time and the number of log records replayed.
func (st *stack) recoverAndCheck(m *model) (recoverS float64, replayed int, err error) {
	opts := st.mopts
	opts.Durability.Fsync = nil
	t0 := time.Now()
	eng, err := serve.RecoverMutable(opts)
	if err != nil {
		return 0, 0, fmt.Errorf("recover: %w", err)
	}
	recoverS = time.Since(t0).Seconds()
	defer eng.Close()
	live, ids := eng.Materialize()
	if err := m.equalLive(live, ids); err != nil {
		return recoverS, 0, fmt.Errorf("recovered engine differs from model: %w", err)
	}
	err = wal.Replay(opts.Durability.Dir, 0, func(int64, wal.Record) error { replayed++; return nil })
	return recoverS, replayed, err
}

// walBytes is the size of every log segment in the WAL directory.
func walBytes(dir string) (int64, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return 0, err
	}
	var total int64
	for _, e := range ents {
		if strings.HasSuffix(e.Name(), ".seg") {
			fi, err := e.Info()
			if err != nil {
				return 0, err
			}
			total += fi.Size()
		}
	}
	return total, nil
}

// deltaFill is the mean delta-buffer fill over shards, as a share of the
// compaction trigger.
func deltaFill(eng *serve.MutableEngine, maxDelta int) float64 {
	stats := eng.Stats()
	sum := 0.0
	for _, s := range stats {
		sum += float64(s.DeltaRows) / float64(maxDelta)
	}
	return sum / float64(len(stats))
}
