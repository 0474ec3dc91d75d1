package exp

import (
	"context"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"time"

	"pimmine/internal/serve"
	"pimmine/internal/vec"
	"pimmine/internal/wal"
)

func init() {
	register("ext-durable", ExtDurable)
}

// ExtDurable measures the crash-recovery cost of the durable mutable
// engine: an insert/update/delete workload runs against a WAL-backed
// engine and, after every mutation burst, a recovery probe rebuilds a
// second engine from the directory (snapshot + replay) as a crash at
// that instant would. The table reports replay time against log length
// (records since the last checkpoint, on-disk segment bytes) and the
// savings a mid-sweep Checkpoint buys by truncating the log. Every
// probe is verified two ways: its answers are exact against a
// canonical scan over its own materialized rows, and bit-identical to
// the never-crashed engine's answers — the recovery invariant the
// crash/recover goldens pin per record.
func ExtDurable(s *Suite) (*Table, error) {
	t := &Table{
		ID:    "ext-durable",
		Title: "Durable engine crash recovery (MSD, WAL + snapshot, k=10)",
		Header: []string{"Phase", "Live rows", "WAL records", "WAL KiB",
			"Replay ms", "Wall µs/query", "Checkpoint ms"},
	}
	const k = 10
	w, err := s.knnWorkloadFor("MSD")
	if err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp("", "pimbench-durable-*")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)

	opts := serve.MutableOptions{
		Options: serve.Options{Shards: 4, Workers: 2, Obs: s.Obs},
		Durability: serve.Durability{
			Dir: dir,
			// Small segments so rotation and checkpoint truncation are
			// visible within a laptop-scale sweep.
			SegmentBytes: 64 << 10,
		},
	}
	eng, err := serve.NewMutable(w.data, opts)
	if err != nil {
		return nil, err
	}
	defer eng.Close()

	rng := rand.New(rand.NewSource(s.Seed + 99))
	live := make([]int, w.data.N)
	for i := range live {
		live[i] = i
	}
	randVec := func() []float64 {
		// Mutations stay inside the dataset's normalized [0,1] domain.
		v := make([]float64, w.data.D)
		for i := range v {
			v[i] = rng.Float64()
		}
		return v
	}
	mutate := func(ops int) error {
		for i := 0; i < ops; i++ {
			switch r := rng.Intn(4); {
			case r < 2 || len(live) < 2:
				id, err := eng.Insert(randVec())
				if err != nil {
					return err
				}
				live = append(live, id)
			case r == 2:
				j := rng.Intn(len(live))
				if err := eng.Delete(live[j]); err != nil {
					return err
				}
				live[j] = live[len(live)-1]
				live = live[:len(live)-1]
			default:
				if err := eng.Update(live[rng.Intn(len(live))], randVec()); err != nil {
					return err
				}
			}
		}
		return nil
	}

	// logState reads the directory as a recovery would see it: records
	// past the latest checkpoint and on-disk segment bytes.
	logState := func() (records int, bytes int64, err error) {
		snap, err := wal.LatestSnapshot(dir)
		if err != nil {
			return 0, 0, err
		}
		err = wal.Replay(dir, snap.LSN, func(int64, wal.Record) error {
			records++
			return nil
		})
		if err != nil {
			return 0, 0, err
		}
		segs, err := filepath.Glob(filepath.Join(dir, "wal-*.seg"))
		if err != nil {
			return 0, 0, err
		}
		for _, seg := range segs {
			fi, err := os.Stat(seg)
			if err != nil {
				return 0, 0, err
			}
			bytes += fi.Size()
		}
		return records, bytes, nil
	}

	queries := w.queries
	// verify pins a result set exact against a canonical scan over an
	// engine's materialized live rows.
	verify := func(phase string, e *serve.MutableEngine, got [][]vec.Neighbor) error {
		final, ids := e.Materialize()
		for qi := 0; qi < queries.N; qi++ {
			top := vec.NewTopK(k)
			for i := 0; i < final.N; i++ {
				var d float64
				for c := 0; c < final.D; c++ {
					x := final.Row(i)[c] - queries.Row(qi)[c]
					d += x * x
				}
				top.Push(ids[i], d)
			}
			want := top.Results()
			for i := range want {
				if got[qi][i] != want[i] {
					return fmt.Errorf("ext-durable: %s query %d inexact: got %+v want %+v",
						phase, qi, got[qi][i], want[i])
				}
			}
		}
		return nil
	}

	ops := w.data.N / 16
	if ops < 2 {
		ops = 2
	}
	const phases = 8
	ckptAfter := phases / 2
	var preRecords, postRecords int
	var preBytes, postBytes int64
	for phase := 1; phase <= phases; phase++ {
		if err := mutate(ops); err != nil {
			return nil, err
		}
		// With SyncAlways every applied mutation is already durable, so
		// a crash right now loses nothing; the probe replays the full
		// suffix past the last checkpoint.
		records, bytes, err := logState()
		if err != nil {
			return nil, err
		}
		probeOpts := opts
		probeOpts.Obs = nil // probes must not pollute the live engine's metrics
		rStart := time.Now()
		probe, err := serve.RecoverMutable(probeOpts)
		if err != nil {
			return nil, fmt.Errorf("ext-durable: phase %d recover: %w", phase, err)
		}
		replayMs := time.Since(rStart).Seconds() * 1e3

		qStart := time.Now()
		res, err := probe.SearchBatch(context.Background(), queries, k)
		if err != nil {
			probe.Close()
			return nil, err
		}
		wallPerQ := time.Since(qStart).Seconds() * 1e6 / float64(queries.N)
		if err := verify(fmt.Sprintf("phase %d probe", phase), probe, res.Neighbors()); err != nil {
			probe.Close()
			return nil, err
		}
		liveRes, err := eng.SearchBatch(context.Background(), queries, k)
		if err != nil {
			probe.Close()
			return nil, err
		}
		for qi := 0; qi < queries.N; qi++ {
			got, want := res.Neighbors()[qi], liveRes.Neighbors()[qi]
			for i := range want {
				if got[i] != want[i] {
					probe.Close()
					return nil, fmt.Errorf("ext-durable: phase %d recovered answer diverges from live engine at query %d rank %d: got %+v want %+v",
						phase, qi, i, got[i], want[i])
				}
			}
		}
		if err := probe.Close(); err != nil {
			return nil, err
		}

		// Mid-sweep checkpoint: snapshot the state, truncate the log,
		// and report what the next crash no longer has to replay.
		ckpt := "-"
		if phase == ckptAfter {
			preRecords, preBytes = records, bytes
			cStart := time.Now()
			if err := eng.Checkpoint(); err != nil {
				return nil, fmt.Errorf("ext-durable: checkpoint: %w", err)
			}
			ckpt = fmt.Sprintf("%.2f", time.Since(cStart).Seconds()*1e3)
			postRecords, postBytes, err = logState()
			if err != nil {
				return nil, err
			}
		}

		t.AddRow(
			fmt.Sprintf("%d", phase),
			fmt.Sprintf("%d", len(live)),
			fmt.Sprintf("%d", records),
			fmt.Sprintf("%.1f", float64(bytes)/1024),
			fmt.Sprintf("%.2f", replayMs),
			fmt.Sprintf("%.0f", wallPerQ),
			ckpt,
		)
	}
	t.Note("every phase applies %d mutations (50%% insert / 25%% update / 25%% delete) under SyncAlways, then a recovery probe rebuilds the engine from snapshot+WAL; probe answers are verified exact against a canonical scan and bit-identical to the live engine's; the phase-%d checkpoint truncated the log from %d records / %.1f KiB to %d records / %.1f KiB",
		ops, ckptAfter, preRecords, float64(preBytes)/1024, postRecords, float64(postBytes)/1024)
	return t, nil
}
