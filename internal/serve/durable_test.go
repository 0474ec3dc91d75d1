package serve

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"pimmine/internal/standing"
	"pimmine/internal/vec"
	"pimmine/internal/wal"
)

func durableTestData(n, d int, seed int64) *vec.Matrix {
	rng := rand.New(rand.NewSource(seed))
	m := vec.NewMatrix(n, d)
	for i := range m.Data {
		m.Data[i] = rng.Float64()
	}
	return m
}

// churn runs a deterministic mutation script against a mutable engine,
// returning the ids it inserted.
func churn(t *testing.T, e *MutableEngine, seed int64, ops int) []int {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	var inserted []int
	live := map[int]bool{}
	_, liveIDs := e.Materialize()
	for _, id := range liveIDs {
		live[id] = true
	}
	pick := func() int {
		ids := make([]int, 0, len(live))
		for id := range live {
			ids = append(ids, id)
		}
		for i := 1; i < len(ids); i++ {
			for j := i; j > 0 && ids[j] < ids[j-1]; j-- {
				ids[j], ids[j-1] = ids[j-1], ids[j]
			}
		}
		return ids[rng.Intn(len(ids))]
	}
	rv := func() []float64 {
		v := make([]float64, e.Dims())
		for i := range v {
			v[i] = rng.Float64()
		}
		return v
	}
	for op := 0; op < ops; op++ {
		switch r := rng.Intn(4); {
		case r < 2 || len(live) == 0:
			id, err := e.Insert(rv())
			if err != nil {
				t.Fatal(err)
			}
			live[id] = true
			inserted = append(inserted, id)
		case r == 2:
			id := pick()
			if err := e.Delete(id); err != nil {
				t.Fatal(err)
			}
			delete(live, id)
		default:
			if err := e.Update(pick(), rv()); err != nil {
				t.Fatal(err)
			}
		}
	}
	return inserted
}

// transcript captures a batch of search answers for bit-exact
// comparison.
func transcript(t *testing.T, e *MutableEngine, seed int64, nq, k int) [][]vec.Neighbor {
	t.Helper()
	queries := durableTestData(nq, e.Dims(), seed)
	res, err := e.SearchBatch(context.Background(), queries, k)
	if err != nil {
		t.Fatal(err)
	}
	out := make([][]vec.Neighbor, queries.N)
	for i, r := range res.Results {
		out[i] = r.Neighbors
	}
	return out
}

func requireSameTranscript(t *testing.T, phase string, got, want [][]vec.Neighbor) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d answers, want %d", phase, len(got), len(want))
	}
	for qi := range want {
		if len(got[qi]) != len(want[qi]) {
			t.Fatalf("%s: query %d: %d neighbors, want %d", phase, qi, len(got[qi]), len(want[qi]))
		}
		for j := range want[qi] {
			g, w := got[qi][j], want[qi][j]
			if g.Index != w.Index || math.Float64bits(g.Dist) != math.Float64bits(w.Dist) {
				t.Fatalf("%s: query %d neighbor %d = %+v, want %+v", phase, qi, j, g, w)
			}
		}
	}
}

// TestDurableCrashRecoverByteIdentical is the serve-level acceptance
// property: abandon a durable engine without Close (a crash), recover
// from its directory, and require byte-identical search transcripts —
// through churn, a checkpoint, more churn, and a second crash.
func TestDurableCrashRecoverByteIdentical(t *testing.T) {
	t.Parallel()
	dir := t.TempDir()
	data := durableTestData(90, 6, 1)
	opts := MutableOptions{
		Options:    Options{Shards: 3, Workers: 2},
		MaxDelta:   1 << 20,
		Durability: Durability{Dir: dir},
	}
	e, err := NewMutable(data, opts)
	if err != nil {
		t.Fatal(err)
	}
	churn(t, e, 2, 120)
	want := transcript(t, e, 3, 16, 5)
	wantRows := e.Rows()
	// Crash: no Close, no flush beyond SyncAlways's per-record fsync.

	r1, err := RecoverMutable(opts)
	if err != nil {
		t.Fatal(err)
	}
	if r1.Rows() != wantRows {
		t.Fatalf("recovered %d rows, want %d", r1.Rows(), wantRows)
	}
	requireSameTranscript(t, "after first crash", transcript(t, r1, 3, 16, 5), want)

	// The recovered engine must continue the id/shard sequence exactly:
	// more churn, a checkpoint (snapshot + log truncation), more churn,
	// then a second crash and recovery.
	churn(t, r1, 4, 60)
	if err := r1.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	churn(t, r1, 5, 60)
	want2 := transcript(t, r1, 6, 16, 5)
	rows2 := r1.Rows()

	r2, err := RecoverMutable(opts)
	if err != nil {
		t.Fatal(err)
	}
	defer r2.Close()
	if r2.Rows() != rows2 {
		t.Fatalf("second recovery %d rows, want %d", r2.Rows(), rows2)
	}
	requireSameTranscript(t, "after second crash", transcript(t, r2, 6, 16, 5), want2)

	// And the recovered engine keeps mutating + compacting normally.
	churn(t, r2, 7, 30)
	if err := r2.Compact(nil); err != nil {
		t.Fatal(err)
	}
}

// TestDurableRecoveredContinuesIdentically drives the same post-crash
// mutation script through the surviving original and the recovered
// engine: ids, shard placement and transcripts must stay in lockstep.
func TestDurableRecoveredContinuesIdentically(t *testing.T) {
	t.Parallel()
	dir := t.TempDir()
	data := durableTestData(40, 5, 10)
	opts := MutableOptions{
		Options:    Options{Shards: 2, Workers: 2},
		MaxDelta:   1 << 20,
		Durability: Durability{Dir: dir},
	}
	orig, err := NewMutable(data, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer orig.Close()
	churn(t, orig, 11, 50)

	rec, err := RecoverMutable(opts)
	if err != nil {
		t.Fatal(err)
	}
	// Recovery leaves the shared directory; further durable appends from
	// two engines would interleave, so continue the recovered engine
	// non-durably... not possible — instead just compare the next ids.
	idsA := churn(t, orig, 12, 40)
	defer rec.Close()

	// The recovered engine must assign the same fresh ids as the
	// original would (nextID and round-robin cursor survived the crash).
	// Note rec's churn writes to the same WAL dir orig already extended;
	// that is fine here because neither engine recovers again.
	idsB := churn(t, rec, 12, 40)
	if len(idsA) != len(idsB) {
		t.Fatalf("id streams diverge in length: %d vs %d", len(idsA), len(idsB))
	}
	for i := range idsA {
		if idsA[i] != idsB[i] {
			t.Fatalf("fresh id %d: original %d, recovered %d", i, idsA[i], idsB[i])
		}
	}
	requireSameTranscript(t, "post-crash lockstep",
		transcript(t, rec, 13, 12, 4), transcript(t, orig, 13, 12, 4))
}

// TestDurableEmptyShardRecovery deletes every row of a small engine
// (leaving some shards empty at checkpoint time) and recovers through
// the tombstoned-placeholder path.
func TestDurableEmptyShardRecovery(t *testing.T) {
	t.Parallel()
	dir := t.TempDir()
	data := durableTestData(6, 4, 20)
	opts := MutableOptions{
		Options:    Options{Shards: 3, Workers: 1},
		MaxDelta:   1 << 20,
		Durability: Durability{Dir: dir},
	}
	e, err := NewMutable(data, opts)
	if err != nil {
		t.Fatal(err)
	}
	for id := 0; id < 6; id++ {
		if err := e.Delete(id); err != nil {
			t.Fatal(err)
		}
	}
	if err := e.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	r, err := RecoverMutable(opts)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if r.Rows() != 0 {
		t.Fatalf("recovered %d rows, want 0", r.Rows())
	}
	// The placeholder must be invisible: a search over the empty engine
	// returns no neighbors, and inserts repopulate normally.
	res, err := r.Search(context.Background(), []float64{0, 0, 0, 0}, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Neighbors) != 0 {
		t.Fatalf("empty engine answered %v", res.Neighbors)
	}
	id, err := r.Insert([]float64{0.1, 0.2, 0.3, 0.4})
	if err != nil {
		t.Fatal(err)
	}
	if id != 6 {
		t.Fatalf("post-recovery insert id = %d, want 6 (watermark survived)", id)
	}
	res, err = r.Search(context.Background(), []float64{0.1, 0.2, 0.3, 0.4}, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Neighbors) != 1 || res.Neighbors[0].Index != 6 {
		t.Fatalf("search after repopulating = %v", res.Neighbors)
	}
	// Round-robin the remaining shards back to life, then compact —
	// which also discards the restore placeholders.
	for i := 0; i < 2; i++ {
		if _, err := r.Insert([]float64{0.5, 0.5, 0.5, 0.5}); err != nil {
			t.Fatal(err)
		}
	}
	if err := r.Compact(nil); err != nil {
		t.Fatal(err)
	}
}

// TestDurableCheckpointTruncatesLog verifies a checkpoint actually
// shrinks the on-disk log and drops superseded snapshots.
func TestDurableCheckpointTruncatesLog(t *testing.T) {
	t.Parallel()
	dir := t.TempDir()
	data := durableTestData(30, 4, 30)
	opts := MutableOptions{
		Options:    Options{Shards: 2, Workers: 1},
		MaxDelta:   1 << 20,
		Durability: Durability{Dir: dir, SegmentBytes: 1 << 10},
	}
	e, err := NewMutable(data, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	churn(t, e, 31, 200)
	segs := func() int {
		m, _ := filepath.Glob(filepath.Join(dir, "wal-*.seg"))
		return len(m)
	}
	snaps := func() int {
		m, _ := filepath.Glob(filepath.Join(dir, "snap-*.pimsnap"))
		return len(m)
	}
	before := segs()
	if before < 3 {
		t.Fatalf("churn produced only %d segments; rotation not exercised", before)
	}
	if err := e.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if after := segs(); after >= before {
		t.Fatalf("checkpoint left %d segments (was %d)", after, before)
	}
	if n := snaps(); n != 1 {
		t.Fatalf("%d snapshots on disk after checkpoint, want 1", n)
	}
	r, err := RecoverMutable(opts)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	requireSameTranscript(t, "post-truncation recovery",
		transcript(t, r, 32, 10, 4), transcript(t, e, 32, 10, 4))
}

// TestDurableTornTailRecovery appends a partial record to the active
// segment (a crash mid-append) and requires recovery to discard exactly
// the torn suffix.
func TestDurableTornTailRecovery(t *testing.T) {
	t.Parallel()
	dir := t.TempDir()
	data := durableTestData(20, 4, 40)
	opts := MutableOptions{
		Options:    Options{Shards: 2, Workers: 1},
		MaxDelta:   1 << 20,
		Durability: Durability{Dir: dir},
	}
	e, err := NewMutable(data, opts)
	if err != nil {
		t.Fatal(err)
	}
	churn(t, e, 41, 40)
	want := transcript(t, e, 42, 8, 3)
	// Tear the tail: append half a record's worth of garbage to the
	// newest segment.
	m, err := filepath.Glob(filepath.Join(dir, "wal-*.seg"))
	if err != nil || len(m) == 0 {
		t.Fatalf("no segments: %v", err)
	}
	newest := m[len(m)-1]
	f, err := os.OpenFile(newest, os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte{0x2a, 0x00, 0x00, 0x00, 0xde, 0xad}); err != nil {
		t.Fatal(err)
	}
	f.Close()
	r, err := RecoverMutable(opts)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	requireSameTranscript(t, "torn tail", transcript(t, r, 42, 8, 3), want)
}

// TestDurableDirectoryDiscipline covers the constructor/recovery
// sentinels: a fresh NewMutable refuses a directory holding state, and
// RecoverMutable refuses an empty or unconfigured one.
func TestDurableDirectoryDiscipline(t *testing.T) {
	t.Parallel()
	dir := t.TempDir()
	data := durableTestData(10, 3, 50)
	opts := MutableOptions{
		Options:    Options{Shards: 2, Workers: 1},
		Durability: Durability{Dir: dir},
	}
	e, err := NewMutable(data, opts)
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := NewMutable(data, opts); !errors.Is(err, ErrDurableState) {
		t.Fatalf("NewMutable over existing state = %v, want ErrDurableState", err)
	}
	if _, err := RecoverMutable(MutableOptions{Durability: Durability{Dir: t.TempDir()}}); !errors.Is(err, ErrNoDurableState) {
		t.Fatalf("RecoverMutable over empty dir = %v, want ErrNoDurableState", err)
	}
	if _, err := RecoverMutable(MutableOptions{}); !errors.Is(err, ErrNotDurable) {
		t.Fatalf("RecoverMutable without Dir = %v, want ErrNotDurable", err)
	}
	nd, err := NewMutable(durableTestData(10, 3, 51), MutableOptions{Options: Options{Shards: 2}})
	if err != nil {
		t.Fatal(err)
	}
	if err := nd.Checkpoint(); !errors.Is(err, ErrNotDurable) {
		t.Fatalf("Checkpoint on non-durable engine = %v, want ErrNotDurable", err)
	}
	nd.Close()
}

// TestDurableCloseFlushRegression is the shutdown fix's regression: a
// durable engine whose final flush fails must surface that error from
// the first Close, and every later Close must report ErrClosed — it is
// shut down, not retryable.
func TestDurableCloseFlushRegression(t *testing.T) {
	t.Parallel()
	failing := errors.New("injected fsync failure")
	dir := t.TempDir()
	armed := false
	opts := MutableOptions{
		Options: Options{Shards: 2, Workers: 1},
		Durability: Durability{
			Dir:    dir,
			Policy: wal.SyncNever, // appends buffer; Close owes the flush
			Fsync: func(f *os.File) error {
				if armed {
					return failing
				}
				return f.Sync()
			},
		},
	}
	e, err := NewMutable(durableTestData(12, 3, 60), opts)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.Insert([]float64{0.1, 0.2, 0.3}); err != nil {
		t.Fatal(err)
	}
	armed = true
	if err := e.Close(); !errors.Is(err, failing) {
		t.Fatalf("first Close = %v, want the injected fsync failure", err)
	}
	for i := 0; i < 2; i++ {
		if err := e.Close(); !errors.Is(err, ErrClosed) {
			t.Fatalf("Close #%d after failed flush = %v, want ErrClosed", i+2, err)
		}
	}
	// Every mutation before the failed flush was still applied and
	// logged; with the fault cleared, recovery replays them.
	armed = false
	r, err := RecoverMutable(opts)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if r.Rows() != 13 {
		t.Fatalf("recovered %d rows, want 13", r.Rows())
	}
}

// TestDurableCleanCloseFsyncs verifies the healthy path: Close on a
// SyncNever engine fsyncs the buffered tail, so recovery sees every
// acknowledged mutation.
func TestDurableCleanCloseFsyncs(t *testing.T) {
	t.Parallel()
	dir := t.TempDir()
	syncs := 0
	opts := MutableOptions{
		Options: Options{Shards: 2, Workers: 1},
		Durability: Durability{
			Dir:    dir,
			Policy: wal.SyncNever,
			Fsync: func(f *os.File) error {
				syncs++
				return f.Sync()
			},
		},
	}
	e, err := NewMutable(durableTestData(8, 3, 70), opts)
	if err != nil {
		t.Fatal(err)
	}
	pre := syncs
	churn(t, e, 71, 20)
	if syncs != pre {
		t.Fatalf("SyncNever fsynced %d times during churn", syncs-pre)
	}
	want := transcript(t, e, 72, 6, 3)
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	if syncs == pre {
		t.Fatal("Close did not fsync the buffered log tail")
	}
	r, err := RecoverMutable(opts)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	requireSameTranscript(t, "after clean close", transcript(t, r, 72, 6, 3), want)
}

// TestMutableStandingSubscription exercises the engine-level standing
// tier: a kNN subscription's maintained view must match a one-shot
// Search bit-for-bit after every mutation, and radius watches fire on
// qualifying inserts.
func TestMutableStandingSubscription(t *testing.T) {
	t.Parallel()
	data := durableTestData(40, 4, 80)
	e, err := NewMutable(data, MutableOptions{
		Options:        Options{Shards: 2, Workers: 2},
		MaxDelta:       1 << 20,
		StandingBuffer: 512,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	q := []float64{0.5, 0.5, 0.5, 0.5}
	sub, err := e.SubscribeKNN(q, 5)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.SubscribeKNN([]float64{1}, 5); !errors.Is(err, standing.ErrBadSubscription) {
		t.Fatalf("dimension mismatch = %v, want ErrBadSubscription", err)
	}
	init := <-sub.Events()
	if init.Kind != standing.KindInit {
		t.Fatalf("first event kind = %v", init.Kind)
	}
	// Inserting the query itself must change the view, and the update
	// names that insert as its trigger, at distance 0.
	self, err := e.Insert(q)
	if err != nil {
		t.Fatal(err)
	}
	if ev := <-sub.Events(); ev.Kind != standing.KindUpdate || ev.Trigger != self || ev.Dist != 0 {
		t.Fatalf("self-insert event = %+v, want an update triggered by %d at distance 0", ev, self)
	}
	rng := rand.New(rand.NewSource(81))
	for op := 0; op < 60; op++ {
		v := make([]float64, 4)
		for i := range v {
			v[i] = rng.Float64()
		}
		switch rng.Intn(3) {
		case 0:
			if _, err := e.Insert(v); err != nil {
				t.Fatal(err)
			}
		case 1:
			if err := e.Update(rng.Intn(40), v); err != nil {
				t.Fatal(err)
			}
		default:
			// Deletes against already-removed ids are fine to skip.
			if err := e.Delete(40 + rng.Intn(op+1)); err != nil {
				continue
			}
		}
		want, err := e.Search(context.Background(), q, 5)
		if err != nil {
			t.Fatal(err)
		}
		got := e.StandingView(sub.ID())
		if len(got) != len(want.Neighbors) {
			t.Fatalf("op %d: view has %d neighbors, one-shot %d", op, len(got), len(want.Neighbors))
		}
		for j := range got {
			if got[j].Index != want.Neighbors[j].Index ||
				math.Float64bits(got[j].Dist) != math.Float64bits(want.Neighbors[j].Dist) {
				t.Fatalf("op %d neighbor %d: view %+v, one-shot %+v", op, j, got[j], want.Neighbors[j])
			}
		}
	}
	e.Unsubscribe(sub.ID())
	for range sub.Events() {
	}

	rsub, err := e.SubscribeRadius(q, 0.01)
	if err != nil {
		t.Fatal(err)
	}
	id, err := e.Insert([]float64{0.5, 0.5, 0.5, 0.501})
	if err != nil {
		t.Fatal(err)
	}
	ev := <-rsub.Events()
	if ev.Kind != standing.KindMatch || ev.Trigger != id {
		t.Fatalf("radius event = %+v, want match on %d", ev, id)
	}
	e.Unsubscribe(rsub.ID())
}
