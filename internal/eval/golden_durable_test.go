package eval_test

import (
	"context"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"pimmine/internal/arch"
	"pimmine/internal/dbscan"
	"pimmine/internal/join"
	"pimmine/internal/kmeans"
	"pimmine/internal/knn"
	"pimmine/internal/motif"
	"pimmine/internal/outlier"
	"pimmine/internal/serve"
	"pimmine/internal/vec"
)

// The crash/recover differential golden layer: a scripted churn workload
// runs through a DURABLE mutable engine, the process "dies" at a record
// boundary (the engine is abandoned without Close), and the engine
// recovered from the WAL directory must render byte-identically to the
// never-crashed engine — live sets, kNN transcripts, and all six mining
// tasks, pinned to committed durable_*.golden files. A companion test
// kills at EVERY record boundary (cheap live-set + periodic transcript
// checks), and a third pins a standing subscription's notification
// sequence to one-shot re-queries at each epoch.

// mutOp is one scripted mutation. The script is the single source of
// truth: both the reference and the durable run apply it verbatim, and
// insert ids are pre-assigned (the engine allocates sequentially, which
// applyOp asserts).
type mutOp struct {
	kind int // 0 insert, 1 update, 2 delete
	id   int
	vec  []float64
}

// genDurableScript builds a deterministic churn script over a base of
// baseN rows with donor vectors for inserts and updates.
func genDurableScript(baseN int, donors *vec.Matrix, seed int64, ops int) []mutOp {
	rng := rand.New(rand.NewSource(seed))
	live := make([]int, baseN)
	for i := range live {
		live[i] = i
	}
	nextID := baseN
	donor := func() []float64 {
		return append([]float64(nil), donors.Row(rng.Intn(donors.N))...)
	}
	var script []mutOp
	for i := 0; i < ops; i++ {
		switch rng.Intn(4) {
		case 0, 1:
			script = append(script, mutOp{kind: 0, id: nextID, vec: donor()})
			live = append(live, nextID)
			nextID++
		case 2:
			script = append(script, mutOp{kind: 1, id: live[rng.Intn(len(live))], vec: donor()})
		default:
			if len(live) < 2 {
				continue
			}
			at := rng.Intn(len(live))
			id := live[at]
			live[at] = live[len(live)-1]
			live = live[:len(live)-1]
			script = append(script, mutOp{kind: 2, id: id})
		}
	}
	return script
}

func applyOp(t *testing.T, e *serve.MutableEngine, op mutOp) {
	t.Helper()
	switch op.kind {
	case 0:
		id, err := e.Insert(op.vec)
		if err != nil {
			t.Fatal(err)
		}
		if id != op.id {
			t.Fatalf("insert assigned id %d, script pre-assigned %d", id, op.id)
		}
	case 1:
		if err := e.Update(op.id, op.vec); err != nil {
			t.Fatalf("update id %d: %v", op.id, err)
		}
	default:
		if err := e.Delete(op.id); err != nil {
			t.Fatalf("delete id %d: %v", op.id, err)
		}
	}
}

// requireSameLiveSet asserts two materialized live sets are
// byte-identical: same ids in the same order, same float bits.
func requireSameLiveSet(t *testing.T, phase string, gotM *vec.Matrix, gotIDs []int, wantM *vec.Matrix, wantIDs []int) {
	t.Helper()
	if len(gotIDs) != len(wantIDs) || gotM.N != wantM.N {
		t.Fatalf("%s: recovered %d live rows, never-crashed has %d", phase, gotM.N, wantM.N)
	}
	for i := range wantIDs {
		if gotIDs[i] != wantIDs[i] {
			t.Fatalf("%s: live id[%d] = %d, want %d", phase, i, gotIDs[i], wantIDs[i])
		}
		for c := 0; c < wantM.D; c++ {
			if g, w := gotM.Row(i)[c], wantM.Row(i)[c]; g != w {
				t.Fatalf("%s: row %d (id %d) dim %d: %s != %s", phase, i, wantIDs[i], c, hexF(g), hexF(w))
			}
		}
	}
}

// renderLiveKNN renders engine searches (global ids, hex distances).
func renderLiveKNN(t *testing.T, e *serve.MutableEngine, queries *vec.Matrix, k int) string {
	t.Helper()
	var b strings.Builder
	for qi := 0; qi < queries.N; qi++ {
		res, err := e.Search(context.Background(), queries.Row(qi), k)
		if err != nil {
			t.Fatal(err)
		}
		for _, n := range res.Neighbors {
			fmt.Fprintf(&b, "q%d i=%d d=%s\n", qi, n.Index, hexF(n.Dist))
		}
	}
	return b.String()
}

// assertDurableGolden checks the recovered rendering against the
// never-crashed rendering and pins it to testdata/durable_<name>.golden.
func assertDurableGolden(t *testing.T, name, recovered, reference string) {
	t.Helper()
	if recovered != reference {
		t.Fatalf("durable_%s: recovered engine diverges from the never-crashed engine\n%s",
			name, firstDiff(reference, recovered))
	}
	path := filepath.Join("testdata", "durable_"+name+".golden")
	if *update {
		if err := os.WriteFile(path, []byte(recovered), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("durable_%s: missing golden file (regenerate with -update): %v", name, err)
	}
	if string(want) != recovered {
		t.Fatalf("durable_%s: output drifted from committed golden file\n%s", name, firstDiff(string(want), recovered))
	}
}

func durableOpts(dir string, shards int) serve.MutableOptions {
	return serve.MutableOptions{
		Options:    serve.Options{Shards: shards, Workers: 2},
		Durability: serve.Durability{Dir: dir},
	}
}

// TestGoldenDurableKillEveryRecord kills at EVERY record boundary: after
// each applied mutation the directory is recovered into an independent
// engine whose live set must be byte-identical to the still-running
// original, with a periodic live-kNN transcript check. A mid-script
// checkpoint and compaction prove recovery composes with snapshot
// truncation and epoch folding.
func TestGoldenDurableKillEveryRecord(t *testing.T) {
	ds := goldenDataset(t, 120, 8, 4, 0.2)
	donors := donorDataset(t, 80, 8, 4, 0.2)
	script := genDurableScript(ds.X.N, donors.X, 201, 80)
	dir := t.TempDir()
	opts := durableOpts(dir, 3)
	e, err := serve.NewMutable(ds.X.Clone(), opts)
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	queries := ds.Queries(2, 51)
	for i, op := range script {
		if i == len(script)/4 {
			if err := e.Compact(nil); err != nil {
				t.Fatal(err)
			}
		}
		if i == len(script)/2 {
			if err := e.Checkpoint(); err != nil {
				t.Fatal(err)
			}
		}
		applyOp(t, e, op)
		// The WAL now ends exactly at this record: recover as if the
		// process died here.
		r, err := serve.RecoverMutable(opts)
		if err != nil {
			t.Fatalf("kill at record %d: %v", i+1, err)
		}
		gm, gids := r.Materialize()
		wm, wids := e.Materialize()
		requireSameLiveSet(t, fmt.Sprintf("kill at record %d", i+1), gm, gids, wm, wids)
		if i%7 == 0 {
			if got, want := renderLiveKNN(t, r, queries, 5), renderLiveKNN(t, e, queries, 5); got != want {
				t.Fatalf("kill at record %d: recovered kNN transcript diverges\n%s", i+1, firstDiff(want, got))
			}
		}
		if err := r.Close(); err != nil {
			t.Fatalf("kill at record %d: closing recovered engine: %v", i+1, err)
		}
	}
}

// TestGoldenDurableTasks is the six-task differential at a fixed kill
// point: churn (with a checkpoint and a compaction in flight) dies at a
// record boundary, and the recovered engine's kNN transcript plus the
// five remaining mining tasks over its materialized live set must match
// the never-crashed engine bit for bit — and the committed goldens.
func TestGoldenDurableTasks(t *testing.T) {
	ds := goldenDataset(t, 320, 24, 5, 0.15)
	donors := donorDataset(t, 150, 24, 5, 0.15)
	script := genDurableScript(ds.X.N, donors.X, 202, 160)
	dir := t.TempDir()
	opts := durableOpts(dir, 3)
	e, err := serve.NewMutable(ds.X.Clone(), opts)
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	killAt := len(script) * 2 / 3
	for i, op := range script[:killAt] {
		if i == killAt/3 {
			if err := e.Checkpoint(); err != nil {
				t.Fatal(err)
			}
		}
		if i == killAt/2 {
			if err := e.Compact(nil); err != nil {
				t.Fatal(err)
			}
		}
		applyOp(t, e, op)
	}
	// Crash: abandon e mid-life (it stays up as the never-crashed
	// reference), recover the directory into an independent engine.
	r, err := serve.RecoverMutable(opts)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()

	wantMat, wantIDs := e.Materialize()
	mat, ids := r.Materialize()
	requireSameLiveSet(t, "fixed kill point", mat, ids, wantMat, wantIDs)

	// kNN live through the recovered shard stores — the strongest check,
	// and cross-pinned against a fresh searcher over the reference data.
	queries := ds.Queries(5, 43)
	const k = 10
	liveOut := renderLiveKNN(t, r, queries, k)
	var fresh strings.Builder
	fs := knn.NewStandard(wantMat)
	for qi := 0; qi < queries.N; qi++ {
		for _, n := range fs.Search(queries.Row(qi), k, arch.NewMeter()) {
			fmt.Fprintf(&fresh, "q%d i=%d d=%s\n", qi, wantIDs[n.Index], hexF(n.Dist))
		}
	}
	if liveOut != fresh.String() {
		t.Fatalf("durable_knn: recovered live search diverges from fresh engine over the reference live set\n%s",
			firstDiff(fresh.String(), liveOut))
	}
	assertDurableGolden(t, "knn", liveOut, renderLiveKNN(t, e, queries, k))

	initial, err := kmeans.InitCenters(wantMat, 6, 7)
	if err != nil {
		t.Fatal(err)
	}
	assertDurableGolden(t, "kmeans",
		renderKMeans(kmeans.NewLloyd(mat), initial),
		renderKMeans(kmeans.NewLloyd(wantMat), initial))
	assertDurableGolden(t, "dbscan",
		renderDBSCAN(t, dbscan.New(mat), 0.25, 4),
		renderDBSCAN(t, dbscan.New(wantMat), 0.25, 4))
	assertDurableGolden(t, "outlier",
		renderOutlier(t, outlier.NewDetector(mat), 10, 5),
		renderOutlier(t, outlier.NewDetector(wantMat), 10, 5))
	assertDurableGolden(t, "motif",
		renderMotif(t, motif.NewFinder(mat), 3),
		renderMotif(t, motif.NewFinder(wantMat), 3))
	probes := donors.X.Slice(0, 20)
	assertDurableGolden(t, "join",
		renderJoin(t, join.NewJoiner(mat), probes, 0.22),
		renderJoin(t, join.NewJoiner(wantMat), probes, 0.22))
}

// TestGoldenDurableStandingSequence pins the standing-query acceptance
// property on the engine: a kNN subscription maintained through a churn
// script must emit exactly the sequence of views a one-shot re-query
// after each mutation produces — same triggers, same bits — rendered to
// a committed golden.
func TestGoldenDurableStandingSequence(t *testing.T) {
	ds := goldenDataset(t, 150, 16, 4, 0.2)
	donors := donorDataset(t, 100, 16, 4, 0.2)
	script := genDurableScript(ds.X.N, donors.X, 203, 120)
	const k = 6
	q := ds.Queries(1, 61).Row(0)

	mkEngine := func() *serve.MutableEngine {
		e, err := serve.NewMutable(ds.X.Clone(), serve.MutableOptions{
			Options:        serve.Options{Shards: 2, Workers: 2},
			StandingBuffer: 4 * (len(script) + 1),
		})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { e.Close() })
		return e
	}
	renderView := func(nn []vec.Neighbor) string {
		var b strings.Builder
		for _, n := range nn {
			fmt.Fprintf(&b, " i=%d d=%s", n.Index, hexF(n.Dist))
		}
		return b.String()
	}

	// Engine A maintains the subscription incrementally.
	eA := mkEngine()
	sub, err := eA.SubscribeKNN(q, k)
	if err != nil {
		t.Fatal(err)
	}
	// Engine B answers one-shot re-queries after every mutation.
	eB := mkEngine()
	oneShot := func() []vec.Neighbor {
		res, err := eB.Search(context.Background(), q, k)
		if err != nil {
			t.Fatal(err)
		}
		return res.Neighbors
	}
	var reference strings.Builder
	last := oneShot()
	fmt.Fprintf(&reference, "init t=-1%s\n", renderView(last))
	changed := func(a, b []vec.Neighbor) bool {
		if len(a) != len(b) {
			return true
		}
		for i := range a {
			if a[i] != b[i] {
				return true
			}
		}
		return false
	}
	for _, op := range script {
		applyOp(t, eA, op)
		applyOp(t, eB, op)
		if now := oneShot(); changed(last, now) {
			fmt.Fprintf(&reference, "update t=%d%s\n", op.id, renderView(now))
			last = now
		}
	}
	eA.Unsubscribe(sub.ID())
	if sub.Dropped() != 0 {
		t.Fatalf("subscription dropped %d events with an ample buffer", sub.Dropped())
	}
	var got strings.Builder
	for ev := range sub.Events() {
		switch ev.Kind.String() {
		case "init":
			fmt.Fprintf(&got, "init t=%d%s\n", ev.Trigger, renderView(ev.Result))
		case "update":
			fmt.Fprintf(&got, "update t=%d%s\n", ev.Trigger, renderView(ev.Result))
		default:
			t.Fatalf("unexpected event kind %v on a kNN subscription", ev.Kind)
		}
	}
	assertDurableGolden(t, "standing", got.String(), reference.String())
}
