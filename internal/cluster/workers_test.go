package cluster

import (
	"context"
	"runtime"
	"testing"
	"time"
)

// TestCloseReleasesVisitWorkers: a cluster engine's parked visit workers
// outlive its queries but not its Close — the goroutine count returns to
// what it was before the engine was built.
func TestCloseReleasesVisitWorkers(t *testing.T) {
	// Not parallel: it counts the process's goroutines.
	data, queries := randMatrix(240, 8, 1), randMatrix(8, 8, 2)
	before := runtime.NumGoroutine()
	e, err := New(data, Options{Nodes: 3, Replicas: 2, Shards: 4, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.SearchBatch(context.Background(), queries, 5); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Search(context.Background(), queries.Row(0), 5); err != nil {
		t.Fatal(err)
	}
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(10 * time.Second)
	for n := runtime.NumGoroutine(); n > before; n = runtime.NumGoroutine() {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines left after Close, %d before the build", n, before)
		}
		time.Sleep(time.Millisecond)
	}
}
