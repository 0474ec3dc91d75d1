package serve

import (
	"context"
	"errors"
	"math/rand"
	"sync"
	"testing"

	"pimmine/internal/vec"
)

func closeTestData(n, d int) *vec.Matrix {
	rng := rand.New(rand.NewSource(7))
	m := vec.NewMatrix(n, d)
	for i := range m.Data {
		m.Data[i] = rng.Float64()
	}
	return m
}

// Regression: Close must be idempotent and must fail queries and
// mutations issued after it with ErrClosed rather than racing torn-down
// state, whichever constructor built the engine.
func checkCloseIdempotent(t *testing.T, data *vec.Matrix, e *Engine) {
	t.Helper()
	q := data.Row(0)
	if _, err := e.Search(context.Background(), q, 3); err != nil {
		t.Fatal(err)
	}
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	if err := e.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
	if _, err := e.Search(context.Background(), q, 3); !errors.Is(err, ErrClosed) {
		t.Fatalf("search after close err = %v, want ErrClosed", err)
	}
	if _, err := e.SearchBatch(context.Background(), data.Slice(0, 2), 3); !errors.Is(err, ErrClosed) {
		t.Fatalf("batch after close err = %v, want ErrClosed", err)
	}
	if _, err := e.Insert(q); !errors.Is(err, ErrClosed) {
		t.Fatalf("insert after close err = %v, want ErrClosed", err)
	}
	if err := e.Delete(0); !errors.Is(err, ErrClosed) {
		t.Fatalf("delete after close err = %v, want ErrClosed", err)
	}
	if err := e.Compact(nil); !errors.Is(err, ErrClosed) {
		t.Fatalf("compact after close err = %v, want ErrClosed", err)
	}
}

func TestEngineCloseIdempotent(t *testing.T) {
	t.Parallel()
	data := closeTestData(64, 8)
	e, err := New(data, Options{Shards: 4, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	checkCloseIdempotent(t, data, e)
}

func TestMutableEngineCloseIdempotent(t *testing.T) {
	t.Parallel()
	data := closeTestData(64, 8)
	e, err := NewMutable(data, MutableOptions{Options: Options{Shards: 4, Workers: 2}})
	if err != nil {
		t.Fatal(err)
	}
	checkCloseIdempotent(t, data, e)
}

// Concurrent double Close while queries are in flight: every query
// either completes or reports ErrClosed; nothing panics.
func TestEngineCloseConcurrent(t *testing.T) {
	t.Parallel()
	data := closeTestData(64, 8)
	e, err := New(data, Options{Shards: 4, Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				_, err := e.Search(context.Background(), data.Row((w*50+i)%data.N), 3)
				if err != nil && !errors.Is(err, ErrClosed) {
					t.Errorf("search err = %v", err)
					return
				}
			}
		}(w)
	}
	for c := 0; c < 2; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := e.Close(); err != nil {
				t.Errorf("close err = %v", err)
			}
		}()
	}
	wg.Wait()
}
