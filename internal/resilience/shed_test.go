package resilience

import (
	"context"
	"errors"
	"testing"
	"time"
)

// TestShedderWarmupAndTrigger: no shedding before minSamples; after
// warm-up, a query whose remaining deadline is under factor×p95 is shed
// with the typed sentinel while a roomy deadline passes.
func TestShedderWarmupAndTrigger(t *testing.T) {
	t.Parallel()
	s := NewShedder(1, 4)

	tight, cancel := context.WithTimeout(context.Background(), time.Nanosecond)
	defer cancel()
	if err := s.Check(tight); err != nil {
		t.Fatalf("cold shedder shed during warm-up: %v", err)
	}
	for i := 0; i < 4; i++ {
		s.Observe(100 * time.Millisecond)
	}
	p95, n := s.P95()
	if n != 4 || p95 <= 0 {
		t.Fatalf("P95 = %s over %d samples, want positive over 4", p95, n)
	}

	tight2, cancel2 := context.WithTimeout(context.Background(), p95/4)
	defer cancel2()
	if err := s.Check(tight2); !errors.Is(err, ErrShedDeadline) {
		t.Fatalf("tight deadline got %v, want ErrShedDeadline", err)
	}
	roomy, cancel3 := context.WithTimeout(context.Background(), 10*p95)
	defer cancel3()
	if err := s.Check(roomy); err != nil {
		t.Fatalf("roomy deadline shed: %v", err)
	}
	// No deadline at all: never shed.
	if err := s.Check(context.Background()); err != nil {
		t.Fatalf("deadline-free query shed: %v", err)
	}
}

// TestShedderFactorScalesThreshold: a larger factor sheds earlier.
func TestShedderFactorScalesThreshold(t *testing.T) {
	t.Parallel()
	lax := NewShedder(0.5, 1)
	strict := NewShedder(4, 1)
	for _, s := range []*Shedder{lax, strict} {
		for i := 0; i < 8; i++ {
			s.Observe(20 * time.Millisecond)
		}
	}
	p95, _ := lax.P95()
	// A deadline between 0.5×p95 and 4×p95 splits the two.
	mid, cancel := context.WithTimeout(context.Background(), 2*p95)
	defer cancel()
	if err := lax.Check(mid); err != nil {
		t.Fatalf("factor 0.5 shed a 2×p95 deadline: %v", err)
	}
	if err := strict.Check(mid); !errors.Is(err, ErrShedDeadline) {
		t.Fatalf("factor 4 passed a 2×p95 deadline: %v", err)
	}
}

// TestShedderDisabledAndNil: factor ≤ 0 yields a nil shedder whose
// methods are safe no-ops.
func TestShedderDisabledAndNil(t *testing.T) {
	t.Parallel()
	s := NewShedder(0, 1)
	if s != nil {
		t.Fatal("factor 0 must yield a nil shedder")
	}
	s.Observe(time.Second)
	ctx, cancel := context.WithTimeout(context.Background(), time.Nanosecond)
	defer cancel()
	if err := s.Check(ctx); err != nil {
		t.Fatalf("nil shedder shed: %v", err)
	}
	if p95, n := s.P95(); p95 != 0 || n != 0 {
		t.Fatalf("nil shedder P95 = %s/%d, want 0/0", p95, n)
	}
}
