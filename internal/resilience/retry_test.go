package resilience

import (
	"context"
	"errors"
	"testing"
	"time"
)

// TestRetryBudgetBoundsRetries: the bucket starts at Burst, drains one
// token per retry, refuses when empty, and refills at Ratio per success
// — so sustained retries cannot exceed Ratio × successes.
func TestRetryBudgetBoundsRetries(t *testing.T) {
	t.Parallel()
	r := NewRetryBudget(RetryConfig{Ratio: 0.5, Burst: 2})
	if !r.Allow() || !r.Allow() {
		t.Fatal("full bucket must allow Burst retries")
	}
	if r.Allow() {
		t.Fatal("empty bucket allowed a retry")
	}
	r.OnSuccess() // +0.5: still under one token
	if r.Allow() {
		t.Fatalf("allowed at %.2f tokens", r.Tokens())
	}
	r.OnSuccess() // +0.5: exactly one token
	if !r.Allow() {
		t.Fatalf("refused at %.2f tokens", r.Tokens())
	}
	// Refill never exceeds Burst.
	for i := 0; i < 100; i++ {
		r.OnSuccess()
	}
	if got := r.Tokens(); got != 2 {
		t.Fatalf("tokens after heavy refill = %v, want Burst 2", got)
	}
}

// TestRetryBackoffGrowsAndJitters: backoff doubles per attempt up to the
// cap, and every draw stays inside the [0.5, 1.5) jitter envelope.
func TestRetryBackoffGrowsAndJitters(t *testing.T) {
	t.Parallel()
	base, max := time.Millisecond, 4*time.Millisecond
	r := NewRetryBudget(RetryConfig{Ratio: 0.1, BaseBackoff: base, MaxBackoff: max})
	for attempt := 0; attempt < 6; attempt++ {
		nominal := base << attempt
		if nominal > max {
			nominal = max
		}
		for i := 0; i < 32; i++ {
			d := r.Backoff(attempt)
			lo := time.Duration(float64(nominal) * 0.5)
			hi := time.Duration(float64(nominal) * 1.5)
			if d < lo || d >= hi {
				t.Fatalf("attempt %d backoff %s outside [%s, %s)", attempt, d, lo, hi)
			}
		}
	}
}

// TestRetryDisabledAndNil: Ratio 0 yields a nil budget that never
// allows and backs off zero.
func TestRetryDisabledAndNil(t *testing.T) {
	t.Parallel()
	r := NewRetryBudget(RetryConfig{})
	if r != nil {
		t.Fatal("Ratio 0 must yield a nil budget")
	}
	r.OnSuccess()
	if r.Allow() {
		t.Fatal("nil budget allowed a retry")
	}
	if d := r.Backoff(3); d != 0 {
		t.Fatalf("nil budget backoff = %s, want 0", d)
	}
}

// TestSleepHonorsContext: Sleep returns nil after the duration and the
// context's cause when canceled first.
func TestSleepHonorsContext(t *testing.T) {
	t.Parallel()
	if err := Sleep(context.Background(), time.Microsecond); err != nil {
		t.Fatalf("Sleep returned %v", err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := Sleep(ctx, time.Hour); !errors.Is(err, context.Canceled) {
		t.Fatalf("canceled Sleep returned %v, want context.Canceled", err)
	}
	if err := Sleep(ctx, 0); err != nil {
		t.Fatalf("zero-duration Sleep must not consult ctx, got %v", err)
	}
}

// TestConfigValidate covers the rejection paths.
func TestConfigValidate(t *testing.T) {
	t.Parallel()
	bad := []Config{
		{MaxConcurrent: -1},
		{MaxQueue: -2},
		{MaxQueue: 3}, // queue without a concurrency cap
		{ShedFactor: -0.5},
		{MinShedSamples: -1},
		{Breaker: BreakerConfig{FailureThreshold: -1}},
		{Breaker: BreakerConfig{FailureThreshold: 1, CoolDown: -time.Second}},
		{Retry: RetryConfig{Ratio: 2}},
		{Retry: RetryConfig{Ratio: 0.1, Burst: -1}},
	}
	for i, c := range bad {
		if err := c.Validate(); err == nil {
			t.Errorf("config %d validated: %+v", i, c)
		}
	}
	if err := (Config{}).Validate(); err != nil {
		t.Errorf("zero config rejected: %v", err)
	}
	if err := Default(8).Validate(); err != nil {
		t.Errorf("Default(8) rejected: %v", err)
	}
}
