// Package clock abstracts time for the TSVD runtime.
//
// The paper runs with 100 ms delay injections on real servers. The algorithm
// only depends on *ratios* between durations (near-miss window vs. delay
// length vs. δ_hb·delay), so tests and benchmarks run with every duration
// scaled down uniformly. A Clock carries that scale.
//
// Place in the detector pipeline: every OnCall timestamps itself once with
// Clock.Since (the single hottest time read in the process — Real.Since
// reads only the monotonic clock for that reason), near-miss gaps and HB
// thresholds are differences of those timestamps, and injected delays go
// through Clock.Sleep so a trap can be woken early by its cancel channel
// when the conflicting access arrives. Budget sits between the
// detector's decision to delay and the sleep itself: it caps the total
// delay charged to any one thread (§4, runtime feature 2) so instrumented
// tests cannot be pushed past their timeouts, with early-woken time
// refunded.
package clock

import (
	"sync/atomic"
	"time"
)

// Clock supplies current time and interruptible sleeping to the detector.
type Clock interface {
	// Now returns the current time. Implementations must be monotonic.
	Now() time.Time
	// Since returns the time elapsed since start (a Time previously
	// obtained from Now). It is the detector's per-OnCall time read;
	// implementations should make it as cheap as the platform allows.
	Since(start time.Time) time.Duration
	// Sleep blocks for d, or until cancel is closed, whichever is first.
	// It returns the duration actually slept and true if it was woken early.
	Sleep(d time.Duration, cancel <-chan struct{}) (time.Duration, bool)
}

// Real is a Clock backed by the wall clock.
type Real struct{}

// Now implements Clock.
func (Real) Now() time.Time { return time.Now() }

// Since implements Clock. time.Since reads only the monotonic clock — one
// vDSO call instead of time.Now's wall-plus-monotonic pair — which halves
// the cost of the hottest instruction sequence in the detector.
func (Real) Since(start time.Time) time.Duration { return time.Since(start) }

// Sleep implements Clock. It sleeps on a timer but can be woken early by the
// cancel channel; the trap mechanism uses early wake when a conflicting
// access is caught so the reporting thread does not keep waiting pointlessly.
func (Real) Sleep(d time.Duration, cancel <-chan struct{}) (time.Duration, bool) {
	if d <= 0 {
		return 0, false
	}
	start := time.Now()
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return time.Since(start), false
	case <-cancel:
		return time.Since(start), true
	}
}

// Scaled wraps another Clock and multiplies every Sleep duration by Factor
// (a value in (0,1] shrinks delays). Now is passed through unchanged: the
// detector's window comparisons always compare durations that were produced
// under the same scale because the configuration is scaled alongside.
type Scaled struct {
	Base   Clock
	Factor float64
}

// Now implements Clock.
func (s Scaled) Now() time.Time { return s.Base.Now() }

// Since implements Clock.
func (s Scaled) Since(start time.Time) time.Duration { return s.Base.Since(start) }

// Sleep implements Clock.
func (s Scaled) Sleep(d time.Duration, cancel <-chan struct{}) (time.Duration, bool) {
	scaled := time.Duration(float64(d) * s.Factor)
	if scaled <= 0 && d > 0 {
		scaled = time.Microsecond
	}
	slept, woken := s.Base.Sleep(scaled, cancel)
	if s.Factor > 0 {
		slept = time.Duration(float64(slept) / s.Factor)
	}
	return slept, woken
}

// Budget tracks the total delay injected into one thread (or one request) so
// the runtime can cap it and avoid test timeouts (§4, runtime feature 2).
type Budget struct {
	// Max is the cap; zero means unlimited.
	Max time.Duration

	used atomic.Int64
}

// Allow reports how much of a requested delay d fits under the budget and
// reserves it. It returns 0 when the budget is exhausted.
func (b *Budget) Allow(d time.Duration) time.Duration {
	if b == nil || b.Max <= 0 {
		return d
	}
	for {
		used := b.used.Load()
		remaining := int64(b.Max) - used
		if remaining <= 0 {
			return 0
		}
		grant := int64(d)
		if grant > remaining {
			grant = remaining
		}
		if b.used.CompareAndSwap(used, used+grant) {
			return time.Duration(grant)
		}
	}
}

// Used reports the total delay charged so far.
func (b *Budget) Used() time.Duration {
	if b == nil {
		return 0
	}
	return time.Duration(b.used.Load())
}

// Refund returns unused delay (e.g. when a sleep was woken early) to the
// budget.
func (b *Budget) Refund(d time.Duration) {
	if b == nil || b.Max <= 0 || d <= 0 {
		return
	}
	b.used.Add(-int64(d))
}
