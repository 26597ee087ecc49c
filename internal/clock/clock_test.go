package clock

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestRealSleepDuration(t *testing.T) {
	c := Real{}
	start := time.Now()
	slept, woken := c.Sleep(20*time.Millisecond, nil)
	elapsed := time.Since(start)
	if woken {
		t.Fatal("sleep reported early wake without a cancel")
	}
	if slept < 15*time.Millisecond {
		t.Fatalf("slept %v, want >= ~20ms", slept)
	}
	if elapsed < 15*time.Millisecond {
		t.Fatalf("elapsed %v, want >= ~20ms", elapsed)
	}
}

func TestRealSleepEarlyWake(t *testing.T) {
	c := Real{}
	cancel := make(chan struct{})
	go func() {
		time.Sleep(5 * time.Millisecond)
		close(cancel)
	}()
	start := time.Now()
	_, woken := c.Sleep(5*time.Second, cancel)
	if !woken {
		t.Fatal("sleep was not woken early")
	}
	if time.Since(start) > time.Second {
		t.Fatalf("early wake took %v", time.Since(start))
	}
}

func TestRealSleepZero(t *testing.T) {
	slept, woken := Real{}.Sleep(0, nil)
	if slept != 0 || woken {
		t.Fatalf("Sleep(0) = %v,%v", slept, woken)
	}
}

func TestScaledSleepShrinks(t *testing.T) {
	c := Scaled{Base: Real{}, Factor: 0.01}
	start := time.Now()
	slept, _ := c.Sleep(time.Second, nil) // should actually sleep ~10ms
	elapsed := time.Since(start)
	if elapsed > 500*time.Millisecond {
		t.Fatalf("scaled sleep took %v, want ~10ms", elapsed)
	}
	// Reported duration is rescaled back to nominal time.
	if slept < 500*time.Millisecond {
		t.Fatalf("reported slept %v, want ~1s nominal", slept)
	}
}

func TestScaledTinyDurationStillSleeps(t *testing.T) {
	c := Scaled{Base: Real{}, Factor: 1e-12}
	slept, woken := c.Sleep(time.Millisecond, nil)
	if woken {
		t.Fatal("unexpected early wake")
	}
	if slept < 0 {
		t.Fatalf("negative slept %v", slept)
	}
}

func TestBudgetUnlimited(t *testing.T) {
	var b *Budget // nil budget means unlimited
	if got := b.Allow(time.Hour); got != time.Hour {
		t.Fatalf("nil budget Allow = %v", got)
	}
	b2 := &Budget{} // zero Max also unlimited
	if got := b2.Allow(time.Hour); got != time.Hour {
		t.Fatalf("zero budget Allow = %v", got)
	}
}

func TestBudgetCapsAndExhausts(t *testing.T) {
	b := &Budget{Max: 100 * time.Millisecond}
	if got := b.Allow(60 * time.Millisecond); got != 60*time.Millisecond {
		t.Fatalf("first Allow = %v", got)
	}
	if got := b.Allow(60 * time.Millisecond); got != 40*time.Millisecond {
		t.Fatalf("second Allow = %v, want capped 40ms", got)
	}
	if got := b.Allow(time.Millisecond); got != 0 {
		t.Fatalf("exhausted Allow = %v, want 0", got)
	}
	if b.Used() != 100*time.Millisecond {
		t.Fatalf("Used = %v", b.Used())
	}
}

func TestBudgetRefund(t *testing.T) {
	b := &Budget{Max: 100 * time.Millisecond}
	b.Allow(100 * time.Millisecond)
	b.Refund(30 * time.Millisecond)
	if got := b.Allow(50 * time.Millisecond); got != 30*time.Millisecond {
		t.Fatalf("Allow after refund = %v, want 30ms", got)
	}
}

// TestBudgetConcurrentCharge checks that concurrent charges on one Budget
// are never lost and never overshoot the cap: the detector charges a
// thread's budget from that thread, but refunds and scrapes race it.
func TestBudgetConcurrentCharge(t *testing.T) {
	b := &Budget{Max: 10 * time.Millisecond}
	var granted atomic.Int64
	charge := func(n int) {
		var wg sync.WaitGroup
		for i := 0; i < n; i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				granted.Add(int64(b.Allow(time.Millisecond)))
			}()
		}
		wg.Wait()
	}
	charge(8)
	if got := b.Used(); got != 8*time.Millisecond {
		t.Fatalf("Used = %v, want 8ms (lost concurrent charges)", got)
	}
	charge(8) // only 2ms of cap left for 8 requests
	if got := b.Used(); got != 10*time.Millisecond {
		t.Fatalf("Used = %v, want the 10ms cap", got)
	}
	if got := time.Duration(granted.Load()); got != 10*time.Millisecond {
		t.Fatalf("granted %v in total, want exactly the 10ms cap", got)
	}
}
