package core

import (
	"fmt"
	goruntime "runtime"
	"sync"
	"testing"
	"time"

	"repro/internal/config"
	"repro/internal/ids"
	"repro/internal/trace"
)

// TestObjHistoryNewestFirst pins the iteration order of the per-object ring:
// each must visit entries newest first, both before the ring wraps and after.
// The near-miss scan depends on this so the most recent conflicting access —
// the smallest gap, the likeliest real interleaving — is seen first.
func TestObjHistoryNewestFirst(t *testing.T) {
	const capacity = 3
	h := newObjHistory(capacity)

	collect := func() []ids.OpID {
		var got []ids.OpID
		h.each(func(e histEntry) { got = append(got, e.op) })
		return got
	}
	assertOrder := func(want ...ids.OpID) {
		t.Helper()
		got := collect()
		if len(got) != len(want) {
			t.Fatalf("each visited %v, want %v", got, want)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("each visited %v, want %v (newest first)", got, want)
			}
		}
	}

	assertOrder() // empty ring: no visits
	h.add(histEntry{op: 1})
	assertOrder(1)
	h.add(histEntry{op: 2})
	assertOrder(2, 1)
	h.add(histEntry{op: 3})
	assertOrder(3, 2, 1) // full, not yet wrapped
	h.add(histEntry{op: 4})
	assertOrder(4, 3, 2) // wrapped: oldest (1) evicted
	h.add(histEntry{op: 5})
	h.add(histEntry{op: 6})
	h.add(histEntry{op: 7})
	assertOrder(7, 6, 5) // wrapped more than once
}

// TestHBHistoryNewestFirst: the TSVDHB ring must mirror objHistory's order.
func TestHBHistoryNewestFirst(t *testing.T) {
	h := newHBHistory(2)
	h.add(hbEntry{op: 1})
	h.add(hbEntry{op: 2})
	h.add(hbEntry{op: 3})
	var got []ids.OpID
	h.each(func(e hbEntry) { got = append(got, e.op) })
	if len(got) != 2 || got[0] != 3 || got[1] != 2 {
		t.Fatalf("each visited %v, want [3 2] (newest first)", got)
	}
}

// TestDenseRuntimeStress hammers one detector from GOMAXPROCS-scaled
// goroutine counts on a conflict-free workload (each worker owns disjoint
// objects and locations). It must produce zero reports, and the counters
// that have exact expected values — OnCalls, LocationsSeen, Violations —
// must come out exact despite every worker updating them concurrently
// through the per-thread counter tallies, the dense coverage table and the
// site registry's growth path. Run under -race this is the synchronization
// audit of the per-object runtime.
//
// The "presites" variants pre-register every site through the registry (the
// instrumented-prologue shape, exercising concurrent registration and dense
// growth); the others leave Site zero and take the op-keyed fallback.
func TestDenseRuntimeStress(t *testing.T) {
	workers := 2 * goruntime.GOMAXPROCS(0)
	if workers < 4 {
		workers = 4
	}
	const (
		callsPerWorker = 2000
		objsPerWorker  = 16
		opsPerWorker   = 8
	)

	algos := []config.Algorithm{
		config.AlgoTSVD, config.AlgoTSVDHB,
		config.AlgoDynamicRandom, config.AlgoStaticRandom,
	}
	for _, presites := range []bool{false, true} {
		for _, algo := range algos {
			t.Run(fmt.Sprintf("%v/presites=%v", algo, presites), func(t *testing.T) {
				cfg := config.Defaults(algo).Scaled(0.001) // 100µs delays
				d := mustNew(t, cfg)

				var wg sync.WaitGroup
				for w := 0; w < workers; w++ {
					wg.Add(1)
					go func(w int) {
						defer wg.Done()
						thread := ids.ThreadID(100 + w)
						for i := 0; i < callsPerWorker; i++ {
							a := Access{
								Thread: thread,
								Obj:    ids.ObjectID(1000 + w*objsPerWorker + i%objsPerWorker),
								Op:     ids.OpID(5000 + w*opsPerWorker + i%opsPerWorker),
								Kind:   KindWrite,
							}
							if presites {
								// Interning every call (not caching the id)
								// deliberately stresses the registry's
								// concurrent fast path and growth.
								a.Site = d.Sites().Register(a.Op, "Test", "Op", true)
							}
							d.OnCall(a)
						}
					}(w)
				}
				wg.Wait()

				if n := d.Reports().UniqueBugs(); n != 0 {
					t.Fatalf("conflict-free workload produced %d reports", n)
				}
				st := d.Stats()
				if want := int64(workers * callsPerWorker); st.OnCalls != want {
					t.Fatalf("OnCalls = %d, want %d (lost updates)", st.OnCalls, want)
				}
				if want := int64(workers * opsPerWorker); st.LocationsSeen != want {
					t.Fatalf("LocationsSeen = %d, want %d", st.LocationsSeen, want)
				}
				if st.Violations != 0 {
					t.Fatalf("Violations = %d on a conflict-free workload", st.Violations)
				}
				if want := workers * opsPerWorker; d.Sites().Len() != want {
					t.Fatalf("Sites().Len() = %d, want %d", d.Sites().Len(), want)
				}
			})
		}
	}
}

// TestDenseRuntimeStressWithConflicts drives real cross-thread conflicts at
// full parallelism: every worker writes the same small object set, so the
// single-writer scan skip, the mixed transition, the object spin locks and
// trap registration all see heavy cross-thread traffic. The point is not
// detection counts (timing-dependent) but that the detector stays
// data-race-free (-race) and every reported violation is a genuine
// same-object write-write pair with its site metadata resolved.
func TestDenseRuntimeStressWithConflicts(t *testing.T) {
	workers := 2 * goruntime.GOMAXPROCS(0)
	if workers < 4 {
		workers = 4
	}
	const callsPerWorker = 500

	cfg := config.Defaults(config.AlgoTSVD).Scaled(0.001)
	d := mustNew(t, cfg)
	site := d.Sites().Register(9000, "Test", "Op", true)

	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			thread := ids.ThreadID(200 + w)
			for i := 0; i < callsPerWorker; i++ {
				// Four shared objects, distinct op per worker parity; even
				// workers carry the interned site, odd ones resolve by op.
				a := Access{
					Thread: thread,
					Obj:    ids.ObjectID(1 + i%4),
					Op:     ids.OpID(9000 + w%2),
					Kind:   KindWrite,
				}
				if w%2 == 0 {
					a.Site = site
				}
				d.OnCall(a)
			}
		}(w)
	}
	wg.Wait()

	st := d.Stats()
	if want := int64(workers * callsPerWorker); st.OnCalls != want {
		t.Fatalf("OnCalls = %d, want %d", st.OnCalls, want)
	}
	for _, v := range d.Reports().Violations() {
		if v.Trapped.Thread == v.Conflicting.Thread {
			t.Fatalf("report pairs accesses from one thread: %+v", v)
		}
		if !v.Trapped.Write && !v.Conflicting.Write {
			t.Fatalf("report with no write side: %+v", v)
		}
		if v.Trapped.Op == 9000 && v.Trapped.Site == site && v.Trapped.Class != "Test" {
			t.Fatalf("interned side lost its class metadata: %+v", v)
		}
	}
}

// TestNearMissGapsNeverNegative hammers one shared-mode object from several
// procs with conflicting writes. Each OnCall reads its timestamp before it
// takes the object's lock, so a thread can find a later-stamped entry
// already in the history; the scan must raise its stamp rather than report
// a negative gap to the trace, the gap histogram and the metrics.
func TestNearMissGapsNeverNegative(t *testing.T) {
	if goruntime.GOMAXPROCS(0) < 4 {
		defer goruntime.GOMAXPROCS(goruntime.GOMAXPROCS(4))
	}
	cfg := testConfig(config.AlgoTSVD)
	cfg.Mode = config.ModeObserveOnly // no sleeps: keep the lock hot
	cfg.DisableNearMissWindow = true  // every conflicting pair is a near miss
	cfg.Trace = true
	d := mustNew(t, cfg)
	tr := d.Tracer()

	const goroutines, perG = 8, 4000
	var negative, nearMisses int64
	var minGap time.Duration
	check := func(evs []trace.Event) {
		for _, ev := range evs {
			if ev.Kind != trace.KindNearMiss {
				continue
			}
			nearMisses++
			if ev.Dur < 0 {
				negative++
				minGap = min(minGap, ev.Dur)
			}
		}
	}
	stop := make(chan struct{})
	drained := make(chan struct{})
	go func() {
		defer close(drained)
		for {
			check(tr.Drain())
			select {
			case <-stop:
				return
			default:
				time.Sleep(100 * time.Microsecond)
			}
		}
	}()
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				d.OnCall(acc(ids.ThreadID(g+1), 1, ids.OpID(300+g), KindWrite))
			}
		}(g)
	}
	wg.Wait()
	close(stop)
	<-drained
	check(tr.Drain())

	if nearMisses == 0 {
		t.Fatal("conflicting workload produced no near misses")
	}
	if negative > 0 {
		t.Fatalf("%d of %d near-miss gaps negative (min %v); stamps raised: %d",
			negative, nearMisses, minGap, d.Stats().StampsRaised)
	}
	t.Logf("%d near misses, %d stamps raised", nearMisses, d.Stats().StampsRaised)
}
