package task

import (
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/ids"
)

func TestRunAndResult(t *testing.T) {
	s := NewScheduler(nil)
	tk := Run(s, func() int { return 42 })
	if got := tk.Result(); got != 42 {
		t.Fatalf("Result = %d, want 42", got)
	}
	s.WaitIdle()
}

func TestRunRunsOnOtherGoroutine(t *testing.T) {
	s := NewScheduler(nil)
	parent := ids.CurrentThreadID()
	tk := Run(s, func() ids.ThreadID { return ids.CurrentThreadID() })
	if tk.Result() == parent {
		t.Fatal("task ran on the parent goroutine without inlining enabled")
	}
	if tk.Inlined() {
		t.Fatal("task reported inlined")
	}
}

func TestResultRepanics(t *testing.T) {
	s := NewScheduler(nil)
	tk := Run(s, func() int { panic("boom") })
	defer func() {
		r := recover()
		if r == nil || !strings.Contains(r.(string), "boom") {
			t.Fatalf("Result did not propagate the panic: %v", r)
		}
	}()
	tk.Result()
}

func TestTryResultCapturesPanic(t *testing.T) {
	s := NewScheduler(nil)
	tk := Run(s, func() int { panic("soft") })
	_, p := tk.TryResult()
	if p == nil {
		t.Fatal("TryResult lost the panic")
	}
}

func TestDone(t *testing.T) {
	s := NewScheduler(nil)
	release := make(chan struct{})
	tk := Run(s, func() int { <-release; return 1 })
	if tk.Done() {
		t.Fatal("task reported done while blocked")
	}
	close(release)
	tk.Wait()
	if !tk.Done() {
		t.Fatal("task not done after Wait")
	}
}

func TestContinueWith(t *testing.T) {
	s := NewScheduler(nil)
	tk := Run(s, func() int { return 7 })
	ck := ContinueWith(tk, func(v int) string {
		if v != 7 {
			t.Errorf("continuation received %d", v)
		}
		return "done"
	})
	if got := ck.Result(); got != "done" {
		t.Fatalf("continuation Result = %q", got)
	}
}

func TestWhenAll(t *testing.T) {
	s := NewScheduler(nil)
	var tasks []*Task[int]
	for i := 0; i < 10; i++ {
		i := i
		tasks = append(tasks, Run(s, func() int { return i * i }))
	}
	got := WhenAll(tasks...)
	for i, v := range got {
		if v != i*i {
			t.Fatalf("WhenAll[%d] = %d, want %d", i, v, i*i)
		}
	}
}

func TestForEachProcessesAll(t *testing.T) {
	s := NewScheduler(nil)
	items := make([]int, 100)
	for i := range items {
		items[i] = i
	}
	var sum atomic.Int64
	var par atomic.Int64
	var maxPar atomic.Int64
	ForEach(s, items, 8, func(v int) {
		cur := par.Add(1)
		for {
			old := maxPar.Load()
			if cur <= old || maxPar.CompareAndSwap(old, cur) {
				break
			}
		}
		time.Sleep(time.Millisecond)
		sum.Add(int64(v))
		par.Add(-1)
	})
	if sum.Load() != 99*100/2 {
		t.Fatalf("sum = %d", sum.Load())
	}
	if maxPar.Load() < 2 {
		t.Fatal("ForEach never ran items in parallel")
	}
	if maxPar.Load() > 8 {
		t.Fatalf("ForEach exceeded its degree: %d", maxPar.Load())
	}
}

func TestForEachEmptyAndPanic(t *testing.T) {
	s := NewScheduler(nil)
	ForEach(s, nil, 4, func(int) { t.Fatal("called for empty slice") })

	defer func() {
		if recover() == nil {
			t.Fatal("ForEach swallowed a panic")
		}
	}()
	ForEach(s, []int{1, 2, 3}, 2, func(v int) {
		if v == 2 {
			panic("item failure")
		}
	})
}

// TestForkJoinEventsReachDetector wires a recording detector and checks the
// fork and join edges of one task round trip.
func TestForkJoinEventsReachDetector(t *testing.T) {
	rec := &recordingDetector{}
	s := NewScheduler(rec)
	parent := ids.CurrentThreadID()
	tk := Run(s, func() int { return 1 })
	tk.Result()

	rec.mu.Lock()
	defer rec.mu.Unlock()
	if len(rec.forks) != 1 || rec.forks[0][0] != parent {
		t.Fatalf("forks = %v", rec.forks)
	}
	if len(rec.joins) != 1 || rec.joins[0][0] != parent || rec.joins[0][1] != rec.forks[0][1] {
		t.Fatalf("joins = %v", rec.joins)
	}
}

// TestInlineFastTasks: with inlining enabled, spawn sites run synchronously
// from the start (the CLR's optimistic fast path) and keep doing so while
// their history stays fast — and ForceAsync overrides it.
func TestInlineFastTasks(t *testing.T) {
	s := NewScheduler(nil, WithInlineFastTasks())
	fast := func() int { return 1 }

	parent := ids.CurrentThreadID()
	spawn := func() *Task[int] { return Run(s, fast) } // one stable call site
	for i := 0; i < 3; i++ {
		tk := spawn()
		if tk.Result(); !tk.Inlined() {
			t.Fatalf("execution %d of a fast site was not inlined", i)
		}
		if got := tk.tid; got != parent {
			t.Fatalf("inlined task ran on goroutine %d, not the caller %d", got, parent)
		}
	}
	s.WaitIdle()
}

func TestInlineDisabledByDefault(t *testing.T) {
	s := NewScheduler(nil)
	spawn := func() *Task[int] { return Run(s, func() int { return 1 }) }
	if spawn().Inlined() || spawn().Inlined() {
		t.Fatal("inlining happened without WithInlineFastTasks")
	}
}

func TestForceAsyncOverridesInlining(t *testing.T) {
	s := NewScheduler(nil, WithInlineFastTasks(), WithForceAsync())
	spawn := func() *Task[int] { return Run(s, func() int { return 1 }) }
	for i := 0; i < 4; i++ {
		if spawn().Inlined() {
			t.Fatal("ForceAsync did not suppress inlining")
		}
	}
}

func TestSlowSitesMigrateToAsync(t *testing.T) {
	s := NewScheduler(nil, WithInlineFastTasks())
	spawn := func() *Task[int] {
		return Run(s, func() int { time.Sleep(3 * time.Millisecond); return 1 })
	}
	// The first execution is optimistically inlined and measured...
	if !spawn().Inlined() {
		t.Fatal("first execution of an unknown site was not inlined")
	}
	// ...after which the site's slow history forces real asynchrony.
	tk := spawn()
	tk.Result()
	if tk.Inlined() {
		t.Fatal("slow site stayed inlined after measurement")
	}
}

func TestWaitIdleWaitsForStragglers(t *testing.T) {
	s := NewScheduler(nil)
	var finished atomic.Bool
	Run(s, func() int {
		time.Sleep(20 * time.Millisecond)
		finished.Store(true)
		return 0
	})
	s.WaitIdle()
	if !finished.Load() {
		t.Fatal("WaitIdle returned before the task finished")
	}
}

// TestSqrtCacheScenario is Figure 3/4 end to end: two getSqrt calls race on
// an unsynchronized cache dictionary through task parallelism; TSVDHB (fed
// by this substrate's fork/join edges) and TSVD must both catch the TSV.
func TestSqrtCacheScenario(t *testing.T) {
	for _, algo := range []config.Algorithm{config.AlgoTSVD, config.AlgoTSVDHB} {
		t.Run(algo.String(), func(t *testing.T) {
			det, err := core.New(config.Defaults(algo).Scaled(0.1))
			if err != nil {
				t.Fatal(err)
			}
			s := NewScheduler(det, WithForceAsync())
			// A shared "dict" accessed through OnCall directly: Add
			// (write) at one site, ContainsKey (read) at another.
			const dictObj = ids.ObjectID(77)
			readSite := det.Sites().ForCall(7701, "Dictionary", "ContainsKey", false)
			writeSite := det.Sites().ForCall(7702, "Dictionary", "Add", true)
			getSqrt := func(x float64) *Task[float64] {
				return Run(s, func() float64 {
					det.OnCall(core.Access{
						Thread: ids.CurrentThreadID(), Obj: dictObj,
						Op: 7701, Site: readSite, Kind: core.KindRead,
					})
					time.Sleep(time.Millisecond)
					det.OnCall(core.Access{
						Thread: ids.CurrentThreadID(), Obj: dictObj,
						Op: 7702, Site: writeSite, Kind: core.KindWrite,
					})
					return x
				})
			}
			deadline := time.Now().Add(10 * time.Second)
			for det.Reports().UniqueBugs() == 0 && time.Now().Before(deadline) {
				a := getSqrt(2)
				b := getSqrt(3)
				a.Result()
				b.Result()
			}
			if det.Reports().UniqueBugs() == 0 {
				t.Fatalf("%v missed the Figure 3 cache race", algo)
			}
		})
	}
}

type recordingDetector struct {
	core.NopDetector
	mu    sync.Mutex
	forks [][2]ids.ThreadID
	joins [][2]ids.ThreadID
}

func (r *recordingDetector) OnFork(parent, child ids.ThreadID) {
	r.mu.Lock()
	r.forks = append(r.forks, [2]ids.ThreadID{parent, child})
	r.mu.Unlock()
}

func (r *recordingDetector) OnJoin(waiter, done ids.ThreadID) {
	r.mu.Lock()
	r.joins = append(r.joins, [2]ids.ThreadID{waiter, done})
	r.mu.Unlock()
}
