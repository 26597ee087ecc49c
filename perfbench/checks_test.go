package main

import (
	"os"
	"path/filepath"
	"testing"
	"time"

	tsvd "repro"
	"repro/internal/core"
	"repro/internal/harness"
	"repro/internal/report"
	"repro/internal/trace"
	"repro/internal/trapfile"
)

func TestCheckCalls(t *testing.T) {
	if got := checkCalls(core.Stats{OnCalls: 1000}, 0); got != 0 {
		t.Errorf("clean calls phase failed %d ops", got)
	}
	if got := checkCalls(core.Stats{OnCalls: 1000, DelaysInjected: 1}, 0); got != 1 {
		t.Errorf("an injected delay failed %d ops, want 1", got)
	}
	if got := checkCalls(core.Stats{OnCalls: 1000}, 2); got != 2 {
		t.Errorf("two reported bugs failed %d ops, want 2", got)
	}
}

func TestCheckSuite(t *testing.T) {
	if got := checkSuite(&harness.Outcome{}); got != 0 {
		t.Errorf("clean outcome failed %d ops", got)
	}
	fabricated := &harness.Outcome{UnknownPairs: []report.PairKey{report.KeyOf(1, 2)}}
	if got := checkSuite(fabricated); got != 1 {
		t.Errorf("an unknown pair failed %d ops, want 1", got)
	}
	dropped := &harness.Outcome{TraceTotals: trace.Totals{Emitted: 10, Dropped: 3}}
	if got := checkSuite(dropped); got != 3 {
		t.Errorf("three dropped trace events failed %d ops, want 3", got)
	}
}

func TestCheckUnion(t *testing.T) {
	a, b := trapfile.Pair{A: "x:1", B: "y:2"}, trapfile.Pair{A: "x:1", B: "z:3"}
	published := map[trapfile.Pair]bool{a: true, b: true}
	if got := checkUnion(published, []trapfile.Pair{b, a}); got != 0 {
		t.Errorf("equal sets failed %d ops", got)
	}
	if got := checkUnion(published, []trapfile.Pair{{A: "y:2", B: "x:1"}, b}); got != 0 {
		t.Errorf("reversed endpoints failed %d ops", got)
	}
	if got := checkUnion(published, []trapfile.Pair{a}); got != 1 {
		t.Errorf("a missing published pair failed %d ops, want 1", got)
	}
	if got := checkUnion(published, []trapfile.Pair{a, b, {A: "q:1", B: "r:2"}}); got != 1 {
		t.Errorf("an unpublished pair failed %d ops, want 1", got)
	}
}

func testBench(workload string) *bench {
	return &bench{workload: workload, seed: 7, window: time.Second, procs: 2,
		e2e: map[string]metric{}, layer: map[string]metric{}}
}

// The calls stream must be conflict-free, or its check fails the run.
func TestCallsStreamIsConflictFree(t *testing.T) {
	sess, err := tsvd.Install(tsvd.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	in := &inputs{streams: genCallStreams(7, 2), session: sess}
	p := newCallsPool(in, nil)
	for r := 0; r < 3; r++ {
		p.round(modeInstrumented, 2, 50*time.Millisecond)
	}
	p.close()
	st := sess.Stats()
	if st.OnCalls == 0 {
		t.Fatal("no instrumented calls reached the detector")
	}
	if got := checkCalls(st, len(sess.Bugs())); got != 0 {
		t.Errorf("conflict-free stream failed %d ops: %+v", got, st)
	}
}

// A full trapsync schedule against a live daemon ends with the daemon
// holding exactly the union of every publish.
func TestSyncScheduleConverges(t *testing.T) {
	d, err := startDaemon()
	if err != nil {
		t.Fatal(err)
	}
	defer d.stop()
	b := testBench("trapsync")
	total := &syncStats{}
	if bad := b.runSchedule(d, genSchedule(7, 2), total); bad != 0 {
		t.Errorf("daemon's final set is off by %d pairs", bad)
	}
	if total.errs != 0 || total.rounds != 2*syncRounds {
		t.Errorf("errs %d, rounds %d", total.errs, total.rounds)
	}
}

// The traced copy of the call path must call what collections' onCall
// calls and cost what the real op costs, or the traced run fails.
func TestCheckTracedCopy(t *testing.T) {
	const real = "../internal/collections/collections.go"
	b := testBench("calls")
	if got := b.checkTracedCopy(real, -0.05, 0.12); got != 0 {
		t.Errorf("a matching copy failed %d ops: %v", got, b.notes)
	}
	if got := b.checkTracedCopy(real, -0.7, 0.12); got != 1 {
		t.Errorf("a copy explaining 170%% of the op failed %d ops, want 1", got)
	}
	if got := b.checkTracedCopy(real, 0.02, 0.8); got != 1 {
		t.Errorf("a traced op 80%% dearer than the real one failed %d ops, want 1", got)
	}
	// onCall caching the goroutine id instead of calling CurrentThreadID.
	changed := filepath.Join(t.TempDir(), "collections.go")
	src := `package collections
func (b *instrumented) onCall(method string, kind core.Kind) {
	op := ids.CallerOp(1)
	b.det.OnCall(core.Access{Thread: b.thread, Op: op, Site: b.reg.ForCall(op, b.class, method, false)})
}
`
	if err := os.WriteFile(changed, []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	if got := b.checkTracedCopy(changed, 0, 0); got != 1 {
		t.Errorf("a changed onCall failed %d ops, want 1", got)
	}
	if got := b.checkTracedCopy(filepath.Join(t.TempDir(), "missing.go"), 0, 0); got != 1 {
		t.Errorf("a missing onCall failed %d ops, want 1", got)
	}
}
