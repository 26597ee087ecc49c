package main

import (
	"bufio"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"time"

	"repro/internal/config"
	"repro/internal/harness"
	"repro/internal/trace"
	"repro/internal/triage"
	"repro/internal/workload"
)

// The suite workload: the paper's end-to-end use, test-suite time at a
// given recall. Each cycle runs a generated 200-module suite twice under
// TSVD with per-module trap persistence (tsvd-run's defaults: full mode,
// time scale 0.02), nproc modules at a time, then once uninstrumented.
// Call-bound tests (hotsafe, taskstorm) pay the prologue; delay-bound tests
// pay the delay, happens-before and decay policies; the trap store is not
// used.

const (
	suiteModules   = 200
	suiteRuns      = 2
	suiteTimeScale = 0.02
	maxSuiteCycles = 6 // suites generated for a primary phase
	layerPairs     = 3 // paired runs behind each traced suite comparison
)

// callBound are the test kinds whose overhead is the per-call prologue: they
// inject no delays.
var callBound = map[string]bool{"hotsafe": true, "taskstorm": true}

// suiteCount is how many distinct suites a run generates: one when the phase
// is secondary, maxSuiteCycles when it is primary.
func suiteCount(primary bool) int {
	if !primary {
		return 1
	}
	return maxSuiteCycles
}

// genSuites generates n suites: the first from seed itself, the others from
// seeds drawn from it.
func genSuites(seed int64, n int) []*workload.Suite {
	rng := rand.New(rand.NewSource(seed))
	out := []*workload.Suite{workload.GenerateSuite(seed, suiteModules)}
	for len(out) < n {
		out = append(out, workload.GenerateSuite(rng.Int63n(1<<31), suiteModules))
	}
	return out
}

func (b *bench) suiteOptions() harness.Options {
	return harness.Options{
		Config:      config.Defaults(config.AlgoTSVD).Scaled(suiteTimeScale),
		Runs:        suiteRuns,
		Parallelism: b.procs,
	}
}

// suiteCycle is one suite's instrumented and uninstrumented wall times.
type suiteCycle struct {
	out               *harness.Outcome
	suiteS, baselineS float64
}

// runCycle runs s twice instrumented, then once uninstrumented, and checks
// the instrumented outcome.
func (b *bench) runCycle(s *workload.Suite, opts harness.Options, l *lane) suiteCycle {
	var c suiteCycle
	root := l.newID()
	start := l.now()
	l.timed("harness.Run", root, root, func() {
		t := time.Now()
		c.out = harness.Run(s, opts)
		c.suiteS = time.Since(t).Seconds()
	})
	l.timed("harness.Baseline", root, root, func() {
		t := time.Now()
		harness.Baseline(s, opts)
		c.baselineS = time.Since(t).Seconds()
	})
	l.add(span{ID: root, Op: root, Name: "suite.cycle", Start: start, End: l.now()})
	b.checkOutcome("", c.out, len(s.Modules), opts.Runs)
	return c
}

// checkOutcome checks one instrumented suite execution; its module runs are
// the operations counted.
func (b *bench) checkOutcome(what string, out *harness.Outcome, modules, runs int) {
	failed := checkSuite(out)
	if failed > 0 {
		b.notef("suite: FAILED: %s%d pairs outside ground truth, %d trace events dropped",
			what, len(out.UnknownPairs), out.TraceTotals.Dropped)
	}
	b.ops(int64(modules*runs), failed)
}

// paired runs first and second back to back n times, alternating which
// goes first so that a drift of the host falls on both alike, and returns
// their wall times in seconds pair by pair.
func paired(n int, first, second func()) (firstS, secondS []float64) {
	timed := func(fn func()) float64 {
		t := time.Now()
		fn()
		return time.Since(t).Seconds()
	}
	for i := 0; i < n; i++ {
		if i%2 == 0 {
			a := timed(first)
			firstS, secondS = append(firstS, a), append(secondS, timed(second))
		} else {
			b := timed(second)
			firstS, secondS = append(firstS, timed(first)), append(secondS, b)
		}
	}
	return firstS, secondS
}

// suiteRun runs the suite cycles. A secondary phase runs one suite, in the
// middle turn. A primary one runs suites, at least two, for as long as the
// next one is expected to end within the window.
type suiteRun struct {
	b       *bench
	in      *inputs
	primary bool
	l       *lane
	cycles  []suiteCycle
}

func (b *bench) newSuiteRun(in *inputs, primary bool) *suiteRun {
	return &suiteRun{b: b, in: in, primary: primary, l: b.tr.lane()}
}

func (s *suiteRun) turn(i, n int) error {
	if i != n/2 {
		return nil
	}
	opts := s.b.suiteOptions()
	start := time.Now()
	for _, suite := range s.in.suites {
		s.cycles = append(s.cycles, s.b.runCycle(suite, opts, s.l))
		el := time.Since(start)
		if !s.primary || len(s.cycles) >= 2 && el+el/time.Duration(len(s.cycles)) > s.b.window {
			break
		}
	}
	return nil
}

func (s *suiteRun) finish() error {
	b, cycles := s.b, s.cycles
	var suiteS, baseS, found, planted []float64
	for i, c := range cycles {
		suiteS = append(suiteS, c.suiteS)
		baseS = append(baseS, c.baselineS)
		found = append(found, float64(c.out.TotalFound()))
		planted = append(planted, float64(s.in.suites[i].TotalPlantedBugs()))
	}
	// Each cycle is a different suite, so these are means over the run's
	// suites: per-suite totals, not samples of one distribution.
	b.setE2E("suite_s", mean(suiteS), "s")
	b.setE2E("suite_overhead_x", suiteOverheadX(mean(suiteS), suiteRuns, mean(baseS)), "x")
	b.setE2E("bugs_found", mean(found), "count")
	b.notef("suite: %d suite(s) of %d modules, %d runs each, parallelism %d: suite %.3f s, baseline %.3f s, bugs %.1f of %.1f planted",
		len(cycles), suiteModules, suiteRuns, b.procs, mean(suiteS), mean(baseS), mean(found), mean(planted))
	if b.tr == nil {
		return nil
	}
	return b.suiteLayers(s.in, cycles, s.l)
}

// suiteLayers is the traced part of the suite phase: detector counters of
// the measured cycles, the overhead of each test group, and the cost of the
// operator's trace and triage path.
func (b *bench) suiteLayers(in *inputs, cycles []suiteCycle, l *lane) error {
	per := func(f func(c suiteCycle) float64) float64 {
		xs := make([]float64, len(cycles))
		for i, c := range cycles {
			xs[i] = f(c)
		}
		return mean(xs)
	}
	b.setLayer("core.oncalls", per(func(c suiteCycle) float64 { return float64(c.out.Stats.OnCalls) }), "count")
	b.setLayer("core.delays", per(func(c suiteCycle) float64 { return float64(c.out.Stats.DelaysInjected) }), "count")
	b.setLayer("core.delay_s", per(func(c suiteCycle) float64 { return c.out.Stats.TotalDelay.Seconds() }), "s")
	b.setLayer("core.near_misses", per(func(c suiteCycle) float64 { return float64(c.out.Stats.NearMisses) }), "count")
	b.setLayer("core.pairs_added", per(func(c suiteCycle) float64 { return float64(c.out.Stats.PairsAdded) }), "count")
	b.setLayer("core.pairs_pruned_hb", per(func(c suiteCycle) float64 { return float64(c.out.Stats.PairsPrunedHB) }), "count")
	b.setLayer("core.pairs_pruned_decay", per(func(c suiteCycle) float64 { return float64(c.out.Stats.PairsPrunedDecay) }), "count")
	b.setLayer("core.bugs_run2", per(func(c suiteCycle) float64 { return float64(c.out.NewBugsByRun[suiteRuns-1]) }), "count")
	b.setLayer("core.delay_yield", per(func(c suiteCycle) float64 {
		return float64(c.out.Stats.Violations) / float64(c.out.Stats.DelaysInjected)
	}), "frac")
	b.setLayer("harness.baseline_s", per(func(c suiteCycle) float64 { return c.baselineS }), "s")

	// Overhead per test group: the first suite filtered to each group, run
	// instrumented and uninstrumented in layerPairs pairs; the metric is the
	// median over pairs of the difference per run.
	s := in.suites[0]
	opts := b.suiteOptions()
	for _, g := range []struct {
		name     string
		callOnly bool
	}{{"suite.callbound_extra_s", true}, {"suite.delaybound_extra_s", false}} {
		fs := filterSuite(s, g.callOnly)
		root := l.newID()
		start := l.now()
		inst, base := paired(layerPairs, func() {
			var out *harness.Outcome
			l.timed("harness.Run", root, root, func() { out = harness.Run(fs, opts) })
			b.checkOutcome(g.name+": ", out, len(fs.Modules), opts.Runs)
		}, func() {
			l.timed("harness.Baseline", root, root, func() { harness.Baseline(fs, opts) })
		})
		extra := make([]float64, layerPairs)
		for i := range extra {
			extra[i] = (inst[i] - base[i]*suiteRuns) / suiteRuns
		}
		b.setLayer(g.name, median(extra), "s")
		l.add(span{ID: root, Op: root, Name: g.name, Start: start, End: l.now()})
	}

	// The traced suite: Config.Trace on, run in layerPairs pairs with the
	// untraced suite; trace.overhead_frac is the median over pairs of the
	// traced ÷ untraced wall, less one. Then the operator's -trace and
	// -triage work is timed on the first traced outcome.
	topts := opts
	topts.Config.Trace = true
	var traced *harness.Outcome
	root := l.newID()
	tracedStart := l.now()
	untracedS, tracedS := paired(layerPairs, func() {
		var out *harness.Outcome
		l.timed("harness.Run", root, root, func() { out = harness.Run(s, opts) })
		b.checkOutcome("untraced run: ", out, len(s.Modules), opts.Runs)
	}, func() {
		var out *harness.Outcome
		l.timed("harness.Run.traced", root, root, func() { out = harness.Run(s, topts) })
		b.checkOutcome("traced run: ", out, len(s.Modules), opts.Runs)
		if traced == nil {
			traced = out
		}
	})
	ratios := make([]float64, layerPairs)
	for i := range ratios {
		ratios[i] = tracedS[i]/untracedS[i] - 1
	}
	b.setLayer("trace.overhead_frac", median(ratios), "frac")

	path := filepath.Join(b.outDir, fmt.Sprintf("events-%d.jsonl", os.Getpid()))
	writeStart := time.Now()
	var events int64
	var werr error
	l.timed("trace.WriteJSONL", root, root, func() { events, werr = writeEvents(path, traced) })
	l.timed("trace.Aggregate", root, root, func() { trace.Aggregate(traced.Traces) })
	b.setLayer("trace.write_ms", float64(time.Since(writeStart).Microseconds())/1e3, "ms")
	os.Remove(path)
	if werr != nil {
		return werr
	}
	b.setLayer("trace.events", float64(events), "count")

	foldStart := time.Now()
	tri := triage.New()
	l.timed("triage.AddRun", root, root, func() {
		tri.AddRun(traced.Reports, traced.Traces, triage.Provenance{Source: "perfbench"})
	})
	l.timed("triage.Clusters", root, root, func() { tri.Clusters() })
	b.setLayer("triage.fold_ms", float64(time.Since(foldStart).Microseconds())/1e3, "ms")
	l.add(span{ID: root, Op: root, Name: "suite.traced", Start: tracedStart, End: l.now()})
	return nil
}

// writeEvents writes every drained module trace as JSON lines, as tsvd-run
// -trace does, and returns the number of events written.
func writeEvents(path string, out *harness.Outcome) (int64, error) {
	f, err := os.Create(path)
	if err != nil {
		return 0, fmt.Errorf("trace events: %w", err)
	}
	w := bufio.NewWriter(f)
	var n int64
	for _, mt := range out.Traces {
		if err := trace.WriteJSONL(w, mt, out.Sites); err != nil {
			f.Close()
			return 0, fmt.Errorf("trace events: %w", err)
		}
		n += int64(len(mt.Events))
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return 0, fmt.Errorf("trace events: %w", err)
	}
	return n, f.Close()
}

// filterSuite keeps, in every module, only the call-bound tests (callOnly)
// or only the others. Planted bugs stay as ground truth.
func filterSuite(s *workload.Suite, callOnly bool) *workload.Suite {
	out := &workload.Suite{Seed: s.Seed}
	for _, m := range s.Modules {
		fm := &workload.Module{Name: m.Name, Bugs: m.Bugs}
		for _, t := range m.Tests {
			if callBound[t.Name] == callOnly {
				fm.Tests = append(fm.Tests, t)
			}
		}
		if len(fm.Tests) > 0 {
			out.Modules = append(out.Modules, fm)
		}
	}
	return out
}
