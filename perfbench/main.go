// Command perfbench is the repository benchmark: it drives the detector
// through its public entry points on three workloads, checks their outputs,
// and prints end-to-end metrics (untraced) or per-layer metrics (traced).
//
// Usage, from the repository root:
//
//	bash perfbench/run.sh --workload calls|suite|trapsync --seed 2019 --seconds 18 --trace 0|1
//
// Every run executes all three phases so that it can print every end-to-end
// metric; the named workload's phase is the primary one and gets the
// --seconds measurement window, the other two run one fixed-size pass each.
// The last line of standard output is the JSON result.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// metric is one named measurement in the result line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the JSON object printed as the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// bench is one benchmark run: its parameters, the shared tracer (nil when
// untraced) and the accumulated results.
type bench struct {
	workload string
	seed     int64
	window   time.Duration
	procs    int
	tr       *tracer
	outDir   string

	e2e, layer map[string]metric
	notes      []string
	attempted  atomic.Int64
	failed     atomic.Int64
}

func (b *bench) setE2E(name string, v float64, unit string) { b.e2e[name] = metric{v, unit} }

func (b *bench) setLayer(name string, v float64, unit string) { b.layer[name] = metric{v, unit} }

func (b *bench) notef(format string, args ...any) {
	b.notes = append(b.notes, fmt.Sprintf(format, args...))
}

// ops counts attempted and failed operations.
func (b *bench) ops(attempted, failed int64) {
	b.attempted.Add(attempted)
	b.failed.Add(failed)
}

var workloads = []string{"calls", "trapsync", "suite"}

// phase is one workload's measurement, run in turns: turn(i, n) does the
// i-th of n shares of its work, and finish reports its metrics and checks.
type phase interface {
	turn(i, n int) error
	finish() error
}

// controlTurns is how many turns each secondary phase takes.
const controlTurns = 4

func main() {
	os.Exit(run())
}

func run() int {
	var (
		workload = flag.String("workload", "", "workload: calls, trapsync or suite")
		seed     = flag.Int64("seed", 2019, "input seed")
		seconds  = flag.Int("seconds", 18, "measurement window of the named workload's phase")
		traced   = flag.Int("trace", 0, "1 records spans and prints per-layer metrics; 0 prints end-to-end metrics")
		outDir   = flag.String("out", filepath.Join(".bench_build", "perfbench", "trace"), "directory the span file is written to in a traced run")
	)
	flag.Parse()
	if !slices.Contains(workloads, *workload) {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q (want one of %s)\n", *workload, strings.Join(workloads, ", "))
		return 2
	}
	if *seconds < 1 || (*traced != 0 && *traced != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: --seconds must be >= 1 and --trace 0 or 1")
		return 2
	}
	b := &bench{
		workload: *workload,
		seed:     *seed,
		window:   time.Duration(*seconds) * time.Second,
		procs:    runtime.GOMAXPROCS(0),
		outDir:   *outDir,
		e2e:      map[string]metric{},
		layer:    map[string]metric{},
	}
	if *traced == 1 {
		b.tr = newTracer()
		if err := os.MkdirAll(b.outDir, 0o755); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
			return 1
		}
	}
	host := fingerprint()
	fmt.Printf("host: nproc=%d GOMAXPROCS=%d cpu=%q go=%s commit=%s\n",
		host.NProc, host.GOMAXPROCS, host.CPU, host.Go, host.Commit)

	in, err := b.setup()
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: setup: %v\n", err)
		return 1
	}
	defer in.daemon.stop()

	newPhase := map[string]func(*inputs, bool) phase{
		"calls":    func(in *inputs, primary bool) phase { return b.newCallsRun(in, primary) },
		"suite":    func(in *inputs, primary bool) phase { return b.newSuiteRun(in, primary) },
		"trapsync": func(in *inputs, primary bool) phase { return b.newSyncRun(in, primary) },
	}
	// The primary phase runs first, in a fresh process and from a collected
	// heap, in one turn.
	runtime.GC()
	peak := watchHeap()
	primary := newPhase[b.workload](in, true)
	err = primary.turn(0, 1)
	if err == nil {
		err = primary.finish()
	}
	b.setE2E("peak_heap_mb", peak.stop()/(1<<20), "MB")
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", b.workload, err)
		return 1
	}
	// The secondary phases take controlTurns turns each, one after another,
	// so that each spreads over the whole secondary period: the host's speed
	// drifts over seconds, and a phase run in one stretch would catch one
	// spell of it.
	var controlNames []string
	var controls []phase
	for _, w := range workloads {
		if w != b.workload {
			controlNames, controls = append(controlNames, w), append(controls, newPhase[w](in, false))
		}
	}
	for i := 0; i < controlTurns; i++ {
		for k, p := range controls {
			runtime.GC()
			if err := p.turn(i, controlTurns); err != nil {
				fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", controlNames[k], err)
				return 1
			}
		}
	}
	for k, p := range controls {
		if err := p.finish(); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", controlNames[k], err)
			return 1
		}
	}

	if b.tr != nil {
		path := filepath.Join(*outDir, fmt.Sprintf("spans-%s-seed%d.jsonl", b.workload, b.seed))
		if err := b.tr.write(path, host); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
			return 1
		}
		b.notef("spans written to %s", path)
	}

	res := result{
		Attempted: b.attempted.Load(),
		Failed:    b.failed.Load(),
		Metrics:   b.e2e,
	}
	if b.tr != nil {
		res.Metrics = b.layer
	}
	res.Correct = res.Failed == 0 && res.Attempted > 0
	for _, n := range b.notes {
		fmt.Println(n)
	}
	names := make([]string, 0, len(res.Metrics))
	for n := range res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := res.Metrics[n]
		fmt.Printf("%-28s %14.6g %s\n", n, m.Value, m.Unit)
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			fmt.Fprintf(os.Stderr, "perfbench: metric %s is not a number\n", n)
			return 1
		}
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Println(string(line))
	return 0
}

// hostInfo is the fingerprint recorded with every result.
type hostInfo struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	CPU        string `json:"cpu"`
	Go         string `json:"go"`
	Commit     string `json:"commit"`
}

func fingerprint() hostInfo {
	h := hostInfo{
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		CPU:        "unknown",
		Go:         runtime.Version(),
		Commit:     "unknown",
	}
	if data, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				h.CPU = strings.TrimSpace(v)
				break
			}
		}
	}
	// A build from a tree with uncommitted changes measures other code than
	// its commit, so the commit reads <revision>+dirty.
	if bi, ok := debug.ReadBuildInfo(); ok {
		dirty := false
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				h.Commit = s.Value
			case "vcs.modified":
				dirty = s.Value == "true"
			}
		}
		if dirty && h.Commit != "unknown" {
			h.Commit += "+dirty"
		}
	}
	return h
}

// heapPeak samples the live Go heap (what the last GC cycle found
// reachable) until stopped and reports the largest value seen, so work
// moved into memory shows as its own metric. The live heap, unlike the
// heap's size at a given instant, does not depend on where in the GC cycle
// the sample falls.
type heapPeak struct {
	done chan struct{}
	wg   sync.WaitGroup
	peak float64
}

const heapMetric = "/gc/heap/live:bytes"

func watchHeap() *heapPeak {
	h := &heapPeak{done: make(chan struct{})}
	h.wg.Add(1)
	go func() {
		defer h.wg.Done()
		sample := []metrics.Sample{{Name: heapMetric}}
		tick := time.NewTicker(5 * time.Millisecond)
		defer tick.Stop()
		for {
			metrics.Read(sample)
			if v := float64(sample[0].Value.Uint64()); v > h.peak {
				h.peak = v
			}
			select {
			case <-h.done:
				return
			case <-tick.C:
			}
		}
	}()
	return h
}

// stop ends sampling and returns the peak heap in bytes.
func (h *heapPeak) stop() float64 {
	close(h.done)
	h.wg.Wait()
	return h.peak
}
