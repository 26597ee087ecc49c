package core

import (
	"sync"
	"time"

	"repro/internal/metrics"
)

// DetectorMetrics exports live detector state into a metrics.Registry
// (docs/OBSERVABILITY.md, "Live metrics"). One DetectorMetrics can be
// attached to any number of detectors via WithDetectorMetrics — the harness
// attaches every module detector of a suite to one instance, so the
// registry's view is the suite-wide sum, live while modules are still
// running.
//
// Two export mechanisms, chosen per metric by what keeps the hot path free:
//
//   - Every Stats counter (and the parked/trap-set gauges) is exported as a
//     function-backed series reading the runtime's existing atomics at
//     scrape time. The hot path gains zero work, and the exported value
//     reconciles exactly against Detector.Stats by construction.
//   - The three histograms (near-miss gap, granted delay, trap-set
//     occupancy) have no pre-existing source, so they observe directly —
//     but only on detector *action* paths (a near miss, a granted delay, a
//     pair insertion), which are rare relative to OnCall volume and already
//     off the conflict-free fast path. Each Observe is a short bounds scan
//     plus three atomic adds, allocation-free.
//
// Exact-reconciliation contract (enforced by internal/harness
// TestSmokeMetrics): the gap histogram's count equals Stats.NearMisses, the
// granted-delay histogram's count equals Stats.DelaysInjected, and the
// occupancy histogram's count equals Stats.PairsAdded — every increment of
// those counters is co-located with exactly one Observe.
type DetectorMetrics struct {
	gaps      *metrics.Histogram
	delays    *metrics.Histogram
	occupancy *metrics.Histogram

	mu   sync.Mutex
	rts  []*runtime
	sets []trapSetSizer
}

// trapSetSizer is what TSVD and TSVDHB expose for the trap-set gauge; the
// random variants keep no trap set and register nil.
type trapSetSizer interface{ TrapSetSize() int }

// NewDetectorMetrics registers the detector metric family on reg and returns
// the instance to attach with WithDetectorMetrics. reg may be nil, in which
// case every exported series is dropped and the histograms are nil (their
// Observe hooks become no-ops) — "metrics off" costs nothing.
func NewDetectorMetrics(reg *metrics.Registry) *DetectorMetrics {
	m := &DetectorMetrics{
		// Powers-of-two µs from 1µs to ~524ms, mirroring Stats.NearMissGaps
		// (§6 discusses 154–3505µs observed windows; the range brackets it).
		gaps: reg.Histogram("tsvd_detector_near_miss_gap_seconds",
			"Time gap between the two sides of each near miss.",
			1e-9, metrics.ExpBounds(int64(time.Microsecond), 2, 20)),
		// Granted delays scale with Config.DelayTime (100ms unscaled):
		// 100µs up to ~3.3s covers every TimeScale the suite uses.
		delays: reg.Histogram("tsvd_detector_granted_delay_seconds",
			"Delay durations granted by the per-thread budget at injection.",
			1e-9, metrics.ExpBounds(int64(100*time.Microsecond), 2, 15)),
		occupancy: reg.Histogram("tsvd_detector_trap_set_occupancy_pairs",
			"Trap-set size observed at each pair insertion.",
			1, metrics.ExpBounds(1, 2, 11)),
	}
	counter := func(name, help string, read func(Stats) float64) {
		reg.CounterFunc(name, help, func() float64 { return read(m.sum()) })
	}
	counter("tsvd_detector_on_calls_total",
		"Instrumented thread-unsafe calls observed.",
		func(s Stats) float64 { return float64(s.OnCalls) })
	counter("tsvd_detector_delays_injected_total",
		"Injected delays (trap set and slept).",
		func(s Stats) float64 { return float64(s.DelaysInjected) })
	counter("tsvd_detector_delay_seconds_total",
		"Cumulative injected delay time.",
		func(s Stats) float64 { return s.TotalDelay.Seconds() })
	counter("tsvd_detector_near_misses_total",
		"Dangerous-pair sightings within the near-miss window.",
		func(s Stats) float64 { return float64(s.NearMisses) })
	counter("tsvd_detector_pairs_added_total",
		"Unique pairs ever added to the trap set.",
		func(s Stats) float64 { return float64(s.PairsAdded) })
	counter("tsvd_detector_pairs_pruned_hb_total",
		"Pairs pruned by happens-before inference or analysis.",
		func(s Stats) float64 { return float64(s.PairsPrunedHB) })
	counter("tsvd_detector_pairs_pruned_decay_total",
		"Pairs pruned by probability decay.",
		func(s Stats) float64 { return float64(s.PairsPrunedDecay) })
	counter("tsvd_detector_violations_total",
		"Thread-safety violations caught red-handed (pre-dedup).",
		func(s Stats) float64 { return float64(s.Violations) })
	counter("tsvd_detector_locations_seen_total",
		"Distinct static TSVD points executed.",
		func(s Stats) float64 { return float64(s.LocationsSeen) })
	counter("tsvd_detector_locations_seen_concurrent_total",
		"Distinct TSVD points executed during a concurrent phase.",
		func(s Stats) float64 { return float64(s.LocationsSeenConcurrent) })
	counter("tsvd_detector_sequential_skips_total",
		"Near-miss candidates discarded in sequential phases.",
		func(s Stats) float64 { return float64(s.SequentialSkips) })
	counter("tsvd_detector_stamps_raised_total",
		"Shared-mode access timestamps raised to the object's newest history entry.",
		func(s Stats) float64 { return float64(s.StampsRaised) })
	counter("tsvd_sampler_calls_sampled_out_total",
		"Instrumented calls skipped by the sampling gate (ModeSampled).",
		func(s Stats) float64 { return float64(s.CallsSampledOut) })
	counter("tsvd_sampler_delays_suppressed_total",
		"Delays vetoed by observe-only mode (logical trap firings).",
		func(s Stats) float64 { return float64(s.DelaysSuppressed) })
	counter("tsvd_sampler_throttles_total",
		"Adaptive-sampling controller adjustments toward the overhead target.",
		func(s Stats) float64 { return float64(s.SamplerThrottles) })
	reg.CounterFunc("tsvd_trace_emitted_total",
		"Trace events accepted into the per-detector ring buffers.",
		func() float64 { e, _ := m.traceTotals(); return float64(e) })
	reg.CounterFunc("tsvd_trace_dropped_total",
		"Trace events lost to ring overflow (non-zero corrupts explanation slices; see docs/OBSERVABILITY.md).",
		func() float64 { _, d := m.traceTotals(); return float64(d) })
	reg.GaugeFunc("tsvd_sampler_probability",
		"Minimum current global admission probability across attached sampled-mode detectors (1 when none).",
		func() float64 { return m.samplerProbability() })
	reg.GaugeFunc("tsvd_detector_parked_threads",
		"Threads currently parked in an injected delay.",
		func() float64 { return float64(m.parked()) })
	reg.GaugeFunc("tsvd_detector_trap_set_pairs",
		"Live dangerous pairs across attached trap sets.",
		func() float64 { return float64(m.trapSetPairs()) })
	reg.GaugeFunc("tsvd_detector_instances",
		"Detector instances attached to this registry.",
		func() float64 { return float64(m.instances()) })
	return m
}

// attach registers a detector's runtime (and its trap set, when it has one)
// for the scrape-time sums. Called by New; nil-safe.
func (m *DetectorMetrics) attach(r *runtime, set trapSetSizer) {
	if m == nil {
		return
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	m.rts = append(m.rts, r)
	if set != nil {
		m.sets = append(m.sets, set)
	}
}

// sum snapshots and sums the attached runtimes' counters. Scrape-time only;
// snapshotStats is lock-free, so a scrape never blocks a running detector.
func (m *DetectorMetrics) sum() Stats {
	m.mu.Lock()
	rts := append([]*runtime(nil), m.rts...)
	m.mu.Unlock()
	var out Stats
	for _, r := range rts {
		s := r.snapshotStats()
		out.OnCalls += s.OnCalls
		out.DelaysInjected += s.DelaysInjected
		out.TotalDelay += s.TotalDelay
		out.NearMisses += s.NearMisses
		out.PairsAdded += s.PairsAdded
		out.PairsPrunedHB += s.PairsPrunedHB
		out.PairsPrunedDecay += s.PairsPrunedDecay
		out.Violations += s.Violations
		out.LocationsSeen += s.LocationsSeen
		out.LocationsSeenConcurrent += s.LocationsSeenConcurrent
		out.SequentialSkips += s.SequentialSkips
		out.CallsSampledOut += s.CallsSampledOut
		out.DelaysSuppressed += s.DelaysSuppressed
		out.SamplerThrottles += s.SamplerThrottles
		out.StampsRaised += s.StampsRaised
		out.NearMissGaps.Add(s.NearMissGaps)
	}
	return out
}

// samplerProbability reports the lowest current admission probability among
// attached sampled-mode detectors — the most-throttled view, which is the
// one an operator watching an overhead SLO cares about. 1 when no attached
// detector samples.
func (m *DetectorMetrics) samplerProbability() float64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	p := 1.0
	for _, r := range m.rts {
		if r.samp != nil && r.samp.Probability() < p {
			p = r.samp.Probability()
		}
	}
	return p
}

// traceTotals sums the attached tracers' cumulative emit/drop counters.
// Detectors without tracing attach a nil tracer, whose Totals are zero.
func (m *DetectorMetrics) traceTotals() (emitted, dropped int64) {
	m.mu.Lock()
	defer m.mu.Unlock()
	for _, r := range m.rts {
		t := r.tr.Totals()
		emitted += t.Emitted
		dropped += t.Dropped
	}
	return emitted, dropped
}

func (m *DetectorMetrics) parked() int64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	var n int64
	for _, r := range m.rts {
		n += r.parked.Load()
	}
	return n
}

func (m *DetectorMetrics) trapSetPairs() int64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	var n int64
	for _, s := range m.sets {
		n += int64(s.TrapSetSize())
	}
	return n
}

func (m *DetectorMetrics) instances() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.rts)
}

// observeGap records one near-miss gap (0 for TSVDHB, which proves
// concurrency by clocks rather than time windows). Nil-safe; co-located
// with every stats.nearMisses increment.
func (m *DetectorMetrics) observeGap(d time.Duration) {
	if m == nil {
		return
	}
	m.gaps.Observe(int64(d))
}

// observeDelay records one granted delay. Nil-safe; co-located with every
// stats.delaysInjected increment.
func (m *DetectorMetrics) observeDelay(d time.Duration) {
	if m == nil {
		return
	}
	m.delays.Observe(int64(d))
}

// observeOccupancy records the trap-set size right after a pair insertion.
// Nil-safe; co-located with every stats.pairsAdded increment.
func (m *DetectorMetrics) observeOccupancy(pairs int) {
	if m == nil {
		return
	}
	m.occupancy.Observe(int64(pairs))
}
