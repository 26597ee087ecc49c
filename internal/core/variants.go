package core

import (
	"sync"

	"repro/internal/config"
	"repro/internal/ids"
	"repro/internal/report"
	"repro/internal/sites"
	"repro/internal/trace"
)

// DynamicRandom (§3.2) treats every TSVD point as an eligible delay location
// and injects a delay at a random subset of dynamic occurrences: should_delay
// returns true with a small fixed probability, and the delay length itself is
// random. Hot paths therefore soak up most of the delays — the weakness
// StaticRandom and TSVD address.
type DynamicRandom struct {
	nopSyncHooks
	rt runtime
}

func newDynamicRandom(cfg config.Config, o options) *DynamicRandom {
	d := &DynamicRandom{}
	d.rt.init(cfg, o)
	return d
}

// OnCall implements Detector.
func (d *DynamicRandom) OnCall(a Access) {
	d.rt.stats.onCalls.Add(1)
	d.rt.resolveSite(&a)
	if d.rt.parked.Load() > 0 {
		if os := d.rt.objs.Get(int64(a.Obj)); os != nil {
			os.mu.Lock()
			d.rt.checkForTraps(os, a, ids.Stack, false)
			os.mu.Unlock()
		}
	}
	// Sampling gate (ModeSampled, docs/SAMPLING.md) — after the trap check.
	// The random variants already pay a shared-RNG draw per call, so the
	// gate reuses that source rather than per-thread state. The controller
	// tick runs before the delay branch: delay time is charged separately
	// inside injectDelay, so nothing is counted twice.
	if d.rt.samp != nil && !d.rt.samp.Admit(a.Site, d.rt.randUint64()) {
		d.rt.stats.callsSampledOut.Add(1)
		if d.rt.samp.Capped() {
			d.rt.sampleTick(d.rt.now())
		}
		return
	}
	d.rt.markSeen(a.Site, a.Op, false)
	if d.rt.samp != nil {
		d.rt.sampleTick(d.rt.now())
	}
	if d.rt.randFloat() < d.rt.cfg.RandomDelayProbability {
		// "the thread sleeps for a random amount of time" — uniform in
		// (0, DelayTime].
		dur := d.rt.randDurationUpTo(d.rt.delayTime)
		if d.rt.tr != nil {
			d.rt.tr.Emit(trace.KindDelayPlanned, a.Thread, a.Obj, a.Op, 0, d.rt.now(), dur)
		}
		d.rt.injectDelay(a, dur)
	}
}

// Sites implements Detector.
func (d *DynamicRandom) Sites() *sites.Registry { return d.rt.sites }

// Reports implements Detector.
func (d *DynamicRandom) Reports() *report.Collector { return d.rt.reports }

// Stats implements Detector.
func (d *DynamicRandom) Stats() Stats { return d.rt.snapshotStats() }

// ExportTraps implements Detector; random variants keep no trap set.
func (d *DynamicRandom) ExportTraps() []report.PairKey { return nil }

// Tracer implements Detector.
func (d *DynamicRandom) Tracer() *trace.Tracer { return d.rt.tr }

// StaticRandom (§3.3) emulates DataCollider: static program locations are
// sampled uniformly, irrespective of how often each executes, so cold paths
// get the same attention as hot loops.
//
// Mechanically (mirroring DataCollider's continuously replenished code
// breakpoints): every known location is armed with probability
// StaticSampleProbability per sampling window; an armed location fires a
// full-length delay on its next execution and disarms until the window
// rolls over (every resamplePeriod observed calls). Delay volume therefore
// scales with the number of static locations — the "many delay locations,
// no analysis" corner of Figure 2 — rather than with execution counts.
//
// The armed table is the variant's own cross-thread state and keeps its own
// small lock; the shared runtime underneath is the lock-free one.
type StaticRandom struct {
	nopSyncHooks
	rt runtime

	mu    sync.Mutex
	armed map[ids.OpID]bool
	calls int64
}

// resamplePeriod is how many OnCalls pass between re-arming rounds.
const resamplePeriod = 200

func newStaticRandom(cfg config.Config, o options) *StaticRandom {
	s := &StaticRandom{armed: map[ids.OpID]bool{}}
	s.rt.init(cfg, o)
	return s
}

// OnCall implements Detector.
func (s *StaticRandom) OnCall(a Access) {
	s.rt.stats.onCalls.Add(1)
	s.rt.resolveSite(&a)
	if s.rt.parked.Load() > 0 {
		if os := s.rt.objs.Get(int64(a.Obj)); os != nil {
			os.mu.Lock()
			s.rt.checkForTraps(os, a, ids.Stack, false)
			os.mu.Unlock()
		}
	}
	// Sampling gate, mirroring DynamicRandom.
	if s.rt.samp != nil && !s.rt.samp.Admit(a.Site, s.rt.randUint64()) {
		s.rt.stats.callsSampledOut.Add(1)
		if s.rt.samp.Capped() {
			s.rt.sampleTick(s.rt.now())
		}
		return
	}
	s.rt.markSeen(a.Site, a.Op, false)
	if s.rt.samp != nil {
		s.rt.sampleTick(s.rt.now())
	}

	s.mu.Lock()
	armed, known := s.armed[a.Op]
	if !known {
		armed = s.rt.randFloat() < s.rt.cfg.StaticSampleProbability
		s.armed[a.Op] = armed
	}
	s.calls++
	if s.calls%resamplePeriod == 0 {
		for op, isArmed := range s.armed {
			if !isArmed {
				s.armed[op] = s.rt.randFloat() < s.rt.cfg.StaticSampleProbability
			}
		}
	}
	if armed {
		s.armed[a.Op] = false // breakpoints fire once per arming
	}
	s.mu.Unlock()
	if armed {
		if s.rt.tr != nil {
			s.rt.tr.Emit(trace.KindDelayPlanned, a.Thread, a.Obj, a.Op, 0, s.rt.now(), s.rt.delayTime)
		}
		s.rt.injectDelay(a, s.rt.delayTime)
	}
}

// Sites implements Detector.
func (s *StaticRandom) Sites() *sites.Registry { return s.rt.sites }

// Reports implements Detector.
func (s *StaticRandom) Reports() *report.Collector { return s.rt.reports }

// Stats implements Detector.
func (s *StaticRandom) Stats() Stats { return s.rt.snapshotStats() }

// ExportTraps implements Detector.
func (s *StaticRandom) ExportTraps() []report.PairKey { return nil }

// Tracer implements Detector.
func (s *StaticRandom) Tracer() *trace.Tracer { return s.rt.tr }
