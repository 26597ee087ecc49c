package core

import (
	"sync"
	"time"

	"repro/internal/config"
	"repro/internal/fasttime"
	"repro/internal/ids"
	"repro/internal/report"
	"repro/internal/sampler"
	"repro/internal/sites"
	"repro/internal/trace"
)

// TSVD is the paper's detector (§3.4). It identifies dangerous pairs by
// near-miss tracking, restricts them to concurrent phases, prunes them with
// happens-before *inference* driven by its own delay injections, decays
// unproductive delay locations, and performs planning and injection in the
// same run.
//
// State ownership (docs/PERFORMANCE.md has the full model):
//
//   - per-object state (near-miss rings, parked traps) lives in the
//     runtime's lock-free object registry, one entry and one spin lock per
//     ObjectID;
//   - per-thread state — HB inference, the sampling RNG, the hot counters —
//     is thread-local (each runtime.threads entry is only ever touched by
//     its own goroutine, except the atomic counters snapshots read);
//   - per-site state (coverage, sampler admission) is indexed by dense
//     SiteIDs in plain arrays;
//   - the trap set and the finished-delay log keep small cold-path locks.
type TSVD struct {
	nopSyncHooks // TSVD is oblivious to synchronization by design

	rt    runtime
	phase *phaseRing
	set   trapSet

	// delayMu guards recentDelays, the finished-delay log for gap
	// attribution (§3.4.4) — the only cross-thread HB-inference state. It
	// is taken when a delay finishes and when an inter-access gap passes
	// the δ_hb threshold, both rare events off the fast path.
	delayMu      sync.Mutex
	recentDelays []delayRecord
}

type histEntry struct {
	thread ids.ThreadID
	op     ids.OpID
	kind   Kind
	at     time.Duration
}

// objHistory is a fixed-capacity ring of the most recent accesses (§3.4.2
// keeps "a global hash table" of these — ours hangs one off each object's
// state). Only touched under the object's lock.
type objHistory struct {
	entries []histEntry
	next    int
	full    bool
}

func newObjHistory(capacity int) *objHistory {
	return &objHistory{entries: make([]histEntry, capacity)}
}

func (h *objHistory) add(e histEntry) {
	h.entries[h.next] = e
	h.next++
	if h.next == len(h.entries) {
		h.next = 0
		h.full = true
	}
}

// each visits the recorded entries newest first. The §3.4.2 near-miss scan
// wants the most recent conflicting access preferred: it is the one whose
// gap is smallest and therefore the sighting most likely to reflect a real
// interleaving opportunity (and the one the gap histogram should measure).
// (OnCall inlines this walk; each remains for tests and cold callers.)
func (h *objHistory) each(fn func(histEntry)) {
	n := len(h.entries)
	if !h.full {
		n = h.next
	}
	for i := 0; i < n; i++ {
		idx := h.next - 1 - i
		if idx < 0 {
			idx += len(h.entries)
		}
		fn(h.entries[idx])
	}
}

type inheritance struct {
	from      ids.OpID
	remaining int
}

type delayRecord struct {
	thread     ids.ThreadID
	op         ids.OpID
	start, end time.Duration
}

// maxRecentDelays bounds the delay log scanned by HB inference. Delays
// older than every thread's previous access can never satisfy the overlap
// condition, so a short suffix is sufficient.
const maxRecentDelays = 256

func newTSVD(cfg config.Config, o options) *TSVD {
	d := &TSVD{set: newTrapSet()}
	d.rt.init(cfg, o)
	if !cfg.DisablePhaseDetection {
		d.phase = newPhaseRing(cfg.PhaseBufferSize)
	}
	for _, key := range o.initialTraps {
		if d.set.add(key, &d.rt.stats, d.rt.met) {
			d.rt.tr.Emit(trace.KindPairAdded, 0, 0, key.A, key.B, 0, 0)
		}
	}
	return d
}

// OnCall implements Detector; it is the OnCall of Figure 5 with TSVD's
// should_delay (§3.4.1–§3.4.6). While the object has only ever been touched
// by the calling thread — the overwhelmingly common case in the paper's
// workloads — the path is lock-free end to end: the timestamp is one TSC
// read, per-thread and per-object state are cached probes, the near-miss
// scan is skipped outright (every entry would fail the different-thread
// test), and recording the access is plain stores plus one publication CAS
// that doubles as the OnCalls counter. Contended objects funnel through
// recordSlow under the object's spin lock.
func (d *TSVD) OnCall(a Access) {
	rt := &d.rt
	// rt.now(), thread-state lookup and markSeen below are expanded inline:
	// each is a leaf the inliner rejects only because of its cold branch,
	// and on a path this hot the call overhead alone is measurable.
	st, fastOK := rt.threads.GetFast(int64(a.Thread))
	if !fastOK {
		st = rt.threadStateFor(a.Thread)
	}
	rt.resolveSite(&a)

	// The object state is resolved lazily: the lock-free publication path
	// below reaches it through the thread's ring cache, so os is only
	// needed by the trap check (parked traps exist) and the recordSlow
	// fallback.
	var os *objState

	// check_for_trap: catch conflicting parked threads red-handed. A pair
	// with a reported violation leaves the trap set for good. While no
	// trap is parked anywhere (the common case) the scan is skipped via
	// one atomic load.
	if rt.parked.Load() > 0 {
		os = st.cachedState
		if os == nil || st.cachedObj != a.Obj {
			os = rt.objStateFor(st, a.Obj)
		}
		os.mu.Lock()
		found := rt.checkForTraps(os, a, ids.Stack, false)
		os.mu.Unlock()
		for _, key := range found {
			d.set.suppress(key)
		}
	}

	// Sampling gate (ModeSampled, docs/SAMPLING.md). Placed after the trap
	// check on purpose: a sampled-out call still springs any parked trap it
	// conflicts with, so red-handed catching keeps its soundness regardless
	// of the admission probability — sampling only sheds the analysis and
	// planning cost below. The draw is a thread-local xorshift plus one
	// array-indexed per-site threshold compare.
	if rt.samp != nil && !rt.samp.Admit(a.Site, sampler.Rand(&st.rng)) {
		st.onCalls.Add(1)
		st.sampledOut.Add(1)
		// While the interval budget is exhausted, Admit refuses everything
		// and the admitted-path tick hook below is unreachable — the skip
		// path must offer the controller its tick or admission would stay
		// suspended forever. One atomic load when not capped.
		if rt.samp.Capped() {
			rt.sampleTick(rt.now())
		}
		return
	}
	// No OnCalls counter here: the admitted path is counted by the ring
	// publication below (snapshotStats sums publications across objects).

	// Concurrent-phase inference (lock-free ring) and coverage marking
	// (markSeen's fully-marked fast case, expanded inline). The phase ring's
	// steady sequential case is expanded too: the ring's packed word equal
	// to this thread's steady value means run == count == window — one load,
	// one compare, no store. Thread switches and warm-up fall back to
	// observe.
	concurrent := true
	if p := d.phase; p != nil {
		if p.state.Load() == st.phaseSteady {
			concurrent = false
		} else {
			concurrent = p.observe(a.Thread)
			st.phaseSteady = uint64(uint32(a.Thread))<<32 | p.steady
		}
	}
	cwant := uint32(coverSeen)
	if concurrent {
		cwant |= coverConcurrent
	}
	if ct := rt.cover.Load(); ct == nil || int(a.Site) >= len(*ct) || (*ct)[a.Site].Load()&cwant != cwant {
		rt.markSeenSlow(a.Site, a.Op, cwant)
	}

	// The timestamp is read here, after every piece of work that does not
	// need it: on this VM the TSC read quasi-serializes the pipeline, so
	// instructions placed after it pay its full latency while instructions
	// before it run free. The few-ns shift in what "arrival time" means is
	// uniform across calls and cancels out of every inter-access gap.
	var t time.Duration
	if rt.fastClock {
		t = fasttime.SinceTicks(rt.startTicks)
	} else {
		t = rt.nowSlow()
	}

	// Happens-before inference on this thread's inter-access gap, plus
	// consumption of any pending k_hb inheritance windows. Must run before
	// lastAccess is overwritten below. The guard is inlined so the
	// steady-state call — window empty, gap under δ_hb — costs two compares
	// and no function call.
	if !rt.cfg.DisableHBInference {
		if len(st.inherits) != 0 || t >= st.hbDeadline {
			d.inferHB(st, a, t)
		}
	}

	// Near-miss tracking over the object's recent accesses, newest first,
	// and recording of this access. While this thread owns the object's
	// publication ring (cached on the thread state, so the probe is two
	// loads from a line already hot), recording is plain entry stores plus
	// one CAS; everything else (first sighting, ring rotation, the takeover
	// by a second thread, shared-mode scans) funnels through recordSlow
	// under the object's lock. Pair insertion happens outside any object
	// lock: the trap set has its own lock and nothing orders the two.
	published := false
	if rg := st.cachedRing; rg != nil && st.cachedRingObj == a.Obj {
		// The length test subsumes the closed-bit test: a closed counter has
		// ringClosed (1<<63) set, far beyond any entry count.
		if n := rg.pub.Load(); n < uint64(len(rg.entries)) {
			rg.entries[n] = histEntry{thread: a.Thread, op: a.Op, kind: a.Kind, at: t}
			published = rg.pub.CompareAndSwap(n, n+1)
		}
	}
	if !published {
		if os == nil {
			os = st.cachedState
			if os == nil || st.cachedObj != a.Obj {
				os = rt.objStateFor(st, a.Obj)
			}
		}
		for _, key := range d.recordSlow(st, os, a, t, concurrent) {
			if d.set.add(key, &rt.stats, rt.met) {
				rt.tr.Emit(trace.KindPairAdded, a.Thread, a.Obj, key.A, key.B, t, 0)
			}
		}
	}

	// Record this access in the thread-local HB state.
	st.lastAccess = t
	st.ownDelay = 0
	st.hbDeadline = t + rt.hbThreshold

	// Charge the analysis time of this admitted call to the overhead
	// controller and give it a chance to tick. Sleep time is charged
	// separately inside injectDelay, so nothing is counted twice.
	if rt.samp != nil {
		now := rt.now()
		rt.samp.ObserveCost(now - t)
		rt.sampleTick(now)
	}

	// should_delay: the location must participate in a live dangerous
	// pair, and its decayed probability must pass a coin flip. An empty
	// trap set short-circuits everything with one atomic load.
	if d.set.empty() {
		return
	}
	prob, ok := d.set.eligible(a.Op)
	if !ok || rt.randFloat() >= prob {
		return
	}
	if rt.cfg.AvoidOverlappingDelays && rt.anyTrapSet() {
		return
	}
	rt.tr.Emit(trace.KindDelayPlanned, a.Thread, a.Obj, a.Op, 0, t, rt.delayTime)
	trap, slept := rt.injectDelay(a, rt.delayTime) // sleeps unlocked
	if trap == nil {
		return
	}
	for _, key := range trap.sprang {
		d.set.suppress(key)
	}
	end := rt.now()
	d.delayMu.Lock()
	d.recentDelays = append(d.recentDelays, delayRecord{
		thread: a.Thread, op: a.Op, start: t, end: end,
	})
	if len(d.recentDelays) > maxRecentDelays {
		d.recentDelays = d.recentDelays[len(d.recentDelays)-maxRecentDelays:]
	}
	d.delayMu.Unlock()
	st.ownDelay += slept
	st.hbDeadline += slept
	if !trap.conflict {
		d.set.decayAfterFailedDelay(a.Op, rt.cfg.DecayFactor,
			rt.cfg.PruneProbability, &rt.stats, rt.tr, end)
	}
}

// recordSlow is everything the lock-free publication path cannot do, under
// the object's spin lock: claiming an untouched object for single-writer
// mode, re-arming the thread's ring cache after it was evicted (the thread
// touched another object in between), rotating a full publication ring in
// place, taking over a single-writer object for shared mode (the sticky
// mixed transition, which closes and drains the publication ring), and the
// shared-mode near-miss scan plus append. Every admitted call that lands
// here is counted into os.retired, keeping OnCalls exact alongside the fast
// path's publication counter. It returns the near-miss pair keys found; the
// caller inserts them into the trap set outside the lock.
func (d *TSVD) recordSlow(st *threadState, os *objState, a Access, t time.Duration, concurrent bool) []report.PairKey {
	rt := &d.rt
	var nearKeys []report.PairKey
	os.mu.Lock()
	w := os.writer.Load()
	switch {
	case w == 0:
		// First access to this object: claim single-writer mode and arm the
		// thread's ring cache.
		rg := newPubRing(rt.cfg.ObjHistory)
		rg.entries[0] = histEntry{thread: a.Thread, op: a.Op, kind: a.Kind, at: t}
		rg.pub.Store(1)
		os.fast.Store(rg)
		os.writer.Store(int64(a.Thread))
		st.cachedRing, st.cachedRingObj = rg, a.Obj
	case w == int64(a.Thread):
		// Still the single writer: the fast path failed because the ring
		// filled up, or because this thread's ring cache points at another
		// object it touched in between (a takeover would have left
		// writerShared behind — transitions complete under the mutex we now
		// hold). Rotate when full — fold the published count into retired
		// and keep the newest scan-window entries — then record under the
		// mutex and re-arm the cache. No other thread can be touching the
		// entry array: takeover and rotation both require mu, and the
		// lock-free writer is this thread.
		rg := os.fast.Load()
		n := int(rg.pub.Load() &^ ringClosed)
		if n == len(rg.entries) {
			keep := rt.cfg.ObjHistory
			if keep > n {
				keep = n
			}
			os.retired.Add(int64(n) - rg.base.Load())
			copy(rg.entries[:keep], rg.entries[n-keep:n])
			rg.base.Store(int64(keep))
			n = keep
		}
		rg.entries[n] = histEntry{thread: a.Thread, op: a.Op, kind: a.Kind, at: t}
		rg.pub.Store(uint64(n) + 1)
		st.cachedRing, st.cachedRingObj = rg, a.Obj
	default:
		// Shared mode. If this thread's ring cache still points at this
		// object, the ring it caches is closed (that is the only way
		// ownership ends) — drop it so the fast path stops probing it.
		if st.cachedRingObj == a.Obj {
			st.cachedRing = nil
		}
		if w != writerShared {
			// Takeover: a second thread reached a single-writer object.
			// Close the publication ring — the CAS loop races at most the
			// owner's one in-flight publication, and once the closed bit
			// lands every later publication CAS fails onto this mutex path —
			// then fold its count, drain the newest window of entries into
			// the shared mutex ring, and go shared for good. The drained
			// entries are immutable: they sit strictly below the closed
			// publication count.
			rg := os.fast.Load()
			var n uint64
			for {
				n = rg.pub.Load()
				if rg.pub.CompareAndSwap(n, n|ringClosed) {
					break
				}
			}
			os.retired.Add(int64(n) - rg.base.Load())
			if os.hist == nil {
				os.hist = newObjHistory(rt.cfg.ObjHistory)
			}
			start := 0
			if int(n) > len(os.hist.entries) {
				start = int(n) - len(os.hist.entries)
			}
			for i := start; i < int(n); i++ {
				os.hist.add(rg.entries[i])
			}
			os.fast.Store(nil)
			os.writer.Store(writerShared)
		}
		h := os.hist
		if h == nil {
			h = newObjHistory(rt.cfg.ObjHistory)
			os.hist = h
		}
		n := len(h.entries)
		if !h.full {
			n = h.next
		}
		// t was read before the lock, so another thread may have recorded a
		// later-stamped access in between. Raising t to the newest entry
		// keeps the shared history ordered and every near-miss gap >= 0.
		if n > 0 {
			newest := h.next - 1
			if newest < 0 {
				newest += len(h.entries)
			}
			if at := h.entries[newest].at; at > t {
				t = at
				rt.stats.stampsRaised.Add(1)
			}
		}
		for i := 0; i < n; i++ {
			idx := h.next - 1 - i
			if idx < 0 {
				idx += len(h.entries)
			}
			e := &h.entries[idx]
			if e.thread == a.Thread || !Conflicts(e.kind, a.Kind) {
				continue
			}
			if !rt.cfg.DisableNearMissWindow && t-e.at > rt.nearMissWindow {
				continue
			}
			if !concurrent {
				rt.stats.sequentialSkips.Add(1)
				continue
			}
			rt.stats.nearMisses.Add(1)
			rt.stats.observeGap(t - e.at)
			rt.met.observeGap(t - e.at)
			rt.tr.Emit(trace.KindNearMiss, a.Thread, a.Obj, e.op, a.Op, t, t-e.at)
			nearKeys = append(nearKeys, report.KeyOf(e.op, a.Op))
		}
		h.add(histEntry{thread: a.Thread, op: a.Op, kind: a.Kind, at: t})
		os.retired.Add(1)
	}
	os.mu.Unlock()
	return nearKeys
}

// inferHB implements §3.4.4. st is a.Thread's own state, so everything here
// is thread-local; only the finished-delay log needs a lock, and only once
// the gap threshold is met.
func (d *TSVD) inferHB(st *threadState, a Access, t time.Duration) {

	// Consume pending inheritance windows: this access likely
	// happens-after each recorded delay location.
	if len(st.inherits) > 0 {
		kept := st.inherits[:0]
		for _, inh := range st.inherits {
			d.pruneHB(inh.from, a, t)
			if inh.remaining--; inh.remaining > 0 {
				kept = append(kept, inh)
			}
		}
		st.inherits = kept
	}

	// A noAccessYet sentinel in lastAccess makes this hugely negative, so
	// threads reject inference until their first recorded access.
	gap := t - st.lastAccess - st.ownDelay
	if gap < d.rt.hbThreshold {
		return
	}
	// Attribute the gap to the most recently finished delay of another
	// thread that overlaps it (t0 ≤ t1end).
	d.delayMu.Lock()
	best := -1
	for i := len(d.recentDelays) - 1; i >= 0; i-- {
		dr := d.recentDelays[i]
		if dr.thread == a.Thread || dr.end < st.lastAccess || dr.end > t {
			continue
		}
		if best == -1 || dr.end > d.recentDelays[best].end {
			best = i
		}
	}
	var from ids.OpID
	if best != -1 {
		from = d.recentDelays[best].op
	}
	d.delayMu.Unlock()
	if best == -1 {
		return
	}
	d.pruneHB(from, a, t)
	if k := d.rt.cfg.HBInferenceWindow; k > 0 {
		st.inherits = append(st.inherits, inheritance{from: from, remaining: k})
	}
}

// pruneHB records the inferred edge from → a.Op and marks the pair as
// happens-before ordered: it leaves the trap set and can never re-enter it.
func (d *TSVD) pruneHB(from ids.OpID, a Access, t time.Duration) {
	d.rt.tr.Emit(trace.KindHBEdge, a.Thread, a.Obj, from, a.Op, t, 0)
	key := report.KeyOf(from, a.Op)
	if key.A == key.B {
		// A location trivially happens-before itself on one thread; the
		// same location racing with itself across threads is exactly the
		// "same operation" bug class (34% in Table 1), so never suppress.
		return
	}
	if d.set.suppress(key) {
		d.rt.stats.pairsPrunedHB.Add(1)
		d.rt.tr.Emit(trace.KindPairPrunedHB, a.Thread, a.Obj, key.A, key.B, t, 0)
	}
}

// Sites implements Detector.
func (d *TSVD) Sites() *sites.Registry { return d.rt.sites }

// Reports implements Detector.
func (d *TSVD) Reports() *report.Collector { return d.rt.reports }

// Stats implements Detector.
func (d *TSVD) Stats() Stats { return d.rt.snapshotStats() }

// Tracer implements Detector.
func (d *TSVD) Tracer() *trace.Tracer { return d.rt.tr }

// ExportTraps implements Detector: the trap file contents (§3.4.6).
func (d *TSVD) ExportTraps() []report.PairKey { return d.set.export() }

// TrapSetSize reports the number of live dangerous pairs (for tests and the
// coverage statistics).
func (d *TSVD) TrapSetSize() int { return d.set.size() }
