package core

import (
	"math/rand"
	goruntime "runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/clock"
	"repro/internal/config"
	"repro/internal/fasttime"
	"repro/internal/ids"
	"repro/internal/intmap"
	"repro/internal/report"
	"repro/internal/sampler"
	"repro/internal/sites"
	"repro/internal/trace"
	"repro/internal/vclock"
)

// trap is one parked thread inside OnCall (Figure 5): the triple that
// identifies it plus everything needed to emit a two-sided report and to
// wake the sleeper early once a conflict is caught.
type trap struct {
	access Access
	stack  string
	// cancel wakes the delayed thread early when a conflict is detected.
	cancel chan struct{}
	// conflict is set under the object's lock when another thread ran into
	// this trap; the owner reads it after waking (and after unregistering
	// under the same lock) to decide decay.
	conflict bool
	// canceled guards double-close of cancel.
	canceled bool
	// sprang holds the pairs this thread caught when it registered the
	// trap; variants with a trap set prune them, as after checkForTraps.
	sprang []report.PairKey
}

// spinMutex is the per-object lock. Critical sections under it are tiny — a
// ring scan of ObjHistory entries plus one store — so an uncontended
// acquire/release pair must cost two atomic operations, not a sync.Mutex's
// full fast path. Contended acquires spin briefly, then yield: the only
// long hold is a rare violation report capturing stacks, and a yielding
// waiter keeps the scheduler healthy through it. The CAS/store pair gives
// the same happens-before edges a mutex would, so the data it guards stays
// race-clean.
type spinMutex struct {
	state atomic.Int32
}

func (m *spinMutex) Lock() {
	if m.state.CompareAndSwap(0, 1) {
		return
	}
	m.lockSlow()
}

func (m *spinMutex) lockSlow() {
	for spins := 0; ; spins++ {
		if m.state.Load() == 0 && m.state.CompareAndSwap(0, 1) {
			return
		}
		if spins > 8 {
			goruntime.Gosched()
		}
	}
}

func (m *spinMutex) Unlock() { m.state.Store(0) }

// objState is one object's detector state: its parked traps, its near-miss
// ring (TSVD) or epoch ring (TSVDHB), and the single-writer tracking that
// lets the hot path skip the scan entirely while only one thread has ever
// touched the object. Everything inside is guarded by mu; the struct itself
// lives in the runtime's lock-free object registry, so two accesses to the
// same object always synchronize on the same mutex (what makes a report
// red-handed-sound) while unrelated objects share nothing — not even a hash
// stripe, which is what the former shard table made them share.
type objState struct {
	mu    spinMutex
	traps []*trap
	// hist holds TSVD's shared-mode near-miss ring; hb holds TSVDHB's epoch
	// ring. Only the one the active variant uses is ever populated.
	hist *objHistory
	hb   *hbHistory
	// writer implements the single-writer tracking: 0 = untouched, a thread
	// id = only that thread has ever recorded here, writerShared = at least
	// two threads have (sticky — the mutex protocol applies forever after).
	// While single-writer, a same-thread access can skip the ring scan (it
	// would match nothing: every entry fails the different-thread test), and
	// TSVD records through the lock-free publication ring below. All
	// transitions happen under mu; the fast path only loads.
	writer atomic.Int64
	// fast is TSVD's single-writer publication ring. Non-nil exactly while
	// writer holds a thread id (TSVD only); closed and drained into hist at
	// the takeover by a second thread.
	fast atomic.Pointer[pubRing]
	// retired counts admitted TSVD calls on this object that are no longer
	// represented by the fast ring's publication counter: shared-mode
	// appends, plus publications folded out by ring rotation and takeover.
	// snapshotStats sums retired + the live ring counts across objects —
	// the publication CAS doubles as the OnCalls counter, so the lock-free
	// path touches no separate statistics atomic.
	retired atomic.Int64
}

// writerShared marks an object permanently in shared (mutex-protocol) mode.
const writerShared = -1

// noteWriterLocked updates the single-writer tracking for an access by tid
// and reports whether the ring scan must run (true once a second thread is
// involved). Caller holds os.mu. Used by the variants that record under the
// lock unconditionally (TSVDHB); TSVD's recordSlow has its own transition
// handling because it must also close and drain the publication ring.
func (os *objState) noteWriterLocked(tid ids.ThreadID) (scan bool) {
	w := os.writer.Load()
	scan = w == writerShared || (w != 0 && w != int64(tid))
	if w == 0 {
		os.writer.Store(int64(tid))
	} else if w != int64(tid) && w != writerShared {
		os.writer.Store(writerShared)
	}
	return scan
}

// pubRing is the single-writer publication ring: an append-only entry array
// whose publication counter advances by one CAS per recorded access. The
// owning thread writes the entry with plain stores and publishes it with the
// CAS; any other party (takeover, rotation bookkeeping, statistics) reads the
// counter atomically and only ever touches entries strictly below it, so the
// owner's in-flight slot is never examined. Closing the ring (setting
// ringClosed via CAS under the object's mutex) makes every later publication
// CAS fail, which bounces the owner onto the mutex path — after which the
// entries below the closed count are immutable and safe to drain.
type pubRing struct {
	// pub is the number of published entries, with ringClosed or'ed in once
	// the ring is closed by a takeover.
	pub atomic.Uint64
	// base is the publication count already folded into objState.retired by
	// rotations; the ring's live contribution is pub&^ringClosed - base.
	base    atomic.Int64
	entries []histEntry
}

const ringClosed = uint64(1) << 63

// newPubRing sizes the entry array so rotations stay rare relative to the
// scan window: at least eight windows, at least 64 entries.
func newPubRing(window int) *pubRing {
	n := 64
	if w := 8 * window; w > n {
		n = w
	}
	return &pubRing{entries: make([]histEntry, n)}
}

// threadState is one thread's detector state, created on first sighting and
// then owned by that thread: the plain fields are only ever read and written
// by the owning goroutine, the atomics are written by the owner and read by
// snapshot/metrics scrapes. Keeping the per-thread counters here — instead
// of on shared cache lines — is what makes the contended OnCall path scale:
// every thread bumps its own line.
type threadState struct {
	// onCalls / sampledOut are this thread's contributions to the global
	// counters; snapshotStats sums them across threads.
	onCalls    atomic.Int64
	sampledOut atomic.Int64

	// rng is the thread's private xorshift state for the sampling gate
	// (docs/SAMPLING.md).
	rng uint64

	// budget caps the total delay injected into this thread (§4 runtime
	// feature 2). It is internally atomic, so charges and refunds take no
	// lock.
	budget clock.Budget

	// cachedObj/cachedState short-circuit the object-registry probe while a
	// thread stays on one object (the common loop shape).
	cachedObj   ids.ObjectID
	cachedState *objState

	// cachedRing/cachedRingObj short-circuit TSVD's single-writer
	// publication: while this thread owns cachedRingObj's publication ring,
	// the fast path goes straight from these fields to the publication CAS,
	// skipping the object state's writer and ring probes. The cache is only
	// ever set by recordSlow for a ring this thread owns under the object's
	// mutex; ownership ends exclusively by ring closure (ringClosed, sticky),
	// so a stale entry fails the closed-bit check or the CAS and falls back
	// to recordSlow, which re-caches or clears it.
	cachedRing    *pubRing
	cachedRingObj ids.ObjectID

	// phaseSteady caches this thread's packed steady-state value for the
	// phase ring (tid<<32 | steady), so OnCall's sequential-phase check is
	// one load and one compare against the ring's word. Zero means "not
	// yet computed"; it can never equal a live ring word because the ring
	// state is seeded non-zero and every observed state carries count ≥ 1.
	// observe's fallback path fills it in.
	phaseSteady uint64

	// --- TSVD happens-before inference (§3.4.4), owner-only ---
	// lastAccess starts at the noAccessYet sentinel, which makes the
	// inter-access gap hugely negative until the first admitted access —
	// inferHB's threshold check then rejects it without a separate
	// has-accessed flag (and store) on the hot path.
	lastAccess time.Duration
	// ownDelay accumulates delay injected into this thread since its last
	// access, so a self-inflicted gap is not attributed to another thread's
	// delay during HB inference.
	ownDelay time.Duration
	// hbDeadline caches lastAccess + ownDelay + δ_hb so the OnCall guard is
	// one load and one compare. It must never exceed that sum (inferHB would
	// miss a qualifying gap) but may run early — inferHB re-derives the gap
	// from the authoritative fields, so a conservative zero (fresh threads,
	// states fabricated by tests) only costs a wasted call.
	hbDeadline time.Duration
	// inherits carries the k_hb-access happens-after windows (§3.4.4).
	inherits []inheritance

	// --- TSVDHB vector-clock slot (§3.5), split so the per-TSVD-point tick
	// is allocation-free: epoch is the thread's own component (one atomic
	// add); rest holds components learned from other threads; memo caches
	// the last materialized full clock so repeated handovers without
	// intervening ticks reuse one tree reference. Ticks and adoptions happen
	// only on the owning thread; cross-thread readers see an immutable
	// snapshot that is at worst a few events stale.
	epoch atomic.Uint64
	rest  vclock.Atomic
	memo  atomic.Pointer[clockMemo]
}

type clockMemo struct {
	epoch uint64
	tree  vclock.Tree
}

// tick advances the own clock component and returns the new epoch.
func (c *threadState) tick() uint64 { return c.epoch.Add(1) }

// known returns the components learned from other threads. This is all the
// OnCall epoch test needs (entries from the own thread are skipped), so the
// hot path never materializes a full clock.
func (c *threadState) known() vclock.Tree { return c.rest.Load() }

// treeFor materializes the full clock of thread `own`: rest overlaid with
// the current epoch. Called at synchronization operations only.
func (c *threadState) treeFor(own int64) vclock.Tree {
	e := c.epoch.Load()
	t := c.rest.Load()
	if t.Get(own) == e {
		return t
	}
	if m := c.memo.Load(); m != nil && m.epoch == e {
		return m.tree
	}
	full := t.Set(own, e)
	c.memo.Store(&clockMemo{epoch: e, tree: full})
	return full
}

// adopt merges an incoming clock (a fork/join/lock handover) into the
// thread's learned components. Runs on the owning thread.
func (c *threadState) adopt(own int64, incoming vclock.Tree) {
	cur := c.treeFor(own)
	if vclock.SameRef(cur, incoming) {
		return
	}
	c.memo.Store(nil)
	c.rest.Store(vclock.Join(cur, incoming))
}

// coverTable is the dense per-site coverage flag table, indexed by
// ids.SiteID. Bit 0: the site executed at all; bit 1: it executed during a
// concurrent phase. The fully-marked common case costs one load; every
// transition (and growth) happens under coverMu, so the grow-copy can never
// lose a concurrent flag store.
type coverTable []atomic.Uint32

const (
	coverSeen       = 1
	coverConcurrent = 2
)

// runtime is the state shared by every detector variant: configuration,
// time source, the site registry, the per-object and per-thread registries
// (the latter carrying each thread's delay budget), statistics and the
// report collector. Detector-specific state lives in the variant structs.
// There is no global lock and no hashing on the admitted fast path beyond
// two lock-free integer-keyed probes: per-object state hangs off a
// lock-free object registry, per-thread state (including the hot counters)
// off a thread registry, per-site state (coverage, sampler admission) is
// indexed directly by dense SiteIDs, and injected delays always sleep
// outside every lock so any number of traps can be parked concurrently
// (§3.4.6 "Parallel delay injection").
// docs/PERFORMANCE.md documents the full cost model.
type runtime struct {
	cfg   config.Config
	clk   clock.Clock
	start time.Time
	// realClock marks clk as the plain wall clock, letting now() call
	// time.Since directly instead of through the interface — the hottest
	// call in the detector devirtualized.
	realClock bool
	// fastClock selects the calibrated TSC time source (internal/fasttime)
	// for the real clock: roughly half the cost of the vDSO read behind
	// time.Since, which profiles as the single largest item on the OnCall
	// fast path. Only set when fasttime's gating (kernel-validated TSC,
	// sane calibration) passed; startTicks is the detector's epoch.
	fastClock  bool
	startTicks uint64

	// sites interns (location, class, method, kind) tuples into the dense
	// SiteIDs every per-site structure is indexed by. Shared across
	// detectors when config.Config.Sites is set.
	sites *sites.Registry

	// objs is the per-object state registry (lock-free integer-keyed reads).
	objs intmap.Map[objState]
	// threads is the per-thread state registry, shared by every variant.
	threads intmap.Map[threadState]

	stats   atomicStats
	reports *report.Collector

	// met is the live metrics sink, nil unless WithDetectorMetrics was
	// given. Like the tracer, every hook site is nil-safe and sits on
	// detector action paths only — the conflict-free fast path crosses no
	// metrics hook; the scrape-time counter views read the atomics above
	// and add no hot-path work at all.
	met *DetectorMetrics

	// tr is the event tracer, nil unless cfg.Trace is set. Every emission
	// site is nil-safe, sits off the conflict-free fast path (events fire
	// only on detector actions: near misses, delays, prunes, violations),
	// and writes scalars into a preallocated striped ring — the tracer adds
	// no allocation anywhere in OnCall. docs/OBSERVABILITY.md has the
	// schema; the event counts reconcile exactly with atomicStats.
	tr *trace.Tracer

	// parked counts currently registered traps process-wide. The hot path
	// skips the object's trap scan entirely while it is zero — on a
	// conflict-free workload OnCall never touches the trap table at all.
	parked atomic.Int64

	// cover is the dense per-site coverage flag table; covered keeps the
	// op-keyed records behind it so the public counters stay op-distinct
	// (an op can map to one site per kind). The common fully-marked case is
	// one lock-free load of cover; covered is only probed on transitions.
	coverMu sync.Mutex
	cover   atomic.Pointer[coverTable]
	covered intmap.Map[locCover]

	// rng drives every probabilistic decision. Draws only happen for
	// eligible delay locations (rare) and in the random variants, so one
	// small lock suffices; the TSVD hot path never takes it.
	rngMu sync.Mutex
	rng   *rand.Rand

	// mode is the production sampling tier (docs/SAMPLING.md). ModeFull is
	// the zero value; ModeObserveOnly suppresses sleeps in injectDelay;
	// ModeSampled gates analysis through samp.
	mode config.Mode
	// samp is the per-site admission gate and its adaptive overhead
	// controller, non-nil only in ModeSampled. The gate sits after the
	// parked-trap check — red-handed catching is never sampled out.
	samp *sampler.Sampler
	// samplerOp is the interned "sampler" pseudo-location carried by
	// sampler_throttle trace events (the schema requires a nonzero op_a).
	samplerOp ids.OpID

	// Effective (time-scaled) durations, precomputed.
	delayTime      time.Duration
	nearMissWindow time.Duration
	maxDelay       time.Duration
	// hbThreshold is δ_hb·delayTime, precomputed so the hot path does no
	// floating-point work.
	hbThreshold time.Duration
}

// init prepares r in place. (runtime holds locks and atomics, so it is
// initialized through a pointer rather than returned by value.)
func (r *runtime) init(cfg config.Config, o options) {
	r.cfg = cfg
	r.clk = o.clk
	_, r.realClock = o.clk.(clock.Real)
	r.start = o.clk.Now()
	if r.realClock && fasttime.Enabled() {
		r.fastClock = true
		r.startTicks = fasttime.Ticks()
	}
	r.sites = cfg.Sites
	if r.sites == nil {
		r.sites = sites.New()
	}
	r.reports = report.NewCollector()
	r.met = o.metrics
	r.rng = rand.New(rand.NewSource(cfg.Seed))
	r.delayTime = cfg.EffectiveDelay()
	r.nearMissWindow = cfg.EffectiveNearMissWindow()
	r.maxDelay = cfg.EffectiveMaxDelayPerThread()
	r.hbThreshold = time.Duration(cfg.HBBlockThreshold * float64(r.delayTime))
	r.mode = cfg.Mode
	if cfg.Mode == config.ModeSampled {
		r.samp = sampler.New(sampler.Params{
			BaseProbability: cfg.SampleProbability,
			OverheadTarget:  cfg.OverheadTarget,
			Interval:        cfg.EffectiveSamplerInterval(),
		})
		r.samplerOp = ids.InternKey("sampler")
	}
	if cfg.Trace {
		r.tr = trace.New(cfg.TraceBufferSize)
	}
}

// now returns the time since detector start. Safe without any lock. The
// production wall clock reads the calibrated TSC when available (one RDTSC
// plus a fixed-point multiply) and the vDSO otherwise; test clocks go
// through the interface. Split so the TSC path inlines into OnCall.
func (r *runtime) now() time.Duration {
	if r.fastClock {
		return fasttime.SinceTicks(r.startTicks)
	}
	return r.nowSlow()
}

func (r *runtime) nowSlow() time.Duration {
	if r.realClock {
		return time.Since(r.start)
	}
	return r.clk.Since(r.start)
}

// resolveSite fills in a dense site id for accesses that arrive without one
// (fabricated test accesses): the registry's op-keyed fallback, one
// lock-free probe after the first call per (op, kind). Accesses from
// instrumentation carry their SiteID already and skip this entirely.
func (r *runtime) resolveSite(a *Access) {
	if a.Site == 0 {
		a.Site = r.sites.ForOpKind(a.Op, a.Kind == KindWrite)
	}
}

// threadStateFor returns t's state, creating it on first use. The returned
// pointer's plain fields are only ever dereferenced by t's goroutine. The
// found case is a single lock-free probe with no closure setup.
func (r *runtime) threadStateFor(t ids.ThreadID) *threadState {
	if st := r.threads.Get(int64(t)); st != nil {
		return st
	}
	return r.newThreadState(t)
}

func (r *runtime) newThreadState(t ids.ThreadID) *threadState {
	st, _ := r.threads.GetOrCreate(int64(t), func() *threadState {
		return &threadState{
			rng:        sampler.SeedRand(r.cfg.Seed, int64(t)),
			budget:     clock.Budget{Max: r.maxDelay},
			lastAccess: noAccessYet,
		}
	})
	return st
}

// noAccessYet is lastAccess's value before a thread's first admitted access:
// large enough that any gap computed against it is hugely negative (so HB
// inference rejects it), small enough that the arithmetic cannot overflow.
const noAccessYet = time.Duration(1) << 60

// objStateFor returns obj's state, creating it on first use. When st is the
// calling thread's state the lookup is cached there: a thread looping on one
// object (the common shape) pays two compares instead of a registry probe.
func (r *runtime) objStateFor(st *threadState, obj ids.ObjectID) *objState {
	if st != nil && st.cachedState != nil && st.cachedObj == obj {
		return st.cachedState
	}
	os, _ := r.objs.GetOrCreate(int64(obj), func() *objState { return &objState{} })
	if st != nil {
		st.cachedObj, st.cachedState = obj, os
	}
	return os
}

// randFloat draws from the seeded source. Callers hold no other runtime
// lock ordering obligations; rngMu is a leaf lock.
func (r *runtime) randFloat() float64 {
	r.rngMu.Lock()
	f := r.rng.Float64()
	r.rngMu.Unlock()
	return f
}

// randDurationUpTo draws uniformly from (0, d].
func (r *runtime) randDurationUpTo(d time.Duration) time.Duration {
	r.rngMu.Lock()
	v := r.rng.Int63n(int64(d))
	r.rngMu.Unlock()
	return time.Duration(v) + 1
}

// randUint64 draws 64 random bits from the seeded source. Used only by the
// random variants' sampling gate; TSVD/TSVDHB use per-thread xorshift states
// instead to keep their hot path off rngMu.
func (r *runtime) randUint64() uint64 {
	r.rngMu.Lock()
	v := r.rng.Uint64()
	r.rngMu.Unlock()
	return v
}

// sampleTick runs the adaptive-sampling controller if its interval has
// elapsed, recording every adjustment in the stats and the trace. Nil-safe;
// called from OnCall tails in ModeSampled.
func (r *runtime) sampleTick(now time.Duration) {
	if r.samp == nil {
		return
	}
	if adj, ok := r.samp.Tick(now); ok {
		r.stats.samplerThrottles.Add(1)
		r.tr.Emit(trace.KindSamplerThrottle, 0, 0, r.samplerOp, 0, now, adj.Spent)
	}
}

// side builds one report side, resolving the API strings from the site
// registry — report time is the only place the detector touches site
// metadata strings at all.
func (r *runtime) side(thread ids.ThreadID, op ids.OpID, site ids.SiteID, kind Kind, stack string) report.Side {
	info := r.sites.Info(site)
	return report.Side{
		Thread: thread,
		Op:     op,
		Site:   site,
		Write:  kind == KindWrite,
		Class:  info.Class,
		Method: info.Method,
		Stack:  stack,
	}
}

// checkForTraps implements check_for_trap (Figure 5 line 2): it scans the
// traps registered on a's object and reports a violation for every
// conflicting one. Caller holds os.mu, where os is a.Obj's state — the same
// mutex the trapped thread registered under, which is what keeps the
// no-false-positives argument intact: both threads are provably inside
// conflicting calls on the same object at the same moment. It returns the
// pair keys of the violations found so variants can prune them from their
// trap sets (outside the object lock). liveOnly skips traps another thread
// already sprang; injectDelay sets it for its registration-time check.
func (r *runtime) checkForTraps(os *objState, a Access, stackOf func() string, liveOnly bool) []report.PairKey {
	var found []report.PairKey
	for _, t := range os.traps {
		if t.access.Thread == a.Thread || !Conflicts(t.access.Kind, a.Kind) || liveOnly && t.canceled {
			continue
		}
		r.stats.violations.Add(1)
		v := report.Violation{
			Object:      a.Obj,
			Trapped:     r.side(t.access.Thread, t.access.Op, t.access.Site, t.access.Kind, t.stack),
			Conflicting: r.side(a.Thread, a.Op, a.Site, a.Kind, stackOf()),
			When:        r.now(),
		}
		r.reports.Add(v)
		r.tr.Emit(trace.KindTrapSprung, a.Thread, a.Obj, t.access.Op, a.Op, v.When, 0)
		t.conflict = true
		if !t.canceled {
			t.canceled = true
			close(t.cancel)
		}
		found = append(found, v.Key())
	}
	return found
}

// unregisterTrap removes t from its object's trap list. Caller holds os.mu.
func (r *runtime) unregisterTrap(os *objState, t *trap) {
	list := os.traps
	for i := range list {
		if list[i] == t {
			list[i] = list[len(list)-1]
			list = list[:len(list)-1]
			break
		}
	}
	os.traps = list
}

// anyTrapSet reports whether some thread is currently parked, without
// taking any lock. Used by the AvoidOverlappingDelays ablation.
func (r *runtime) anyTrapSet() bool { return r.parked.Load() > 0 }

// injectDelay parks the calling thread in a trap for up to d (clipped by the
// thread's budget), sleeping outside every lock. It returns the trap (whose
// conflict flag tells the caller whether the delay was productive) and the
// nominal duration actually slept. The caller holds no locks.
//
// The trap becomes visible to other threads only once it is registered
// under the object's lock. A conflicting access that scans strictly before
// registration completes misses this trap; if that access is itself about
// to be delayed, its own registration scans again under the lock and
// springs every live trap it conflicts with — the calling thread is at its
// call point, so this is as red-handed as the entry check. Two threads
// arming at the same instant therefore cannot both miss each other.
func (r *runtime) injectDelay(a Access, d time.Duration) (*trap, time.Duration) {
	// Observe-only mode (docs/SAMPLING.md): the detector went through its
	// whole decision — the pair is trapped, the coin flip passed — but no
	// thread sleeps. Counting the veto here, at the single funnel every
	// variant's delay goes through, is what makes the mode's "zero injected
	// delays" claim checkable: DelaysInjected stays 0 while
	// DelaysSuppressed counts the trap firings that would have happened.
	if r.mode == config.ModeObserveOnly {
		r.stats.delaysSuppressed.Add(1)
		r.tr.Emit(trace.KindDelaySuppressed, a.Thread, a.Obj, a.Op, 0, r.now(), d)
		return nil, 0
	}
	budget := &r.threadStateFor(a.Thread).budget
	grant := budget.Allow(d)
	if grant <= 0 {
		return nil, 0
	}
	t := &trap{access: a, stack: ids.Stack(), cancel: make(chan struct{})}
	os := r.objStateFor(nil, a.Obj)
	os.mu.Lock()
	t.sprang = r.checkForTraps(os, a, func() string { return t.stack }, true)
	os.traps = append(os.traps, t)
	os.mu.Unlock()
	r.parked.Add(1)
	r.stats.delaysInjected.Add(1)
	r.met.observeDelay(grant)
	r.tr.Emit(trace.KindTrapSet, a.Thread, a.Obj, a.Op, 0, r.now(), grant)

	slept, woken := r.clk.Sleep(grant, t.cancel)

	os.mu.Lock()
	r.unregisterTrap(os, t)
	os.mu.Unlock()
	r.parked.Add(-1)
	if woken && slept < grant {
		budget.Refund(grant - slept)
	}
	if slept > grant {
		slept = grant
	}
	r.stats.totalDelay.Add(int64(slept))
	if r.samp != nil {
		r.samp.ObserveDelay(slept)
	}
	if r.tr != nil {
		at := r.now()
		r.tr.Emit(trace.KindDelayInjected, a.Thread, a.Obj, a.Op, 0, at, slept)
		if t.conflict {
			r.tr.Emit(trace.KindDelayProductive, a.Thread, a.Obj, a.Op, 0, at, slept)
		}
	}
	return t, slept
}

// locCover is one location's coverage record: existing at all means the
// location executed; the flag records whether it ever executed during a
// concurrent phase. Kept op-keyed (not site-keyed) so the public coverage
// counters stay op-distinct — an op can map to one site per kind.
type locCover struct {
	concurrent atomic.Bool
}

// markSeen updates the coverage counters for the access's site and op. The
// common fully-marked case is one lock-free load of the dense per-site flag
// table; every transition funnels through markSeenSlow, which arbitrates
// the public counters exactly once per op via the op-keyed record.
func (r *runtime) markSeen(site ids.SiteID, op ids.OpID, concurrent bool) {
	want := uint32(coverSeen)
	if concurrent {
		want |= coverConcurrent
	}
	if t := r.cover.Load(); t != nil && int(site) < len(*t) {
		if (*t)[site].Load()&want == want {
			return
		}
	}
	r.markSeenSlow(site, op, want)
}

func (r *runtime) markSeenSlow(site ids.SiteID, op ids.OpID, want uint32) {
	// Public counters first, op-keyed for exact op-distinct counting: the
	// insert and the one-way concurrent upgrade each arbitrate exactly one
	// increment regardless of how many sites the op maps to.
	c := r.covered.Get(int64(op))
	if c == nil {
		var created bool
		c, created = r.covered.GetOrCreate(int64(op), func() *locCover { return &locCover{} })
		if created {
			r.stats.locationsSeen.Add(1)
		}
	}
	if want&coverConcurrent != 0 && !c.concurrent.Load() && c.concurrent.CompareAndSwap(false, true) {
		r.stats.locationsSeenConcurrent.Add(1)
	}
	// Then the dense fast-path flags. All stores (and growth) happen under
	// coverMu, so a grow-copy can never lose a concurrent flag transition;
	// the fast path only ever loads.
	r.coverMu.Lock()
	t := r.cover.Load()
	if t == nil || int(site) >= len(*t) {
		size := 64
		if t != nil {
			size = len(*t)
		}
		for size <= int(site) {
			size *= 2
		}
		nt := make(coverTable, size)
		if t != nil {
			for i := range *t {
				nt[i].Store((*t)[i].Load())
			}
		}
		r.cover.Store(&nt)
		t = &nt
	}
	(*t)[site].Store((*t)[site].Load() | want)
	r.coverMu.Unlock()
}

// snapshotStats materializes the public counters from the atomics, the
// per-thread tallies, and the per-object publication counts (TSVD's
// admitted calls are counted by the ring publication CAS itself). It takes
// no lock: everything read here is atomic, so a live metrics scrape can
// snapshot a running detector without stalling any thread's OnCall traffic.
// A scrape racing a ring rotation or takeover can transiently misattribute
// a ring's worth of calls between retired and the live counter; at
// quiescence (which is when the exactness-asserting consumers read) the sum
// is exact.
func (r *runtime) snapshotStats() Stats {
	st := r.stats.snapshot()
	r.threads.Each(func(_ int64, ts *threadState) {
		st.OnCalls += ts.onCalls.Load()
		st.CallsSampledOut += ts.sampledOut.Load()
	})
	r.objs.Each(func(_ int64, os *objState) {
		st.OnCalls += os.retired.Load()
		if rg := os.fast.Load(); rg != nil {
			st.OnCalls += int64(rg.pub.Load()&^ringClosed) - rg.base.Load()
		}
	})
	return st
}

// atomicStats is the runtime's contention-free mirror of Stats: every
// counter is an atomic, so the hot path never serializes on a statistics
// lock and Stats() can snapshot without stopping the world. Counters
// incremented from inside a racing OnCall are exact — atomics lose nothing
// — only the cross-counter consistency of a snapshot is relaxed.
type atomicStats struct {
	onCalls                 atomic.Int64
	delaysInjected          atomic.Int64
	totalDelay              atomic.Int64 // nanoseconds
	nearMisses              atomic.Int64
	pairsAdded              atomic.Int64
	pairsPrunedHB           atomic.Int64
	pairsPrunedDecay        atomic.Int64
	violations              atomic.Int64
	locationsSeen           atomic.Int64
	locationsSeenConcurrent atomic.Int64
	sequentialSkips         atomic.Int64
	// callsSampledOut is the global skip counter used by the random
	// variants; TSVD/TSVDHB count skips per thread (threadState.sampledOut)
	// and snapshotStats sums both.
	callsSampledOut  atomic.Int64
	delaysSuppressed atomic.Int64
	samplerThrottles atomic.Int64
	stampsRaised     atomic.Int64
	nearMissGaps     [len(GapHistogram{})]atomic.Int64
}

// observeGap adds one near-miss gap to the histogram.
func (s *atomicStats) observeGap(d time.Duration) {
	s.nearMissGaps[gapBucket(d)].Add(1)
}

// snapshot copies the atomics into the public Stats struct.
func (s *atomicStats) snapshot() Stats {
	st := Stats{
		OnCalls:                 s.onCalls.Load(),
		DelaysInjected:          s.delaysInjected.Load(),
		TotalDelay:              time.Duration(s.totalDelay.Load()),
		NearMisses:              s.nearMisses.Load(),
		PairsAdded:              s.pairsAdded.Load(),
		PairsPrunedHB:           s.pairsPrunedHB.Load(),
		PairsPrunedDecay:        s.pairsPrunedDecay.Load(),
		Violations:              s.violations.Load(),
		LocationsSeen:           s.locationsSeen.Load(),
		LocationsSeenConcurrent: s.locationsSeenConcurrent.Load(),
		SequentialSkips:         s.sequentialSkips.Load(),
		CallsSampledOut:         s.callsSampledOut.Load(),
		DelaysSuppressed:        s.delaysSuppressed.Load(),
		SamplerThrottles:        s.samplerThrottles.Load(),
		StampsRaised:            s.stampsRaised.Load(),
	}
	for i := range st.NearMissGaps {
		st.NearMissGaps[i] = s.nearMissGaps[i].Load()
	}
	return st
}

// phaseRing is the concurrent-phase detector of §3.4.3: conceptually a ring
// of the thread ids at the most recently executed TSVD points, with the
// execution in a concurrent phase iff the ring holds more than one distinct
// thread.
//
// The window "contains two distinct threads" exactly when the run of
// identical trailing observations is shorter than the window, so instead of
// materializing the ring the detector keeps that run length: observe is a
// handful of atomic operations with no buffer scan, O(1) in the window size
// — and in the steady single-thread state (run and count both capped) it
// performs loads only, no stores at all. §3.4.3 explicitly tolerates racy
// maintenance ("the buffer itself need not be synchronized ... TSVD only
// needs an approximate notion of concurrent phases"), so interleaved
// observers may briefly disagree on the run length — never read a torn
// value, and never contend on a lock.
type phaseRing struct {
	// window is the configured buffer size, clamped to 16 bits so run and
	// count fit their packed fields (a window beyond 65535 behaves as
	// 65535 — far past any configured value, and the heuristic saturates
	// anyway).
	window uint64
	// state packs the ring into one word — [ thread:32 | run:16 | count:16 ]
	// — so TSVD's OnCall guard resolves the steady sequential case (same
	// thread, run and count both capped at the window) with a single load
	// compared against steady. Thread ids are truncated to 32 bits, which
	// can only confuse two threads 2³² apart — ids are small counters, and
	// the phase heuristic tolerates far worse.
	state atomic.Uint64
	// steady is the packed low half of the sequential steady state:
	// window<<16 | window. The guard compares state against tid<<32|steady.
	steady uint64
}

func newPhaseRing(size int) *phaseRing {
	w := uint64(size)
	if w > 0xFFFF {
		w = 0xFFFF
	}
	p := &phaseRing{window: w, steady: w<<16 | w}
	// Seed the ring with an impossible observation (count == 0 can never
	// recur once observe has run, and the thread field is the truncation no
	// small real id reaches). This keeps the packed word non-zero for the
	// ring's whole life, so a threadState's zero-initialized phaseSteady
	// cache can never spuriously match it.
	p.state.Store(uint64(0xFFFFFFFF) << 32)
	return p
}

// observe records t and reports whether the execution is in a concurrent
// phase. (TSVD's OnCall open-codes the steady sequential case and only
// falls back here; the logic below remains the full, self-contained
// definition for that fallback, other callers and the property tests.)
func (p *phaseRing) observe(t ids.ThreadID) bool {
	tid := uint64(uint32(t))
	s := p.state.Load()
	run := uint64(1)
	if s>>32 == tid {
		if run = s >> 16 & 0xFFFF; run < p.window {
			run++
		}
	}
	c := s & 0xFFFF
	if c < p.window {
		c++
	}
	p.state.Store(tid<<32 | run<<16 | c)
	return run < c
}
