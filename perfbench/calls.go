package main

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"math"
	"math/rand"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	tsvd "repro"
	"repro/internal/collections"
	"repro/internal/core"
	"repro/internal/ids"
	"repro/internal/rawcol"
	"repro/internal/sites"
)

// The calls workload: nproc goroutines in a closed loop over the public
// instrumented containers. Each goroutine works on its own Dictionary and
// List, and about one op in sixteen reads one shared Dictionary that nobody
// writes, which takes the detector's shared-object path. The stream has no
// conflicting pair, so no delay is ever planned: goroutine identity, site
// resolution and OnCall do nearly all the work, and neither delay injection
// nor the trap store runs.

type callKind uint8

const (
	dictSet callKind = iota
	dictGet
	dictHas
	listSet
	listGet
	sharedHas
)

type callOp struct {
	kind callKind
	key  int
}

const (
	callStreamLen = 4096  // ops per goroutine stream; a power of two
	callKeys      = 512   // distinct keys per private Dictionary
	callListLen   = 256   // elements per private List
	callChunk     = 64    // ops between two looks at the stop flag
	sharedEvery   = 16    // about one op in sharedEvery reads the shared Dictionary
	tracedOps     = 20000 // per goroutine, in a traced run
	tracedChunks  = 4     // traced ops run in this many chunks
	spansPerOp    = 6     // spans a traced op records
)

// genCallStreams derives one op stream per goroutine from seed.
func genCallStreams(seed int64, goroutines int) [][]callOp {
	rng := rand.New(rand.NewSource(seed))
	out := make([][]callOp, goroutines)
	for g := range out {
		ops := make([]callOp, callStreamLen)
		for i := range ops {
			k := callKind(rng.Intn(int(sharedHas)))
			if rng.Intn(sharedEvery) == 0 {
				k = sharedHas
			}
			ops[i] = callOp{kind: k, key: rng.Intn(callKeys)}
		}
		out[g] = ops
	}
	return out
}

// callObjs is one goroutine's container set. With a nil detector the same
// types run uninstrumented, which gives the identical op stream without the
// prologue.
type callObjs struct {
	dict   *collections.Dictionary[int, int]
	list   *collections.List[int]
	shared *collections.Dictionary[int, int]
}

func (o *callObjs) do(op callOp) int {
	switch op.kind {
	case dictSet:
		o.dict.Set(op.key, op.key)
	case dictGet:
		v, _ := o.dict.TryGetValue(op.key)
		return v
	case dictHas:
		if o.dict.ContainsKey(op.key) {
			return 1
		}
	case listSet:
		o.list.Set(op.key%callListLen, op.key)
	case listGet:
		return o.list.Get(op.key % callListLen)
	case sharedHas:
		if o.shared.ContainsKey(op.key) {
			return 1
		}
	}
	return 0
}

const (
	modeInstrumented = iota
	modeUninstrumented
	modeTraced
)

// callsWorker is one closed-loop client. It lives for the whole phase so
// that its goroutine, and with it the detector's thread id for its private
// objects, never changes: a private object touched by a second goroutine
// would be a real conflict.
type callsWorker struct {
	ops      []callOp
	inst     callObjs
	uninst   callObjs
	rawMap   *rawcol.Map[int, int]
	rawArray *rawcol.Array[int]
	cmds     chan int
	sink     int

	// The traced path (tracedOp) reads these instead of taking arguments.
	lane        *lane
	tracedDet   core.Detector
	tracedReg   *sites.Registry
	tracedRoot  uint64
	tracedNext  int // index in ops of the next traced op
	tracedKind  callKind
	tracedObj   ids.ObjectID
	tracedClass string
}

type callsPool struct {
	det     core.Detector
	workers []*callsWorker
	stop    atomic.Bool
	done    chan int64
	wg      sync.WaitGroup
}

func newCallsPool(in *inputs, tr *tracer) *callsPool {
	p := &callsPool{det: in.session.Detector(), done: make(chan int64, len(in.streams))}
	shared := tsvd.NewDictionary[int, int]()
	sharedUninst := collections.NewDictionary[int, int](nil)
	var ready sync.WaitGroup
	for _, ops := range in.streams {
		w := &callsWorker{ops: ops, cmds: make(chan int), lane: tr.lane()}
		p.workers = append(p.workers, w)
		ready.Add(1)
		p.wg.Add(1)
		go func() {
			defer p.wg.Done()
			// The owner creates and fills its private objects, so every
			// access to them comes from this one goroutine.
			w.inst = callObjs{dict: tsvd.NewDictionary[int, int](), list: tsvd.NewList[int](), shared: shared}
			w.uninst = callObjs{dict: collections.NewDictionary[int, int](nil), list: collections.NewList[int](nil), shared: sharedUninst}
			w.rawMap, w.rawArray = rawcol.NewMap[int, int](), rawcol.NewArray[int]()
			for i := 0; i < callListLen; i++ {
				w.inst.list.Add(i)
				w.uninst.list.Add(i)
				w.rawArray.Append(i)
			}
			ready.Done()
			for mode := range w.cmds {
				p.done <- w.serve(mode, p)
			}
		}()
	}
	ready.Wait()
	return p
}

func (w *callsWorker) serve(mode int, p *callsPool) int64 {
	if mode == modeTraced {
		// Called from here, as do is, so the traced path has the real
		// path's stack depth.
		w.tracedDet, w.tracedReg = p.det, p.det.Sites()
		// Room for every span up front, so that growing the buffer does
		// not land in the traced ops' time.
		if len(w.lane.spans) == 0 {
			w.lane.spans = slices.Grow(w.lane.spans, tracedOps*spansPerOp)
		}
		for range tracedOps / tracedChunks {
			w.tracedOp(w.ops[w.tracedNext])
			w.tracedNext = (w.tracedNext + 1) & (callStreamLen - 1)
		}
		return tracedOps / tracedChunks
	}
	o := &w.inst
	if mode == modeUninstrumented {
		o = &w.uninst
	}
	// The sum stays in a local until the round ends: workers' structs may
	// share a cache line, and a store per op would measure false sharing.
	var n int64
	sink, i := 0, 0
	for !p.stop.Load() {
		for j := 0; j < callChunk; j++ {
			sink += o.do(w.ops[i])
			i = (i + 1) & (callStreamLen - 1)
		}
		n += callChunk
	}
	w.sink += sink
	return n
}

// round runs mode on the first k workers for about d and returns the
// throughput over all of them and the per-goroutine time per op.
func (p *callsPool) round(mode, k int, d time.Duration) (opsPerS, nsPerOp float64, ops int64) {
	p.stop.Store(false)
	start := time.Now()
	for _, w := range p.workers[:k] {
		w.cmds <- mode
	}
	time.Sleep(d)
	p.stop.Store(true)
	for range p.workers[:k] {
		ops += <-p.done
	}
	el := time.Since(start)
	return float64(ops) / el.Seconds(), float64(el.Nanoseconds()) * float64(k) / float64(ops), ops
}

func (p *callsPool) close() {
	for _, w := range p.workers {
		close(w.cmds)
	}
	p.wg.Wait()
}

// callsRun measures the instrumented and uninstrumented streams in
// alternating rounds. It is split over several pools, each with fresh
// goroutines and containers: one pool runs at one of two speeds some 15%
// apart for its whole life, so the run reports means over pools. Within a
// pool, a median over short rounds sits in the middle of the host's speed
// swings, and the overhead ratio of a round pair cancels a slow spell that
// covers both of its rounds.
type callsRun struct {
	b              *bench
	in             *inputs
	pools, rounds  int
	instD, uninstD time.Duration

	poolRates, poolRatios, instNs, uninstNs []float64
	attempted                               int64
	p                                       *callsPool
}

func (b *bench) newCallsRun(in *inputs, primary bool) *callsRun {
	c := &callsRun{b: b, in: in, pools: 8, rounds: 3, instD: 200 * time.Millisecond, uninstD: 50 * time.Millisecond}
	if primary {
		c.pools, c.rounds = 10, 4
		c.instD = b.window / time.Duration(c.pools*c.rounds) * 4 / 5
		c.uninstD = b.window / time.Duration(c.pools*c.rounds) / 5
	}
	return c
}

// turn runs turn i's share of the pools.
func (c *callsRun) turn(i, n int) error {
	for k := i * c.pools / n; k < (i+1)*c.pools/n; k++ {
		if c.p != nil {
			c.p.close()
		}
		p := newCallsPool(c.in, c.b.tr)
		c.p = p
		p.round(modeInstrumented, len(p.workers), c.instD/4) // warm the caches
		p.round(modeUninstrumented, len(p.workers), c.uninstD/4)
		var rates, ratios []float64
		for r := 0; r < c.rounds; r++ {
			rate, ns, ops := p.round(modeInstrumented, len(p.workers), c.instD)
			_, uns, _ := p.round(modeUninstrumented, len(p.workers), c.uninstD)
			rates, ratios = append(rates, rate), append(ratios, callOverheadX(ns, uns))
			c.instNs, c.uninstNs = append(c.instNs, ns), append(c.uninstNs, uns)
			c.attempted += ops
		}
		c.poolRates, c.poolRatios = append(c.poolRates, median(rates)), append(c.poolRatios, median(ratios))
	}
	return nil
}

func (c *callsRun) finish() error {
	b, p := c.b, c.p
	defer p.close()
	callsPerS := mean(c.poolRates)
	b.setE2E("calls_per_s", callsPerS, "1/s")
	b.setE2E("call_overhead_x", mean(c.poolRatios), "x")
	b.notef("calls: %d goroutines, %d pools x %d rounds: instrumented %.0f ns/op, uninstrumented %.1f ns/op; spread over pools %.3f",
		len(p.workers), c.pools, c.rounds, median(c.instNs), median(c.uninstNs), spread(c.poolRates))

	if b.tr != nil {
		b.callsLayers(p, callsPerS)
	}

	st := c.in.session.Stats()
	failed := checkCalls(st, len(c.in.session.Bugs()))
	if failed > 0 {
		b.notef("calls: FAILED: %d delays injected, %d bugs reported on a conflict-free stream",
			st.DelaysInjected, len(c.in.session.Bugs()))
	}
	b.ops(c.attempted, failed)
	return nil
}

// callsLayers is the traced part of the calls phase: one-goroutine
// throughput, and the same op stream with the container prologue spelled
// out so that each layer call gets its own span.
func (b *bench) callsLayers(p *callsPool, callsPerS float64) {
	var g1 []float64
	for r := 0; r < 3; r++ {
		rate, _, _ := p.round(modeInstrumented, 1, 500*time.Millisecond)
		g1 = append(g1, rate)
	}
	b.setLayer("calls.per_s_g1", median(g1), "1/s")
	b.setLayer("calls.scaling_x", callsPerS/median(g1), "x")

	// The untraced cost the spans are compared with is measured in rounds
	// that alternate with chunks of the traced ops, so that the host's
	// slower and faster spells fall on both sides alike.
	floor := spanFloorNs()
	var untraced []float64
	for k := 0; ; k++ {
		_, ns, _ := p.round(modeInstrumented, len(p.workers), 250*time.Millisecond)
		untraced = append(untraced, ns)
		if k == tracedChunks {
			break
		}
		for _, w := range p.workers {
			w.cmds <- modeTraced
		}
		for range p.workers {
			<-p.done
		}
	}
	perOpNs := median(untraced)

	var spans []span
	for _, w := range p.workers {
		spans = append(spans, w.lane.spans...)
	}
	durs := byName(spans)
	layer := func(name string) float64 { return meanNs(durs[name]) - floor }
	b.setLayer("ids.thread_id_ns", layer("ids.CurrentThreadID"), "ns")
	b.setLayer("ids.caller_op_ns", layer("ids.CallerOp"), "ns")
	b.setLayer("sites.for_call_ns", layer("sites.Registry.ForCall"), "ns")
	b.setLayer("core.oncall_private_ns", layer("core.OnCall.private"), "ns")
	b.setLayer("core.oncall_shared_ns", layer("core.OnCall.shared"), "ns")
	b.setLayer("rawcol.op_ns", layer("rawcol.op"), "ns")

	var children, roots float64
	var nOps int
	for _, s := range spans {
		if s.Parent == 0 {
			roots += float64(s.dur())
			nOps++
		} else {
			children += float64(s.dur()) - floor
		}
	}
	unattributed := perOpNs - children/float64(nOps)
	overhead := (roots/float64(nOps) - perOpNs) / perOpNs
	b.setLayer("calls.unattributed_ns", unattributed, "ns")
	b.setLayer("calls.trace_overhead_frac", overhead, "frac")
	b.notef("calls: traced %d ops, span clock floor %.1f ns subtracted from every layer span", nOps, floor)
	b.ops(0, b.checkTracedCopy(collectionsSource, unattributed/perOpNs, overhead))
}

// copyDrift is how far, as a share of the untraced op, the traced copy of
// the call path may cost more or less than the real path. Past it the copy
// no longer stands for the real path and the traced run fails.
const copyDrift = 0.5

// collectionsSource holds collections' onCall, which tracedPrologue copies;
// the benchmark runs from the repository root.
const collectionsSource = "internal/collections/collections.go"

// checkTracedCopy fails the traced run when the traced call path no longer
// matches the real one: when onCall in source calls other functions than
// tracedPrologue does, or when the spans explain the real op's cost only to
// within more than copyDrift either way.
func (b *bench) checkTracedCopy(source string, unattributedFrac, overheadFrac float64) int64 {
	var failed int64
	calls, err := prologueCalls(source)
	if err == nil && !slices.Equal(calls, tracedPrologueCalls) {
		err = fmt.Errorf("onCall calls %v, tracedPrologue %v", calls, tracedPrologueCalls)
	}
	if err != nil {
		b.notef("calls: FAILED: the traced copy of the call path does not match collections' onCall: %v", err)
		failed++
	}
	if math.Abs(unattributedFrac) > copyDrift || math.Abs(overheadFrac) > copyDrift {
		b.notef("calls: FAILED: the traced copy of the call path has drifted from the real one: its layer spans leave %+.0f%% of the real op unexplained and a traced op costs %+.0f%% more than a real one, and both must stay within %.0f%%",
			100*unattributedFrac, 100*overheadFrac, 100*copyDrift)
		failed++
	}
	return failed
}

// tracedPrologueCalls are the functions tracedPrologue calls, as
// prologueCalls names them.
var tracedPrologueCalls = []string{"CallerOp", "CurrentThreadID", "ForCall", "OnCall"}

// prologueCalls parses the Go file at path and returns the sorted names of
// the functions the onCall method calls.
func prologueCalls(path string) ([]string, error) {
	f, err := parser.ParseFile(token.NewFileSet(), path, nil, 0)
	if err != nil {
		return nil, err
	}
	for _, d := range f.Decls {
		fn, ok := d.(*ast.FuncDecl)
		if !ok || fn.Recv == nil || fn.Name.Name != "onCall" {
			continue
		}
		var calls []string
		ast.Inspect(fn.Body, func(n ast.Node) bool {
			if c, ok := n.(*ast.CallExpr); ok {
				switch f := c.Fun.(type) {
				case *ast.Ident:
					calls = append(calls, f.Name)
				case *ast.SelectorExpr:
					calls = append(calls, f.Sel.Name)
				}
			}
			return true
		})
		sort.Strings(calls)
		return calls, nil
	}
	return nil, fmt.Errorf("%s: no onCall method", path)
}

// spanFloorNs is the cost of an empty span: two clock reads back to back.
func spanFloorNs() float64 {
	t := newTracer()
	l := t.lane()
	const n = 100000
	for i := 0; i < n; i++ {
		s := l.now()
		l.record("floor", 0, 0, s, l.now())
	}
	return meanNs(byName(l.spans)["floor"])
}

// The traced path is a copy of the container call path with every layer
// call in its own span. The copy keeps the real path's frames, down to
// their argument shapes (user code, container method, prologue), because
// goroutine identity and call-site lookup walk and print the stack and cost
// more the deeper and wider it is. What the frames would pass, they find in
// the worker's traced* fields instead.

// tracedOp stands for the user code in callObjs.do: one call site per op
// kind.
//
//go:noinline
func (w *callsWorker) tracedOp(op callOp) {
	l := w.lane
	w.tracedRoot = l.newID()
	start := l.now()
	w.tracedKind = op.kind
	switch op.kind {
	case dictSet:
		w.tracedObj, w.tracedClass = w.inst.dict.ObjectID(), "Dictionary"
		w.tracedCall(op.key, core.KindWrite, "Set")
	case dictGet:
		w.tracedObj, w.tracedClass = w.inst.dict.ObjectID(), "Dictionary"
		w.tracedCall(op.key, core.KindRead, "TryGetValue")
	case dictHas:
		w.tracedObj, w.tracedClass = w.inst.dict.ObjectID(), "Dictionary"
		w.tracedCall(op.key, core.KindRead, "ContainsKey")
	case listSet:
		w.tracedObj, w.tracedClass = w.inst.list.ObjectID(), "List"
		w.tracedCall(op.key, core.KindWrite, "Set")
	case listGet:
		w.tracedObj, w.tracedClass = w.inst.list.ObjectID(), "List"
		w.tracedCall(op.key, core.KindRead, "Get")
	case sharedHas:
		w.tracedObj, w.tracedClass = w.inst.shared.ObjectID(), "Dictionary"
		w.tracedCall(op.key, core.KindRead, "ContainsKey")
	}
	l.add(span{ID: w.tracedRoot, Op: w.tracedRoot, Name: "calls.op", Start: start, End: l.now()})
}

// tracedCall stands for the container method: the prologue, then the bare
// rawcol operation.
//
//go:noinline
func (w *callsWorker) tracedCall(key int, kind core.Kind, method string) {
	w.tracedPrologue(method, kind)
	l := w.lane
	t := l.now()
	w.sink += w.rawOp(callOp{kind: w.tracedKind, key: key})
	l.record("rawcol.op", w.tracedRoot, w.tracedRoot, t, l.now())
}

// tracedPrologue is collections' onCall with a span around each layer call.
// Any change to onCall must be copied here: checkTracedCopy fails the traced
// run when the two call different functions or cost different amounts.
//
//go:noinline
func (w *callsWorker) tracedPrologue(method string, kind core.Kind) {
	l, root := w.lane, w.tracedRoot
	t0 := l.now()
	site := ids.CallerOp(1)
	t1 := l.now()
	thread := ids.CurrentThreadID()
	t2 := l.now()
	sid := w.tracedReg.ForCall(site, w.tracedClass, method, kind == core.KindWrite)
	t3 := l.now()
	w.tracedDet.OnCall(core.Access{Thread: thread, Obj: w.tracedObj, Op: site, Site: sid, Kind: kind})
	t4 := l.now()
	oncall := "core.OnCall.private"
	if w.tracedKind == sharedHas {
		oncall = "core.OnCall.shared"
	}
	l.record("ids.CallerOp", root, root, t0, t1)
	l.record("ids.CurrentThreadID", root, root, t1, t2)
	l.record("sites.Registry.ForCall", root, root, t2, t3)
	l.record(oncall, root, root, t3, t4)
}

// rawOp is op on the worker's bare rawcol containers: the floor under the
// instrumented call.
func (w *callsWorker) rawOp(op callOp) int {
	switch op.kind {
	case dictSet:
		w.rawMap.Set(op.key, op.key)
	case dictGet:
		v, _ := w.rawMap.Get(op.key)
		return v
	case dictHas, sharedHas:
		if w.rawMap.Contains(op.key) {
			return 1
		}
	case listSet:
		w.rawArray.Set(op.key%callListLen, op.key)
	case listGet:
		return w.rawArray.Get(op.key % callListLen)
	}
	return 0
}
