package chaos

import (
	"bytes"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"time"

	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/harness"
	"repro/internal/metrics"
	"repro/internal/trace"
	"repro/internal/trapfile"
	"repro/internal/trapstore"
	"repro/internal/workload"
)

// chaosTool labels every trap set the harness produces.
const chaosTool = "TSVD"

// gatedHandler fronts one daemon's HTTP handler behind a stable URL for the
// whole fleet lifetime. Peers and clients hold fixed URLs across daemon
// restarts (as they would fixed host:port pairs in production), so the
// listener must outlive the daemon process it serves: a down or partitioned
// daemon answers 503 — which HTTPStore classifies exactly like a refused
// connection (retry, then ErrUnavailable) — and a restarted daemon swaps a
// fresh handler in behind the same URL.
type gatedHandler struct {
	mu          sync.Mutex
	inner       http.Handler
	up          bool
	partitioned bool
}

func (g *gatedHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	g.mu.Lock()
	inner, reachable := g.inner, g.up && !g.partitioned
	g.mu.Unlock()
	if !reachable {
		http.Error(w, "chaos: daemon unreachable", http.StatusServiceUnavailable)
		return
	}
	inner.ServeHTTP(w, r)
}

func (g *gatedHandler) swap(h http.Handler, up bool) {
	g.mu.Lock()
	g.inner, g.up = h, up
	g.mu.Unlock()
}

func (g *gatedHandler) setPartitioned(p bool) {
	g.mu.Lock()
	g.partitioned = p
	g.mu.Unlock()
}

// daemonNode is one tsvd-trapd of the simulated cluster: a real trapstore
// handler and replicator behind a real HTTP listener, persisting through the
// real SnapshotPersister.
type daemonNode struct {
	snapPath string
	srv      *httptest.Server
	gate     *gatedHandler
	checker  *trapstore.HTTPStore // pristine client the invariant checks read through

	mem         *trapstore.Memory
	repl        *trapstore.Replicator
	up          bool
	partitioned bool
}

// fleet is the simulated deployment: cfg.Daemons in-process tsvd-trapds
// replicating to each other (full mesh), plus per-shard local trap files.
type fleet struct {
	cfg    Config
	dir    string
	locals []string
	nodes  []*daemonNode
}

func newFleet(cfg Config, dir string) (*fleet, error) {
	f := &fleet{
		cfg:    cfg,
		dir:    dir,
		locals: make([]string, cfg.Shards),
		nodes:  make([]*daemonNode, cfg.Daemons),
	}
	for i := range f.locals {
		f.locals[i] = filepath.Join(dir, fmt.Sprintf("shard%d-traps.json", i))
	}
	// All listeners come up first so every node knows every peer URL before
	// any daemon starts.
	for i := range f.nodes {
		gate := &gatedHandler{}
		f.nodes[i] = &daemonNode{
			snapPath: filepath.Join(dir, fmt.Sprintf("daemon%d-snapshot.json", i)),
			gate:     gate,
			srv:      httptest.NewServer(gate),
		}
	}
	for i, n := range f.nodes {
		n.checker = trapstore.NewHTTPStore(n.srv.URL, fastRetries(trapstore.HTTPConfig{}))
		if err := f.startDaemon(i); err != nil {
			return nil, err
		}
	}
	return f, nil
}

// startDaemon boots daemon i: a new Memory restored from its snapshot file
// (continuing the persisted generation under a fresh boot epoch, exactly as
// cmd/tsvd-trapd does), served behind its stable URL, persisting every
// growing merge through a fresh SnapshotPersister, with a replicator wired
// to every other node. The replicator is never Start()ed — the plan drives
// sync rounds deterministically via actPeerSync and converge.
func (f *fleet) startDaemon(i int) error {
	n := f.nodes[i]
	persister := trapstore.NewSnapshotPersister(n.snapPath)
	seed, prev, err := persister.Load()
	if err != nil {
		// The snapshot is written atomically; an unreadable one is a bug,
		// not an environment problem — but it is detected by the invariant
		// checks, not here. Refuse like the real daemon does.
		return fmt.Errorf("chaos: daemon %d refused to start: %w", i, err)
	}
	n.mem = trapstore.NewMemory(chaosTool, nil)
	n.mem.Restore(seed, prev)
	onMerge := func(file trapfile.File, st trapstore.SyncState) { _ = persister.Save(file, st) }
	h := trapstore.NewHandler(n.mem, trapstore.HandlerOptions{OnMerge: onMerge})
	var peers []string
	for j, p := range f.nodes {
		if j != i {
			peers = append(peers, p.srv.URL)
		}
	}
	n.repl = trapstore.NewReplicator(n.mem, trapstore.ReplicatorConfig{
		Peers:   peers,
		HTTP:    fastRetries(trapstore.HTTPConfig{}),
		OnMerge: onMerge,
	})
	n.gate.swap(h, true)
	n.up = true
	return nil
}

// peerIndex maps a node's replicator peer list position back to the fleet
// node index (the replicator skips the node itself).
func (f *fleet) peerIndex(node, peerPos int) int {
	if peerPos >= node {
		return peerPos + 1
	}
	return peerPos
}

// killDaemon drops daemon i hard: its in-memory set is gone, its URL starts
// refusing (503, which clients classify like a dead host), its replicator
// dies with it. Only the snapshot file survives.
func (f *fleet) killDaemon(i int) {
	n := f.nodes[i]
	if !n.up {
		return
	}
	n.gate.swap(nil, false)
	n.up = false
	if n.repl != nil {
		n.repl.Close()
		n.repl = nil
	}
	n.mem = nil
}

func (f *fleet) shutdown() {
	for i, n := range f.nodes {
		f.killDaemon(i)
		n.checker.Close()
		n.srv.Close()
	}
}

// daemonURL returns daemon i's base URL — stable for the fleet's lifetime,
// refusing requests while the daemon is down or partitioned.
func (f *fleet) daemonURL(i int) string { return f.nodes[i].srv.URL }

// fastRetries tightens a client config to chaos pace: two attempts,
// millisecond backoffs. Callers' Tracer/Metrics/Transport fields pass
// through.
func fastRetries(cfg trapstore.HTTPConfig) trapstore.HTTPConfig {
	cfg.Timeout = 2 * time.Second
	cfg.Attempts = 2
	cfg.BackoffBase = time.Millisecond
	cfg.BackoffMax = 4 * time.Millisecond
	return cfg
}

// violation builds a Violation anchored at action act, naming the offending
// pairs for the explanation slice.
func violation(act int, invariant, detail string, pairs []trapfile.Pair) *Violation {
	return &Violation{Action: act, Invariant: invariant, Detail: detail, pairs: pairs}
}

// apply executes one action, updating the model. A non-nil return is an
// invariant breach observed during the action itself (oracle failures);
// post-action state checks live in checkInvariants.
func (f *fleet) apply(act int, a action, m *model) *Violation {
	switch a.kind {
	case actRunShard:
		return f.runShard(act, a, m)
	case actKillDaemon:
		m.event("act#%02d daemon %d killed (in-memory set discarded)", act, a.daemon)
		f.killDaemon(a.daemon)
		return nil
	case actRestartDaemon:
		f.killDaemon(a.daemon)
		if err := f.startDaemon(a.daemon); err != nil {
			return violation(act, "daemon-restart",
				fmt.Sprintf("daemon %d failed to restart from its own snapshot: %v", a.daemon, err), nil)
		}
		m.event("act#%02d daemon %d restarted, restored from snapshot", act, a.daemon)
		return nil
	case actPartitionDaemon:
		n := f.nodes[a.daemon]
		n.partitioned = true
		n.gate.setPartitioned(true)
		m.event("act#%02d daemon %d partitioned away from the cluster", act, a.daemon)
		return nil
	case actHealPartition:
		n := f.nodes[a.daemon]
		n.partitioned = false
		n.gate.setPartitioned(false)
		m.event("act#%02d daemon %d partition healed", act, a.daemon)
		return nil
	case actPeerSync:
		return f.peerSync(act, m)
	case actCorruptFile:
		if err := os.WriteFile(f.locals[a.shard], []byte("{ this is not a trap file"), 0o644); err != nil {
			return violation(act, "environment", fmt.Sprintf("corrupting shard file: %v", err), nil)
		}
		m.corrupt[a.shard] = true
		m.event("act#%02d shard %d trap file overwritten with garbage", act, a.shard)
		return nil
	case actTruncateFile:
		if err := trapfile.Save(f.locals[a.shard], trapfile.File{Tool: chaosTool}); err != nil {
			return violation(act, "environment", fmt.Sprintf("truncating shard file: %v", err), nil)
		}
		m.clearLocal(a.shard, act, "file truncated to an empty valid trap file")
		m.corrupt[a.shard] = false
		m.event("act#%02d shard %d trap file truncated to empty", act, a.shard)
		return nil
	case actConcurrentPublish:
		return f.concurrentPublish(act, a, m)
	case actSupersedeInstall:
		return f.supersedeInstall(act, a)
	case actConverge:
		return f.converge(act, m)
	default:
		return violation(act, "plan", fmt.Sprintf("unknown action kind %d", a.kind), nil)
	}
}

// peerSync runs one anti-entropy round on every live, unpartitioned daemon
// in node order, folding the exact pulled/pushed pair lists into the model.
// A sync leg that fails against a peer that is itself live and reachable is
// an oracle failure: with no fault between two healthy daemons, anti-entropy
// must move pairs.
func (f *fleet) peerSync(act int, m *model) *Violation {
	moved := 0
	for i, n := range f.nodes {
		if !n.up || n.partitioned {
			continue
		}
		for pos, res := range n.repl.SyncOnce() {
			j := f.peerIndex(i, pos)
			peerOK := f.nodes[j].up && !f.nodes[j].partitioned
			if res.PullErr != nil {
				if peerOK {
					return violation(act, "peer-sync",
						fmt.Sprintf("daemon %d pull from healthy daemon %d failed: %v", i, j, res.PullErr), nil)
				}
			} else {
				m.ack(i, res.Pulled, act, fmt.Sprintf("daemon %d pulled from daemon %d", i, j))
				moved += len(res.Pulled)
			}
			if res.PushErr != nil {
				if peerOK {
					return violation(act, "peer-sync",
						fmt.Sprintf("daemon %d push to healthy daemon %d failed: %v", i, j, res.PushErr), nil)
				}
			} else if len(res.Pushed) > 0 {
				m.ack(j, res.Pushed, act, fmt.Sprintf("daemon %d pushed to daemon %d", i, j))
				moved += len(res.Pushed)
			}
		}
	}
	m.event("act#%02d peer-sync round moved %d pairs", act, moved)
	return nil
}

// runShard executes one CI shard run through the full production stack —
// harness, Fallback(HTTPStore, FileStore), tracer, metrics — then applies
// the in-process oracles: store-error classification, ground-truth
// containment, exact trace reconciliation (the tsvd-trace-check rule) and
// exact metrics reconciliation (the harness TestSmokeMetrics rule) — and folds the
// observed outcome into the model.
func (f *fleet) runShard(act int, a action, m *model) *Violation {
	cfg := config.Defaults(a.algo).Scaled(chaosScale)
	cfg.Trace = true
	cfg.Seed = a.detSeed
	cfg.Mode = a.mode
	if a.mode == config.ModeSampled {
		cfg.SampleProbability = a.sampleP
	}
	if err := cfg.Validate(); err != nil {
		return violation(act, "plan", fmt.Sprintf("invalid shard config: %v", err), nil)
	}

	storeTracer := trace.New(1 << 14)
	detReg := metrics.NewRegistry()
	detMet := core.NewDetectorMetrics(detReg)
	storeReg := metrics.NewRegistry()

	rt := newFaultRT(a.fault, func() {
		m.event("act#%02d daemon %d killed mid-run by injected fault", act, a.daemon)
		f.killDaemon(a.daemon)
	})
	httpCfg := fastRetries(trapstore.HTTPConfig{Tracer: storeTracer, Metrics: storeReg, Transport: rt})
	remote := trapstore.NewHTTPStore(f.daemonURL(a.daemon), httpCfg)
	local := trapstore.NewFileStore(f.locals[a.shard], storeTracer)
	store := trapstore.NewFallback(remote, local, storeTracer)
	store.RegisterMetrics(storeReg)
	defer store.Close()

	suite := workload.GenerateSuite(a.suite, a.modules)
	out := harness.Run(suite, harness.Options{
		Config:      cfg,
		Runs:        1,
		Parallelism: 4,
		RunSeedBase: harness.Seed(a.runSeed),
		Store:       store,
		Metrics:     detMet,
	})

	remTotals, localTotals, fbTotals := remote.Totals(), local.Totals(), store.Totals()

	// Oracle 1: the detector never fabricates pairs.
	if len(out.UnknownPairs) > 0 {
		return violation(act, "ground-truth",
			fmt.Sprintf("shard %d reported %d pairs outside the suite's planted ground truth",
				a.shard, len(out.UnknownPairs)), nil)
	}

	// Oracle 2: exact trace reconciliation — serialize every drained event
	// (detector modules plus the store pseudo-module) to JSONL, validate the
	// schema, and reconcile counts against Stats and store totals, exactly
	// as tsvd-trace-check does for tsvd-run output.
	stTot := storeTracer.Totals()
	traces := append(append([]trace.ModuleTrace{}, out.Traces...), trace.ModuleTrace{
		Module: "trapstore", Events: storeTracer.Drain(),
		Emitted: stTot.Emitted, Dropped: stTot.Dropped,
	})
	var buf bytes.Buffer
	for _, mt := range traces {
		if err := trace.WriteJSONL(&buf, mt, out.Sites); err != nil {
			return violation(act, "trace-schema", fmt.Sprintf("serializing trace: %v", err), nil)
		}
	}
	m.storeTail = storeTraceTail(&buf)
	counts, err := trace.ValidateJSONL(bytes.NewReader(buf.Bytes()))
	if err != nil {
		return violation(act, "trace-schema", err.Error(), nil)
	}
	dropped := out.TraceTotals.Dropped + stTot.Dropped
	if err := trace.Reconcile(counts, out.TraceStatTotals(), fbTotals, dropped); err != nil {
		return violation(act, "trace-reconcile", err.Error(), nil)
	}

	// Oracle 3: exact metrics reconciliation — the exported series must
	// equal the same counters the trace just reconciled.
	if v := reconcileMetrics(act, a.shard, detReg, storeReg, out, remTotals,
		fbTotals.Fallbacks-remTotals.Fallbacks-localTotals.Fallbacks); v != nil {
		return v
	}

	// Oracle 4: store-error classification. A corrupt local file is the one
	// legitimate store failure, and it must classify as exit code 3; the
	// shard then heals by deleting the file, as an operator would.
	if m.corrupt[a.shard] {
		if code := harness.StoreExitCode(out.StoreErr); code != 3 {
			return violation(act, "corrupt-classification",
				fmt.Sprintf("shard %d ran over a corrupted trap file; StoreExitCode = %d (err %v), want 3",
					a.shard, code, out.StoreErr), nil)
		}
		if err := os.Remove(f.locals[a.shard]); err != nil {
			return violation(act, "environment", fmt.Sprintf("healing corrupt file: %v", err), nil)
		}
		m.corrupt[a.shard] = false
		m.clearLocal(a.shard, act, "corrupt file detected (exit 3) and deleted")
		m.event("act#%02d shard %d detected corruption, healed by deleting the file", act, a.shard)
		return nil
	}
	if out.StoreErr != nil {
		return violation(act, "store-error",
			fmt.Sprintf("shard %d store error with a healthy file (the Fallback should have degraded): %v",
				a.shard, out.StoreErr), nil)
	}

	// Fold the observed outcome into the model, by contract: publish
	// success ⇒ pairs durable in the local file; a daemon publish ack ⇒
	// pairs durable in that daemon's snapshot.
	pairs := trapfile.FromKeys(out.FinalTraps)
	m.localAdd(a.shard, pairs, act, fmt.Sprintf("published by %s run", a.algo))
	switch {
	case remTotals.Publishes >= 1:
		m.ack(a.daemon, pairs, act, fmt.Sprintf("shard %d publish acknowledged", a.shard))
	case rt.maybeDeliveredPosts() > 0:
		m.limboAdd(pairs, act, fmt.Sprintf("shard %d publish reached the wire but failed", a.shard))
	}
	return nil
}

// storeTraceTail extracts the trailing trapstore-module lines of a JSONL
// buffer for the explanation slice.
func storeTraceTail(buf *bytes.Buffer) []string {
	var tail []string
	for _, line := range strings.Split(buf.String(), "\n") {
		if strings.Contains(line, `"module":"trapstore"`) || strings.Contains(line, `"trapstore"`) {
			tail = append(tail, "store event: "+line)
		}
	}
	const max = 10
	if len(tail) > max {
		tail = tail[len(tail)-max:]
	}
	return tail
}

// reconcileMetrics applies the harness TestSmokeMetrics rule: detector
// series equal Outcome.Stats, store series equal the wire totals.
func reconcileMetrics(act, shard int, detReg, storeReg *metrics.Registry, out *harness.Outcome,
	rem trace.StoreTotals, fbOwnFallbacks int64) *Violation {

	detVals := detReg.Values()
	for _, c := range []struct {
		series string
		want   int64
	}{
		{"tsvd_detector_on_calls_total", out.Stats.OnCalls},
		{"tsvd_detector_delays_injected_total", out.Stats.DelaysInjected},
		{"tsvd_detector_near_misses_total", out.Stats.NearMisses},
		{"tsvd_detector_pairs_added_total", out.Stats.PairsAdded},
		{"tsvd_detector_violations_total", out.Stats.Violations},
	} {
		if got := detVals[c.series]; got != float64(c.want) {
			return violation(act, "metrics-reconcile",
				fmt.Sprintf("shard %d: %s = %v, Stats say %d", shard, c.series, got, c.want), nil)
		}
	}
	storeVals := storeReg.Values()
	for _, c := range []struct {
		series string
		want   int64
	}{
		{`tsvd_store_ops_total{op="fetch"}`, rem.Fetches},
		{`tsvd_store_ops_total{op="publish"}`, rem.Publishes},
		{`tsvd_store_ops_total{op="fallback"}`, fbOwnFallbacks},
	} {
		if got := storeVals[c.series]; got != float64(c.want) {
			return violation(act, "metrics-reconcile",
				fmt.Sprintf("shard %d: %s = %v, wire totals say %d", shard, c.series, got, c.want), nil)
		}
	}
	return nil
}

// concurrentPublish hits one daemon with three simultaneous direct
// publishers carrying disjoint synthetic pair sets — the merge path under
// real request concurrency. Skipped (a visible no-op) when that daemon is
// unreachable: there is nothing to publish at.
func (f *fleet) concurrentPublish(act int, a action, m *model) *Violation {
	n := f.nodes[a.daemon]
	if !n.up || n.partitioned {
		m.event("act#%02d concurrent-publish skipped: daemon %d unreachable", act, a.daemon)
		return nil
	}
	const writers = 3
	files := make([]trapfile.File, writers)
	for w := range files {
		ns := a.base + w
		files[w] = trapfile.File{Tool: chaosTool, Pairs: []trapfile.Pair{
			{A: fmt.Sprintf("chaos/pub%d.go:1", ns), B: fmt.Sprintf("chaos/pub%d.go:2", ns)},
			{A: fmt.Sprintf("chaos/pub%d.go:3", ns), B: fmt.Sprintf("chaos/pub%d.go:4", ns)},
		}}
	}
	errs := make([]error, writers)
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			s := trapstore.NewHTTPStore(f.daemonURL(a.daemon), fastRetries(trapstore.HTTPConfig{}))
			defer s.Close()
			errs[w] = s.Publish(files[w])
		}(w)
	}
	wg.Wait()
	for w, err := range errs {
		if err == nil {
			m.ack(a.daemon, files[w].Pairs, act, fmt.Sprintf("concurrent publisher %d acknowledged", w))
		} else {
			// The pairs reached the wire against a live daemon; treat the
			// failed writer's delivery as ambiguous rather than guessing.
			m.limboAdd(files[w].Pairs, act, fmt.Sprintf("concurrent publisher %d failed: %v", w, err))
		}
	}
	m.event("act#%02d concurrent-publish: 3 writers at daemon %d, %d pairs", act, a.daemon, 2*writers)
	return nil
}

// converge is the closing anti-entropy storm: heal every partition, restart
// every downed daemon, heal corrupt files, push every shard file into the
// cluster, run one full peer-sync round (after which every daemon holds
// every pair — each node's push leg broadcasts its set to all others), pull
// the converged snapshot back into every shard file, and require exact set
// equality across all daemons and all shard files — the G-Set CRDT's single
// converged value, cluster-wide.
func (f *fleet) converge(act int, m *model) *Violation {
	// Phase 0a: full connectivity. Partitions heal, downed daemons restart.
	for i, n := range f.nodes {
		if n.partitioned {
			n.partitioned = false
			n.gate.setPartitioned(false)
			m.event("act#%02d converge healed daemon %d's partition", act, i)
		}
		if !n.up {
			if err := f.startDaemon(i); err != nil {
				return violation(act, "daemon-restart",
					fmt.Sprintf("converge could not restart daemon %d: %v", i, err), nil)
			}
			m.event("act#%02d converge restarted daemon %d from its snapshot", act, i)
		}
	}

	// Phase 0b: heal corrupt files the way a shard run would (detect, delete).
	for i := range f.locals {
		if !m.corrupt[i] {
			continue
		}
		if _, err := trapfile.LoadFile(f.locals[i]); !errors.Is(err, trapfile.ErrCorrupt) {
			return violation(act, "corrupt-classification",
				fmt.Sprintf("shard %d file was corrupted but loads as %v, want ErrCorrupt", i, err), nil)
		}
		if err := os.Remove(f.locals[i]); err != nil {
			return violation(act, "environment", fmt.Sprintf("healing corrupt file: %v", err), nil)
		}
		m.corrupt[i] = false
		m.clearLocal(i, act, "corrupt file healed during converge")
	}

	// Phase 1: push. Every shard file's pairs enter the cluster via daemon 0.
	first := f.nodes[0]
	for i, path := range f.locals {
		file, err := trapfile.LoadFile(path)
		if err != nil {
			return violation(act, "shard-file-load",
				fmt.Sprintf("shard %d file unreadable during converge: %v", i, err), nil)
		}
		if len(file.Pairs) == 0 {
			continue
		}
		if err := first.checker.Publish(file); err != nil {
			return violation(act, "converge-push",
				fmt.Sprintf("pushing shard %d file to a live daemon failed: %v", i, err), nil)
		}
		m.ack(0, file.Pairs, act, fmt.Sprintf("shard %d file pushed during converge", i))
	}

	// Phase 2: one full anti-entropy round. Every node's push leg broadcasts
	// its whole unseen set to every other node, so a single round suffices
	// for cluster-wide convergence regardless of prior partitions.
	if v := f.peerSync(act, m); v != nil {
		return v
	}

	// Phase 3: every daemon must now hold the identical set — the new
	// cluster-convergence oracle.
	want, err := first.checker.Fetch()
	if err != nil {
		return violation(act, "converge-pull",
			fmt.Sprintf("fetching the snapshot from a live daemon failed: %v", err), nil)
	}
	wantSet := setOf(want.Pairs)
	for i, n := range f.nodes[1:] {
		got, err := n.checker.Fetch()
		if err != nil {
			return violation(act, "converge-pull",
				fmt.Sprintf("fetching daemon %d's set failed after partitions healed: %v", i+1, err), nil)
		}
		gotSet := setOf(got.Pairs)
		if missing := wantSet.minus(gotSet); len(missing) > 0 {
			return violation(act, "cluster-convergence",
				fmt.Sprintf("after converge, daemon %d is missing %d pairs daemon 0 holds: %v",
					i+1, len(missing), missing), missing)
		}
		if extra := gotSet.minus(wantSet); len(extra) > 0 {
			return violation(act, "cluster-convergence",
				fmt.Sprintf("after converge, daemon %d holds %d pairs daemon 0 lacks: %v",
					i+1, len(extra), extra), extra)
		}
	}
	// Every daemon now durably holds the converged set (peer pulls and
	// pushes persist through the same OnMerge hook as client publishes).
	for i := range f.nodes {
		m.ack(i, want.Pairs, act, "cluster converged on the full set")
	}

	// Phase 4: pull. Every shard file absorbs the converged snapshot.
	for i, path := range f.locals {
		file, err := trapfile.LoadFile(path)
		if err != nil {
			return violation(act, "shard-file-load",
				fmt.Sprintf("shard %d file unreadable during converge pull: %v", i, err), nil)
		}
		merged := trapfile.Merge(file, want)
		if err := trapfile.Save(path, merged); err != nil {
			return violation(act, "environment", fmt.Sprintf("saving shard %d file: %v", i, err), nil)
		}
		m.local[i] = setOf(merged.Pairs)
		m.localAdd(i, merged.Pairs, act, "converge pulled the snapshot")
	}

	// The converged fleet must agree exactly: every shard file == snapshot.
	for i, path := range f.locals {
		file, err := trapfile.LoadFile(path)
		if err != nil {
			return violation(act, "shard-file-load", fmt.Sprintf("shard %d: %v", i, err), nil)
		}
		got := setOf(file.Pairs)
		if missing := wantSet.minus(got); len(missing) > 0 {
			return violation(act, "converge-equality",
				fmt.Sprintf("after converge, shard %d file is missing %d snapshot pairs: %v",
					i, len(missing), missing), missing)
		}
		if extra := got.minus(wantSet); len(extra) > 0 {
			return violation(act, "converge-equality",
				fmt.Sprintf("after converge, shard %d file holds %d pairs the snapshot lacks: %v",
					i, len(extra), extra), extra)
		}
	}
	m.event("act#%02d converge complete: %d daemons and %d shards agree on %d pairs",
		act, len(f.nodes), len(f.locals), len(want.Pairs))
	return nil
}
