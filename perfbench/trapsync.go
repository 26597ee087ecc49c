package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net"
	"net/http"
	"sync"
	"time"

	"repro/internal/trapfile"
	"repro/internal/trapstore"
)

// The trapsync workload: nproc shard clients against one in-process trap
// daemon, following a fixed seeded schedule. Each round stands for one suite
// run of a shard and speaks harness.Run's store protocol: a conditional
// (?since=) fetch, then a publish of the fetched set merged with the pairs
// the run found, carrying the whole site table; every coldEvery-th round a
// fresh client makes a cold full fetch. The trap store and trap file do the
// work; the detector is not involved, so a change to the detector does not
// change this traffic. The schedule is a fixed number of rounds, not a fixed
// time, so the store's size, and with it the cost of a round, is the same in
// every run.
//
// The traffic's size is that of harness.RunFleet on the seed-2019 suite of
// suiteModules modules, two shards, ten rounds, with every publish recorded
// (TestScheduleMatchesRealFleet repeats a shorter recording and checks the
// sizes below against it):
//   - every publish carried the suite's whole site registry, 825 rows;
//   - a run found about 90 pairs, and the first publish held 90;
//   - the fleet's union grew by 0-10 pairs a publish and levelled off at
//     about 128 pairs.

const (
	syncSites     = 825 // site rows in every publish: the suite's registry
	syncPool      = 128 // pairs the fleet's union levels off at
	syncFound     = 90  // pool pairs a shard's run finds
	syncRounds    = 200 // rounds per shard: the work of one pass
	syncColdEvery = 10  // a fresh client joins every syncColdEvery-th round
)

// syncBlocks are the workload's test block names, which name its sites.
var syncBlocks = []string{"asynccache", "cold", "hbshadow", "hot", "hotsafe", "marginal",
	"noise", "pingpong", "rare", "safelock", "seqphase", "taskstorm"}

// syncSchedule is the seeded input of one trapsync pass: the site table
// every publish carries, the pool of pairs over those sites, and for every
// shard and round the pool indices that round's run finds.
type syncSchedule struct {
	sites []trapfile.SiteRecord
	pool  []trapfile.Pair
	finds [][][]int // [shard][round] → pool indices
}

func genSchedule(seed int64, shards int) *syncSchedule {
	rng := rand.New(rand.NewSource(seed))
	s := &syncSchedule{}
	// Sites are dealt to the modules in turn, so a module holds four or
	// five; a pair joins two sites of one module, as the workload's do.
	classes := []string{"Dictionary", "List", "HashSet", "Queue"}
	for i := 0; i < syncSites; i++ {
		m := i % suiteModules
		write := rng.Intn(2) == 0
		method := "ContainsKey"
		if write {
			method = "Add"
		}
		s.sites = append(s.sites, trapfile.SiteRecord{
			Loc:   fmt.Sprintf("wl/s%d-m%04d/%s/site%d", seed, m, syncBlocks[rng.Intn(len(syncBlocks))], i/suiteModules+1),
			Class: classes[rng.Intn(len(classes))], Method: method, Write: write,
		})
	}
	perModule := (syncSites + suiteModules - 1) / suiteModules
	inPool := map[trapfile.Pair]bool{}
	for len(s.pool) < syncPool {
		m := rng.Intn(suiteModules)
		a, b := m+suiteModules*rng.Intn(perModule), m+suiteModules*rng.Intn(perModule)
		if a == b || a >= syncSites || b >= syncSites {
			continue
		}
		p := canonical(trapfile.Pair{A: s.sites[a].Loc, B: s.sites[b].Loc})
		if !inPool[p] {
			inPool[p] = true
			s.pool = append(s.pool, p)
		}
	}
	s.finds = make([][][]int, shards)
	for sh := range s.finds {
		s.finds[sh] = make([][]int, syncRounds)
		for r := range s.finds[sh] {
			s.finds[sh][r] = rng.Perm(syncPool)[:syncFound]
		}
	}
	return s
}

// daemon is an in-process trap daemon: trapstore.NewHandler over a
// trapstore.Memory, served on a loopback listener.
type daemon struct {
	mem  *trapstore.Memory
	srv  *http.Server
	url  string
	done chan struct{}
}

func startDaemon() (*daemon, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("daemon: %w", err)
	}
	mem := trapstore.NewMemory("TSVD", nil)
	d := &daemon{
		mem:  mem,
		srv:  &http.Server{Handler: trapstore.NewHandler(mem, trapstore.HandlerOptions{})},
		url:  "http://" + ln.Addr().String(),
		done: make(chan struct{}),
	}
	go func() {
		defer close(d.done)
		d.srv.Serve(ln) // returns ErrServerClosed once stop shuts it down
	}()
	return d, nil
}

// stop shuts the daemon down and waits for its serve loop to end.
func (d *daemon) stop() {
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := d.srv.Shutdown(ctx); err != nil {
		d.srv.Close()
	}
	<-d.done
}

// syncStats accumulates one trapsync pass.
type syncStats struct {
	mu                 sync.Mutex
	fetchMs, publishMs []float64
	coldMs             []float64
	mergeMs, encodeMs  []float64
	serverMergeMs      []float64
	wire               trapstore.WireStats
	rounds, errs       int64
}

func (st *syncStats) add(o *syncStats) {
	st.mu.Lock()
	defer st.mu.Unlock()
	st.fetchMs = append(st.fetchMs, o.fetchMs...)
	st.publishMs = append(st.publishMs, o.publishMs...)
	st.coldMs = append(st.coldMs, o.coldMs...)
	st.mergeMs = append(st.mergeMs, o.mergeMs...)
	st.encodeMs = append(st.encodeMs, o.encodeMs...)
	st.serverMergeMs = append(st.serverMergeMs, o.serverMergeMs...)
	st.wire.Fetches += o.wire.Fetches
	st.wire.DeltaFetches += o.wire.DeltaFetches
	st.wire.NotModified += o.wire.NotModified
	st.wire.FetchBytes += o.wire.FetchBytes
	st.rounds += o.rounds
	st.errs += o.errs
}

func msSince(t time.Time) float64 { return float64(time.Since(t).Nanoseconds()) / 1e6 }

// runSchedule drives every shard of sched against d concurrently and
// returns the number of pairs the daemon's final set got wrong.
func (b *bench) runSchedule(d *daemon, sched *syncSchedule, total *syncStats) int64 {
	published := map[trapfile.Pair]bool{}
	var pubMu sync.Mutex
	// The traced run replays every publish into a second Memory, so the
	// daemon's merge gets its own span without reaching into the handler.
	var shadow *trapstore.Memory
	if b.tr != nil {
		shadow = trapstore.NewMemory("TSVD", nil)
	}
	var wg sync.WaitGroup
	for sh := range sched.finds {
		wg.Add(1)
		go func() {
			defer wg.Done()
			st := b.runShard(d, sched, sh, shadow, published, &pubMu)
			total.add(st)
		}()
	}
	wg.Wait()
	final, _ := d.mem.Snapshot()
	return checkUnion(published, final.Pairs)
}

func (b *bench) runShard(d *daemon, sched *syncSchedule, sh int, shadow *trapstore.Memory,
	published map[trapfile.Pair]bool, pubMu *sync.Mutex) *syncStats {
	l := b.tr.lane()
	st := &syncStats{}
	client := trapstore.NewHTTPStore(d.url, trapstore.HTTPConfig{})
	defer client.Close()
	for r, finds := range sched.finds[sh] {
		root := l.newID()
		start := l.now()

		var fetched trapfile.File
		var err error
		t := time.Now()
		l.timed("trapstore.HTTPStore.Fetch", root, root, func() { fetched, err = client.Fetch() })
		st.fetchMs = append(st.fetchMs, msSince(t))
		if err != nil {
			st.errs++
		}

		// What harness.Run publishes after a run: everything it fetched
		// and everything it found, with the whole site table.
		run := trapfile.File{Tool: "TSVD", Sites: sched.sites}
		for _, i := range finds {
			run.Pairs = append(run.Pairs, sched.pool[i])
		}
		var cur trapfile.File
		t = time.Now()
		l.timed("trapfile.Merge", root, root, func() { cur = trapfile.Merge(fetched, run) })
		if l != nil {
			st.mergeMs = append(st.mergeMs, msSince(t))
			t = time.Now()
			l.timed("trapfile.encode", root, root, func() { _, err = json.Marshal(cur) })
			st.encodeMs = append(st.encodeMs, msSince(t))
			if err != nil {
				st.errs++
			}
		}

		t = time.Now()
		l.timed("trapstore.HTTPStore.Publish", root, root, func() { err = client.Publish(cur) })
		st.publishMs = append(st.publishMs, msSince(t))
		if err != nil {
			st.errs++
		} else {
			pubMu.Lock()
			for _, p := range cur.Pairs {
				published[p] = true
			}
			pubMu.Unlock()
		}
		if shadow != nil {
			t = time.Now()
			l.timed("trapstore.Memory.Publish", root, root, func() { err = shadow.Publish(cur) })
			st.serverMergeMs = append(st.serverMergeMs, msSince(t))
		}

		if (r+1)%syncColdEvery == 0 {
			t = time.Now()
			l.timed("trapstore.HTTPStore.Fetch.cold", root, root, func() {
				cold := trapstore.NewHTTPStore(d.url, trapstore.HTTPConfig{})
				defer cold.Close()
				_, err = cold.Fetch()
			})
			st.coldMs = append(st.coldMs, msSince(t))
			if err != nil {
				st.errs++
			}
		}
		l.add(span{ID: root, Op: root, Name: "trapsync.round", Start: start, End: l.now()})
		st.rounds++
	}
	st.wire = client.WireStats()
	return st
}

// syncSecondary is how long a secondary trapsync phase repeats the schedule.
const syncSecondary = 10 * time.Second

// syncRun runs the schedule against a fresh daemon per pass, repeating it
// until the window is spent (syncSecondary when the phase is secondary).
// Each pass is summarized on its own, and the run reports the median over
// passes, so that a slow spell of the host skews a few passes rather than
// the pooled samples.
type syncRun struct {
	b      *bench
	in     *inputs
	window time.Duration

	total                                syncStats
	rate, fetch50, fetch95, pub50, pub95 []float64
	failed                               int64
}

func (b *bench) newSyncRun(in *inputs, primary bool) *syncRun {
	s := &syncRun{b: b, in: in, window: b.window}
	if !primary {
		s.window = syncSecondary
	}
	return s
}

// turn runs passes for turn i's share of the window, and at least two.
func (s *syncRun) turn(i, n int) error {
	start := time.Now()
	for k := 0; k < 2 || time.Since(start) < s.window/time.Duration(n); k++ {
		if err := s.pass(); err != nil {
			return err
		}
	}
	return nil
}

// pass runs the schedule once: the first pass against the daemon started in
// set-up, every later one against a fresh daemon.
func (s *syncRun) pass() error {
	d := s.in.daemon
	if len(s.rate) > 0 {
		var err error
		if d, err = startDaemon(); err != nil {
			return err
		}
		defer d.stop()
	}
	st := &syncStats{}
	t := time.Now()
	s.failed += s.b.runSchedule(d, s.in.sched, st)
	s.rate = append(s.rate, float64(st.rounds)/time.Since(t).Seconds())
	s.fetch50 = append(s.fetch50, percentile(st.fetchMs, 50))
	s.fetch95 = append(s.fetch95, percentile(st.fetchMs, 95))
	s.pub50 = append(s.pub50, percentile(st.publishMs, 50))
	s.pub95 = append(s.pub95, percentile(st.publishMs, 95))
	s.total.add(st)
	return nil
}

func (s *syncRun) finish() error {
	b, in, total := s.b, s.in, &s.total
	if s.failed > 0 {
		b.notef("trapsync: FAILED: daemon's final set differs from the union of all publishes in %d pair(s)", s.failed)
	}
	if total.errs > 0 {
		b.notef("trapsync: FAILED: %d store operation(s) returned an error", total.errs)
	}
	b.ops(total.rounds*2, s.failed+total.errs)

	b.setE2E("sync_rounds_per_s", median(s.rate), "1/s")
	b.setE2E("fetch_ms_p50", median(s.fetch50), "ms")
	b.setE2E("fetch_ms_p95", median(s.fetch95), "ms")
	b.setE2E("publish_ms_p50", median(s.pub50), "ms")
	b.setE2E("publish_ms_p95", median(s.pub95), "ms")
	b.notef("trapsync: %d shards, %d passes of %d rounds each (rate spread over passes %.3f), medians over passes: fetch p50 %.3f ms p95 %.3f ms, publish p50 %.3f ms p95 %.3f ms (n=%d fetches and %d publishes per pass)",
		len(in.sched.finds), len(s.rate), len(in.sched.finds)*syncRounds, spread(s.rate),
		median(s.fetch50), median(s.fetch95), median(s.pub50), median(s.pub95),
		len(in.sched.finds)*syncRounds, len(in.sched.finds)*syncRounds)

	if b.tr != nil {
		b.setLayer("trapfile.merge_ms", mean(total.mergeMs), "ms")
		b.setLayer("trapfile.encode_ms", mean(total.encodeMs), "ms")
		b.setLayer("trapstore.merge_ms", mean(total.serverMergeMs), "ms")
		b.setLayer("trapstore.cold_fetch_ms", median(total.coldMs), "ms")
		b.setLayer("trapstore.fetch_bytes", float64(total.wire.FetchBytes)/float64(total.wire.Fetches), "bytes")
		b.setLayer("trapstore.delta_frac",
			float64(total.wire.DeltaFetches+total.wire.NotModified)/float64(total.wire.Fetches), "frac")
		b.setLayer("trapstore.pairs", float64(in.daemon.mem.PairCount()), "count")
	}
	return nil
}
