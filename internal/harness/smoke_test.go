package harness

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/trapfile"
	"repro/internal/trapstore"
	"repro/internal/triage"
	"repro/internal/workload"
)

// eqSeries asserts a scraped series value exactly. The exposition format
// round-trips float64 exactly and every counter is integral or summed from
// the same int64s the ground truth is, so there is no tolerance: a mismatch
// means a counting path diverged.
func eqSeries(t *testing.T, where, series string, got map[string]float64, want float64) {
	t.Helper()
	if got[series] != want {
		t.Errorf("%s: %s = %v, want %v", where, series, got[series], want)
	}
}

// scrape GETs a Prometheus exposition endpoint and parses it into a series
// → value map, returning the Content-Type as received.
func scrape(t *testing.T, url string) (map[string]float64, string) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: %v %s", url, err, resp.Status)
	}
	vals, err := metrics.ParseValues(string(body))
	if err != nil {
		t.Fatal(err)
	}
	return vals, resp.Header.Get("Content-Type")
}

// TestSmokeMetrics runs a deterministic suite with every metrics surface
// enabled — detector metrics and a store client on one registry, a trap
// daemon handler with its own registry — and reconciles every exported
// counter exactly against the ground truth on hand: the Outcome's summed
// detector stats, the store operations the harness protocol implies, and
// the daemon's own wire acks.
func TestSmokeMetrics(t *testing.T) {
	const modules, runs = 5, 2

	// The daemon and the shard must count independently for the
	// reconciliation to mean anything.
	daemonReg := metrics.NewRegistry()
	daemon := trapstore.NewMemory("TSVD", nil)
	srv := httptest.NewServer(trapstore.NewHandler(daemon, trapstore.HandlerOptions{Metrics: daemonReg}))
	defer srv.Close()

	// The shard side: detector metrics and the HTTP store client share one
	// registry, as a real instrumented test process would wire them.
	clientReg := metrics.NewRegistry()
	store := trapstore.NewHTTPStore(srv.URL, trapstore.HTTPConfig{Metrics: clientReg})
	defer store.Close()

	suite := workload.GenerateSuite(2019, modules)
	o := Options{
		Config:      config.Defaults(config.AlgoTSVD).Scaled(0.02),
		Runs:        runs,
		RunSeedBase: Seed(1234),
		Store:       store,
		Metrics:     core.NewDetectorMetrics(clientReg),
	}
	// Tracing on: the tsvd_trace_* counters must reconcile against the same
	// accounting the trace summary sidecar carries.
	o.Config.Trace = true
	out := Run(suite, o)
	if out.StoreErr != nil {
		t.Fatalf("suite store error: %v", out.StoreErr)
	}
	if out.Stats.OnCalls == 0 || out.Stats.PairsAdded == 0 {
		t.Fatalf("suite exercised nothing: %+v", out.Stats)
	}
	if out.TraceTotals.Emitted == 0 {
		t.Fatal("traced suite emitted no events; trace counters unexercised")
	}

	// A deterministic post-suite epilogue: the sentinel publish is
	// guaranteed to grow the daemon's set, so the next fetch must carry new
	// pairs (a delta, since the client resumes from its cursor) and the one
	// after it must be a 304 — exactly one not_modified, independent of what
	// the suite's own merges did to the generation counter.
	sentinel := trapfile.File{Version: trapfile.FormatVersion, Tool: "TSVD", Pairs: []trapfile.Pair{
		{A: "smoke/sentinel@1", B: "smoke/sentinel@2"},
	}}
	if err := store.Publish(sentinel); err != nil {
		t.Fatalf("sentinel publish: %v", err)
	}
	for i := 0; i < 2; i++ {
		if _, err := store.Fetch(); err != nil {
			t.Fatalf("epilogue fetch %d: %v", i+1, err)
		}
	}
	const fetches = runs + 2   // one per run + two epilogue fetches
	const publishes = runs + 1 // one per run + the sentinel

	// Detector series vs the harness outcome, exactly.
	got := clientReg.Values()
	st := out.Stats
	for series, want := range map[string]float64{
		"tsvd_detector_on_calls_total":                  float64(st.OnCalls),
		"tsvd_detector_delays_injected_total":           float64(st.DelaysInjected),
		"tsvd_detector_delay_seconds_total":             st.TotalDelay.Seconds(),
		"tsvd_detector_near_misses_total":               float64(st.NearMisses),
		"tsvd_detector_pairs_added_total":               float64(st.PairsAdded),
		"tsvd_detector_pairs_pruned_hb_total":           float64(st.PairsPrunedHB),
		"tsvd_detector_pairs_pruned_decay_total":        float64(st.PairsPrunedDecay),
		"tsvd_detector_violations_total":                float64(st.Violations),
		"tsvd_detector_locations_seen_total":            float64(st.LocationsSeen),
		"tsvd_detector_locations_seen_concurrent_total": float64(st.LocationsSeenConcurrent),
		"tsvd_detector_sequential_skips_total":          float64(st.SequentialSkips),
		"tsvd_detector_stamps_raised_total":             float64(st.StampsRaised),
		// A full-mode suite must read all-zero sampler series (and the
		// probability gauge 1): anything else means sampling state leaked
		// into a mode that should not have it.
		"tsvd_sampler_calls_sampled_out_total": float64(st.CallsSampledOut),
		"tsvd_sampler_delays_suppressed_total": float64(st.DelaysSuppressed),
		"tsvd_sampler_throttles_total":         float64(st.SamplerThrottles),
		"tsvd_sampler_probability":             1,
		// Histogram counts are co-located with their counters by contract.
		"tsvd_detector_near_miss_gap_seconds_count":    float64(st.NearMisses),
		"tsvd_detector_granted_delay_seconds_count":    float64(st.DelaysInjected),
		"tsvd_detector_trap_set_occupancy_pairs_count": float64(st.PairsAdded),
		"tsvd_detector_instances":                      float64(runs * len(suite.Modules)),
		"tsvd_detector_parked_threads":                 0, // nothing runs anymore
		// The trace-loss counters mirror the summary sidecar a traced run
		// writes from this outcome; a drop corrupts triage explanation
		// slices, so it must be visible and here must be zero.
		"tsvd_trace_emitted_total": float64(out.TraceTotals.Emitted),
		"tsvd_trace_dropped_total": 0,
	} {
		eqSeries(t, "detector", series, got, want)
	}
	eqSeries(t, "trace sidecar", "tsvd_trace_dropped_total", got, float64(out.TraceTotals.Dropped))

	// Store client series vs the harness protocol, exactly. The fetch
	// sequence is full, then delta-resumed, then 304: the first fetch has no
	// cursor and the last finds nothing new.
	for series, want := range map[string]float64{
		`tsvd_store_ops_total{op="fetch"}`:                   fetches,
		`tsvd_store_ops_total{op="delta"}`:                   fetches - 2,
		`tsvd_store_ops_total{op="publish"}`:                 publishes,
		`tsvd_store_ops_total{op="not_modified"}`:            1,
		`tsvd_store_ops_total{op="retry"}`:                   0, // healthy daemon: a retry means phantom requests
		`tsvd_store_op_duration_seconds_count{op="fetch"}`:   fetches,
		`tsvd_store_op_duration_seconds_count{op="publish"}`: publishes,
	} {
		eqSeries(t, "store client", series, got, want)
	}

	// Daemon series vs the wire, exactly.
	dm1, ctype := scrape(t, srv.URL+"/metrics")
	if want := "text/plain; version=0.0.4; charset=utf-8"; ctype != want {
		t.Errorf("daemon /metrics Content-Type = %q, want %q", ctype, want)
	}
	var health struct {
		Status     string  `json:"status"`
		Generation float64 `json:"generation"`
		Pairs      float64 `json:"pairs"`
	}
	resp, err := http.Get(srv.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	err = json.NewDecoder(resp.Body).Decode(&health)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz: %v %s", err, resp.Status)
	}
	dm2, _ := scrape(t, srv.URL+"/metrics")

	// The daemon aggregated exactly what one client published: merges are
	// additive, so the gained-pairs counter equals the final set size, which
	// in turn must match the healthz body.
	finalPairs := float64(daemon.PairCount())
	for series, want := range map[string]float64{
		"tsvd_trapd_pairs":                                        finalPairs,
		"tsvd_trapd_merged_pairs_total":                           finalPairs,
		"tsvd_trapd_merges_total":                                 publishes,
		`tsvd_trapd_requests_total{endpoint="traps_get"}`:         fetches,
		`tsvd_trapd_requests_total{endpoint="traps_post"}`:        publishes,
		`tsvd_trapd_requests_total{endpoint="healthz"}`:           0, // healthz hit after this scrape
		`tsvd_trapd_requests_total{endpoint="metrics"}`:           1, // entry-increment: the scrape reports itself
		`tsvd_trapd_request_seconds_count{endpoint="traps_get"}`:  fetches,
		`tsvd_trapd_request_seconds_count{endpoint="traps_post"}`: publishes,
		// The daemon's account of how it answered each snapshot GET mirrors
		// the client's full/delta/304 split exactly.
		`tsvd_trapd_snapshot_responses_total{kind="full"}`:         1,
		`tsvd_trapd_snapshot_responses_total{kind="delta"}`:        fetches - 2,
		`tsvd_trapd_snapshot_responses_total{kind="not_modified"}`: 1,
	} {
		eqSeries(t, "daemon", series, dm1, want)
	}
	eqSeries(t, "daemon (2nd scrape)", `tsvd_trapd_requests_total{endpoint="metrics"}`, dm2, 2)
	eqSeries(t, "daemon (2nd scrape)", `tsvd_trapd_requests_total{endpoint="healthz"}`, dm2, 1)
	if health.Status != "ok" {
		t.Errorf("healthz status = %q, want ok", health.Status)
	}
	if health.Generation != dm1["tsvd_trapd_generation"] {
		t.Errorf("healthz generation %v != gauge %v", health.Generation, dm1["tsvd_trapd_generation"])
	}
	if health.Pairs != finalPairs {
		t.Errorf("healthz pairs %v != store %v", health.Pairs, finalPairs)
	}
}

// sortedPair orders a loc pair for set membership.
func sortedPair(a, b string) [2]string {
	if b < a {
		a, b = b, a
	}
	return [2]string{a, b}
}

// TestSmokeTriageFleet runs a K=4 shards × R=3 rounds fleet over one shared
// trap store, traced and with one shared Triage attached. Planted bugs fire
// from several shards; triage must fold every firing into exactly one
// cluster per distinct caught bug, and every cluster must carry a
// reproducibility rank, fleet provenance and an explanation slice naming
// the access pair, the victim object, the injected delay and the absent
// happens-before ordering. The triage counters must agree with the report.
func TestSmokeTriageFleet(t *testing.T) {
	suite := workload.GenerateSuite(2019, 12)
	base := Options{Config: config.Defaults(config.AlgoTSVD).Scaled(0.02)}
	base.Config.Trace = true
	tri := triage.New()
	base.Triage = tri
	reg := metrics.NewRegistry()
	tri.RegisterMetrics(reg)

	out := RunFleet(suite, 4, 3, base, trapstore.NewMemory("TSVD", nil))
	if out.StoreErr != nil {
		t.Fatalf("store error: %v", out.StoreErr)
	}
	if len(out.Found) == 0 {
		t.Fatal("fleet caught no planted bugs; nothing to triage")
	}

	// Ground truth: the unordered loc pair of every planted bug the fleet
	// caught. Exactly one cluster per member, no cluster outside the set.
	wantPairs := map[[2]string]bool{}
	for key := range out.Found {
		wantPairs[sortedPair(key.A.Key(), key.B.Key())] = true
	}
	clusters := tri.Clusters()
	gotPairs := map[[2]string]int{}
	for _, c := range clusters {
		gotPairs[sortedPair(c.Sig.A.Loc, c.Sig.B.Loc)]++
	}
	for p, n := range gotPairs {
		if n > 1 {
			t.Errorf("pair %v reported as %d clusters (duplicate reports)", p, n)
		}
		if !wantPairs[p] {
			t.Errorf("cluster pair %v is not a caught planted bug", p)
		}
	}
	if len(gotPairs) != len(wantPairs) {
		t.Errorf("%d clusters for %d caught planted bugs", len(gotPairs), len(wantPairs))
	}

	for _, c := range clusters {
		if c.Rank.Opportunities < c.Rank.FiringUnits || c.Rank.FiringUnits < 1 {
			t.Errorf("cluster %s: malformed rank %+v", c.ID, c.Rank)
		}
		if c.Rank.Low <= 0 || c.Rank.High > 1 {
			t.Errorf("cluster %s: confidence interval [%v, %v] out of range", c.ID, c.Rank.Low, c.Rank.High)
		}
		if c.First.Shard == 0 || c.First.Round == 0 || c.First.Mode == "" {
			t.Errorf("cluster %s: missing fleet provenance %+v", c.ID, c.First)
		}
		ex := c.Explanation
		if ex == nil {
			t.Errorf("cluster %s: no explanation slice", c.ID)
			continue
		}
		if pair := sortedPair(c.Sig.A.Loc, c.Sig.B.Loc); sortedPair(ex.TrappedLoc, ex.ConflictingLoc) != pair {
			t.Errorf("cluster %s: explanation names pair %s/%s, cluster is %v",
				c.ID, ex.TrappedLoc, ex.ConflictingLoc, pair)
		}
		if ex.Object == 0 {
			t.Errorf("cluster %s: explanation names no victim object", c.ID)
		}
		if ex.GrantedDelayUS <= 0 && ex.InjectedDelayUS <= 0 {
			t.Errorf("cluster %s: explanation names no injected delay", c.ID)
		}
		if ex.HBOrdered {
			t.Errorf("cluster %s: sprung pair claims a happens-before ordering", c.ID)
		}
		if !strings.Contains(ex.Verdict, "no happens-before") {
			t.Errorf("cluster %s: verdict omits the absent HB ordering: %s", c.ID, ex.Verdict)
		}
	}

	got := reg.Values()
	eqSeries(t, "triage", "tsvd_triage_clusters_total", got, float64(len(clusters)))
	eqSeries(t, "triage", "tsvd_triage_firings_folded_total", got, float64(tri.FiringsFolded()))
}

// samePairs reports the set difference of two pair lists both ways, or ""
// when they hold the same pairs.
func samePairs(a, b []trapfile.Pair) string {
	if extra := subtractPairs(a, b); len(extra) > 0 {
		return fmt.Sprintf("%d pairs only on the first side: %v", len(extra), extra)
	}
	if extra := subtractPairs(b, a); len(extra) > 0 {
		return fmt.Sprintf("%d pairs only on the second side: %v", len(extra), extra)
	}
	return ""
}

// subtractPairs returns the members of a that b lacks.
func subtractPairs(a, b []trapfile.Pair) []trapfile.Pair {
	in := make(map[trapfile.Pair]bool, len(b))
	for _, p := range b {
		in[p] = true
	}
	var out []trapfile.Pair
	for _, p := range a {
		if !in[p] {
			out = append(out, p)
		}
	}
	return out
}

// runShards runs one suite per url concurrently, each shard publishing to
// its daemon through a Fallback onto its own local trap file — the store a
// fleet shard runs with — and returns the union of the shard files.
func runShards(t *testing.T, urls []string, seed int64) trapfile.File {
	t.Helper()
	dir := t.TempDir()
	files := make([]string, len(urls))
	outs := make([]*Outcome, len(urls))
	var wg sync.WaitGroup
	for i, url := range urls {
		files[i] = filepath.Join(dir, fmt.Sprintf("shard%d.json", i))
		wg.Add(1)
		go func(i int, url string) {
			defer wg.Done()
			// A different suite seed per shard: different machines testing
			// different modules, converging on one trap set.
			store := trapstore.NewFallback(
				trapstore.NewHTTPStore(url, trapstore.HTTPConfig{}),
				trapstore.NewFileStore(files[i], nil), nil)
			defer store.Close()
			outs[i] = Run(workload.GenerateSuite(seed+int64(i), 10), Options{
				Config: config.Defaults(config.AlgoTSVD).Scaled(0.02),
				Runs:   2,
				Store:  store,
			})
		}(i, url)
	}
	wg.Wait()
	union := trapfile.File{}
	for i, out := range outs {
		if out.StoreErr != nil {
			t.Fatalf("shard %d store error: %v", i, out.StoreErr)
		}
		f, err := trapfile.LoadFile(files[i])
		if err != nil {
			t.Fatalf("shard %d trap file: %v", i, err)
		}
		if len(f.Pairs) == 0 {
			t.Fatalf("shard %d published no pairs", i)
		}
		union = trapfile.Merge(union, f)
	}
	return union
}

// fetchPairs reads a daemon's full trap set through a fresh client.
func fetchPairs(t *testing.T, url string) []trapfile.Pair {
	t.Helper()
	c := trapstore.NewHTTPStore(url, trapstore.HTTPConfig{})
	defer c.Close()
	f, err := c.Fetch()
	if err != nil {
		t.Fatalf("fetch %s: %v", url, err)
	}
	return f.Pairs
}

// TestSmokeFleet checks the fleet deployment contract over real HTTP: three
// concurrent shards against one daemon leave it holding exactly the union
// of their local trap files; and a three-daemon anti-entropy cluster,
// brought up as a chain, converges on every shard's pairs, after which
// steady-state polling costs deltas and 304s, never a second full snapshot.
func TestSmokeFleet(t *testing.T) {
	t.Run("converge", func(t *testing.T) {
		srv := httptest.NewServer(trapstore.NewHandler(trapstore.NewMemory("TSVD", nil), trapstore.HandlerOptions{}))
		defer srv.Close()
		union := runShards(t, []string{srv.URL, srv.URL, srv.URL}, 33)
		if diff := samePairs(fetchPairs(t, srv.URL), union.Pairs); diff != "" {
			t.Fatalf("daemon snapshot != union of shard trap files: %s", diff)
		}
	})

	t.Run("cluster", func(t *testing.T) {
		const daemons = 3
		var urls []string
		for i := 0; i < daemons; i++ {
			// Each daemon names only the ones already running, as an
			// operator brings a cluster up; push+pull anti-entropy makes
			// the chain converge anyway.
			mem := trapstore.NewMemory("TSVD", nil)
			srv := httptest.NewServer(trapstore.NewHandler(mem, trapstore.HandlerOptions{}))
			defer srv.Close()
			if len(urls) > 0 {
				repl := trapstore.NewReplicator(mem, trapstore.ReplicatorConfig{
					Peers:    append([]string(nil), urls...),
					Interval: 150 * time.Millisecond,
				})
				repl.Start()
				defer repl.Close()
			}
			urls = append(urls, srv.URL)
		}
		union := runShards(t, urls, 63) // each shard publishes to a different daemon

		deadline := time.Now().Add(20 * time.Second)
		for i := 0; i < daemons; {
			if samePairs(fetchPairs(t, urls[i]), union.Pairs) == "" {
				i++
				continue
			}
			if time.Now().After(deadline) {
				t.Fatalf("daemon %d did not converge on %d pairs within 20s", i, len(union.Pairs))
			}
			time.Sleep(100 * time.Millisecond)
		}

		// Wire economy: a polling client pays one full snapshot up front;
		// after that an idle poll is a 304 and a one-pair growth on another
		// daemon arrives as a delta body.
		poller := trapstore.NewHTTPStore(urls[0], trapstore.HTTPConfig{})
		defer poller.Close()
		for i := 0; i < 2; i++ { // full, then idle
			if _, err := poller.Fetch(); err != nil {
				t.Fatalf("poller fetch %d: %v", i+1, err)
			}
		}
		fullBytes := poller.WireStats().FetchBytes
		pub := trapstore.NewHTTPStore(urls[2], trapstore.HTTPConfig{})
		err := pub.Publish(trapfile.File{Tool: "TSVD", Pairs: []trapfile.Pair{{A: "smoke/delta.go:1", B: "smoke/delta.go:2"}}})
		pub.Close()
		if err != nil {
			t.Fatalf("publish to daemon 2: %v", err)
		}
		for {
			got, err := poller.Fetch()
			if err != nil {
				t.Fatalf("poller fetch: %v", err)
			}
			if len(got.Pairs) == len(union.Pairs)+1 {
				break
			}
			if time.Now().After(deadline) {
				t.Fatal("pair published to daemon 2 never reached daemon 0")
			}
			time.Sleep(100 * time.Millisecond)
		}
		ws := poller.WireStats()
		if ws.DeltaFetches < 1 {
			t.Fatalf("replicated growth arrived as a full snapshot, not a delta: %+v", ws)
		}
		if steady := ws.FetchBytes - fullBytes; steady >= fullBytes {
			t.Fatalf("steady-state polling cost %d bytes vs %d for one full snapshot", steady, fullBytes)
		}
	})
}
