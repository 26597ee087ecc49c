package chaos

import (
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/config"
	"repro/internal/trapstore"
)

// TestPlanDeterministic is the replayability contract: the plan — every
// action, every parameter — is a pure function of (Seed, Actions, Shards),
// bit for bit.
func TestPlanDeterministic(t *testing.T) {
	cfg := Config{Seed: 77, Actions: 40, Shards: 3}.withDefaults()
	a, b := describePlan(newPlan(cfg)), describePlan(newPlan(cfg))
	if len(a) != cfg.Actions+1 {
		t.Fatalf("plan has %d actions, want %d planned + 1 closing converge", len(a), cfg.Actions)
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("plans diverge at action %d:\n  %s\n  %s", i, a[i], b[i])
		}
	}
	if last := a[len(a)-1]; !strings.Contains(last, "converge") {
		t.Fatalf("plan does not end with a converge round: %s", last)
	}

	other := describePlan(newPlan(Config{Seed: 78, Actions: 40, Shards: 3}.withDefaults()))
	same := 0
	for i := range a {
		if a[i] == other[i] {
			same++
		}
	}
	if same == len(a) {
		t.Fatal("seeds 77 and 78 produced identical plans; the seed is not reaching the RNG")
	}
}

// TestRunDeterministic executes the same seed twice end to end: identical
// plans, identical verdicts.
func TestRunDeterministic(t *testing.T) {
	cfg := Config{Seed: 11, Actions: 8, Shards: 2}
	a, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Plan) != len(b.Plan) {
		t.Fatalf("plan lengths differ: %d vs %d", len(a.Plan), len(b.Plan))
	}
	for i := range a.Plan {
		if a.Plan[i] != b.Plan[i] {
			t.Fatalf("executed plans diverge at action %d:\n  %s\n  %s", i, a.Plan[i], b.Plan[i])
		}
	}
	if (a.Violation == nil) != (b.Violation == nil) {
		t.Fatalf("verdicts differ: %v vs %v", a.Violation, b.Violation)
	}
}

// TestCleanRunHoldsAllInvariants runs an unplanted plan through every check.
func TestCleanRunHoldsAllInvariants(t *testing.T) {
	res, err := Run(Config{Seed: 42, Actions: 10, Shards: 2, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	if res.Violation != nil {
		t.Fatalf("clean run violated an invariant: %v\nexplanation:\n  %s",
			res.Violation, strings.Join(res.Violation.Explanation, "\n  "))
	}
	if res.ActionsRun != len(res.Plan) {
		t.Fatalf("ran %d of %d actions without a violation", res.ActionsRun, len(res.Plan))
	}
}

// TestPlantedFaultCaught arms the deliberately planted pair-loss bug — a
// Fallback that skips the local write when the remote publish succeeds —
// and requires the harness to catch it, minimize the plan, and explain the
// lost pairs, well inside the 200-action budget.
func TestPlantedFaultCaught(t *testing.T) {
	res, err := Run(Config{
		Seed: 11, Actions: 12, Shards: 2,
		Plant: trapstore.FaultLoseLocalPublish, Minimize: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	v := res.Violation
	if v == nil {
		t.Fatal("the planted lose-local-publish fault was not caught: the oracles are dead")
	}
	if v.Action >= 200 {
		t.Fatalf("planted fault caught only after action #%d, want < 200", v.Action)
	}
	if v.Invariant != "shard-file-pairs" {
		t.Fatalf("planted fault tripped invariant %q, want shard-file-pairs", v.Invariant)
	}
	if len(v.Explanation) == 0 {
		t.Fatal("violation carries no explanation slice")
	}
	var sawGain, sawCheck bool
	for _, line := range v.Explanation {
		if strings.Contains(line, "local file gained") {
			sawGain = true
		}
		if strings.Contains(line, "check failed after action") {
			sawCheck = true
		}
	}
	if !sawGain || !sawCheck {
		t.Fatalf("explanation slice lacks the pair history or the closing verdict:\n  %s",
			strings.Join(v.Explanation, "\n  "))
	}
	if v.MinimizedPlan == nil {
		t.Fatal("minimization was requested but MinimizedPlan is nil")
	}
	if len(v.MinimizedPlan) > v.Action+1 {
		t.Fatalf("minimized plan has %d actions, more than the %d-action failing prefix",
			len(v.MinimizedPlan), v.Action+1)
	}
	for _, line := range v.MinimizedPlan {
		if !strings.HasPrefix(line, "run ") && !strings.Contains(line, "converge") {
			t.Fatalf("minimized plan kept an action irrelevant to a publish-path bug: %s", line)
		}
	}
}

// TestPartitionHealClusterConvergence drives a hand-built worst-case
// replication plan against a three-daemon cluster: shards publish to
// different daemons, one daemon is partitioned away while the others
// exchange pairs, another is killed outright, the partition heals — and the
// closing converge must still leave every daemon and every shard file
// holding the identical set, with every per-daemon durability check green
// along the way.
func TestPartitionHealClusterConvergence(t *testing.T) {
	cfg := Config{Seed: 1, Shards: 2, Daemons: 3, Logf: t.Logf}.withDefaults()
	plan := []action{
		{kind: actRunShard, shard: 0, daemon: 0, algo: config.AlgoTSVD, mode: config.ModeFull,
			suite: 101, modules: 2, detSeed: 5, runSeed: 7},
		{kind: actPartitionDaemon, daemon: 2},
		{kind: actRunShard, shard: 1, daemon: 1, algo: config.AlgoTSVD, mode: config.ModeFull,
			suite: 102, modules: 3, detSeed: 6, runSeed: 8},
		// Daemons 0 and 1 exchange their sets; the partitioned daemon 2
		// stays behind (its sync legs fail, which must NOT be a violation).
		{kind: actPeerSync},
		{kind: actKillDaemon, daemon: 1},
		{kind: actHealPartition, daemon: 2},
		// Daemons 0 and 2 exchange; daemon 1 is down and stays behind.
		{kind: actPeerSync},
		// Converge restarts daemon 1 from its snapshot, runs a full round,
		// and demands exact cluster-wide set equality.
		{kind: actConverge},
	}
	v, ran, err := execute(cfg, plan)
	if err != nil {
		t.Fatal(err)
	}
	if v != nil {
		t.Fatalf("partition/heal plan violated %q after action #%d: %s\nexplanation:\n  %s",
			v.Invariant, v.Action, v.Detail, strings.Join(explainLines(v), "\n  "))
	}
	if ran != len(plan) {
		t.Fatalf("ran %d of %d actions without a violation", ran, len(plan))
	}
}

// explainLines guards against a nil explanation when rendering a failure.
func explainLines(v *Violation) []string {
	if len(v.Explanation) > 0 {
		return v.Explanation
	}
	return []string{"(no explanation attached)"}
}

// TestRegressionSeedsReplay replays the committed database; `make race`
// runs it under the race detector.
func TestRegressionSeedsReplay(t *testing.T) {
	if testing.Short() {
		t.Skip("replaying the full seed database is not a -short test")
	}
	n, err := ReplaySeeds("regression_seeds.json", t.Logf)
	if err != nil {
		t.Fatal(err)
	}
	if n < 1 {
		t.Fatal("the committed regression database is empty; at least one seed must be enforced")
	}
}

// TestSeedDBRoundTrip covers the database I/O and its validation.
func TestSeedDBRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "seeds.json")
	db := &SeedDB{Version: 1, Seeds: []SeedEntry{
		{Seed: 9, Actions: 5, Shards: 2, Expect: "pass", Added: "2026-08-08"},
		{Seed: 9, Actions: 5, Shards: 2, Plant: "lose-local-publish", Expect: "caught", Added: "2026-08-08"},
	}}
	if err := SaveSeeds(path, db); err != nil {
		t.Fatal(err)
	}
	got, err := LoadSeeds(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Seeds) != 2 || got.Seeds[1].Plant != "lose-local-publish" {
		t.Fatalf("round trip lost data: %+v", got)
	}

	bad := &SeedDB{Version: 1, Seeds: []SeedEntry{{Seed: 1, Expect: "maybe"}}}
	if err := SaveSeeds(path, bad); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadSeeds(path); err == nil {
		t.Fatal("LoadSeeds accepted an invalid expect verdict")
	}

	if _, err := ParsePlant("no-such-fault"); err == nil {
		t.Fatal("ParsePlant accepted an unknown fault name")
	}
	if name := PlantName(trapstore.FaultLoseLocalPublish); name != "lose-local-publish" {
		t.Fatalf("PlantName = %q", name)
	}
}
