package harness

import (
	"testing"

	"repro/internal/config"
	"repro/internal/trapfile"
	"repro/internal/trapstore"
	"repro/internal/workload"
)

// TestSampledShardSeedsFullModeShardNextRound covers the mode×fleet
// interaction: a shard running in sampled mode (p < 1) still publishes its
// near-missed pairs to the shared store, and a full-mode shard seeded from
// that store in the next round catches cold bugs in its very first run —
// which an unseeded full-mode shard provably cannot (cold bugs occur once
// per run and need a pre-planted trap).
func TestSampledShardSeedsFullModeShardNextRound(t *testing.T) {
	suite := workload.GenerateSuite(33, 120) // cold-bug-rich seed
	if suite.BugsByKind()[workload.BugCold] < 3 {
		t.Fatalf("suite has too few cold bugs: %v", suite.BugsByKind())
	}
	planted := suite.PlantedPairs()
	shared := trapstore.NewMemory("TSVD", nil)
	coldPublished := func() bool {
		f, _ := shared.Snapshot()
		for _, key := range trapfile.ToKeys(f.Pairs) {
			if b, ok := planted[key]; ok && b.Kind == workload.BugCold {
				return true
			}
		}
		return false
	}

	// Round 1: sampled shards, each a fresh schedule, until the store holds
	// a planted cold pair. Whether one sampled run near-misses a cold pair
	// is scheduling luck — both sides must pass the p=0.7 gate and meet in
	// the window — and a run that sees one always publishes it. Measured on
	// a 2-vCPU host, a sampled round published no cold pair in 25 of 168
	// rounds (15%, 95% upper bound 21%); at a conservative 25% per round,
	// all maxRounds rounds missing has probability 0.25^10 < 1e-6.
	const maxRounds = 10
	rounds := 0
	for !coldPublished() {
		if rounds == maxRounds {
			t.Fatalf("%d sampled rounds published no planted cold pair (%d pairs in store)",
				maxRounds, shared.PairCount())
		}
		sampled := opts(config.AlgoTSVD, 1)
		sampled.Config.Mode = config.ModeSampled
		sampled.Config.SampleProbability = 0.7
		sampled.Config.Seed += int64(rounds)
		sampled.RunSeedBase = Seed(1234 + int64(rounds))
		sampled.Store = shared
		rounds++
		o1 := Run(suite, sampled)
		if o1.StoreErr != nil {
			t.Fatalf("sampled round %d store error: %v", rounds, o1.StoreErr)
		}
		if o1.Stats.CallsSampledOut == 0 {
			t.Fatalf("sampled round %d rejected no calls; the mode was not in effect", rounds)
		}
		// Sampling thins the analysis but must not thin the fleet protocol:
		// every round publishes what it discovered.
		if tot := shared.Totals(); tot.Publishes != int64(rounds) || shared.PairCount() == 0 {
			t.Fatalf("after sampled round %d: %d publishes, %d pairs in store",
				rounds, tot.Publishes, shared.PairCount())
		}
	}

	// Round 2: a fresh full-mode shard on the same store, different schedule
	// seed (a different shard sees a different interleaving).
	full := opts(config.AlgoTSVD, 1)
	full.Store = shared
	full.RunSeedBase = Seed(999)
	full.Config.Seed += 7
	o2 := Run(suite, full)
	if o2.StoreErr != nil {
		t.Fatalf("full shard store error: %v", o2.StoreErr)
	}

	cold := 0
	for pair := range o2.FoundBugs {
		if b, ok := planted[pair]; ok && b.Kind == workload.BugCold {
			cold++
		}
	}
	if cold == 0 {
		t.Fatalf("full-mode shard caught no cold bugs in its single run despite %d seeded pairs",
			shared.PairCount())
	}

	// Control: the same full-mode shard without the store catches none —
	// the catch above is attributable to the sampled shard's publishes.
	control := opts(config.AlgoTSVD, 1)
	control.RunSeedBase = Seed(999)
	control.Config.Seed += 7
	oc := Run(suite, control)
	for pair := range oc.FoundBugs {
		if b, ok := planted[pair]; ok && b.Kind == workload.BugCold {
			t.Fatalf("unseeded control shard caught cold bug %v; cold class broke", pair)
		}
	}

	// The store protocol ran: one fetch + one publish per shard round.
	if tot := shared.Totals(); tot.Fetches != int64(rounds+1) || tot.Publishes != int64(rounds+1) {
		t.Fatalf("store totals = %+v, want %d fetches and publishes", tot, rounds+1)
	}
}
