package main

import (
	"testing"

	"repro/internal/config"
	"repro/internal/harness"
	"repro/internal/trapfile"
	"repro/internal/trapstore"
	"repro/internal/workload"
)

// recordingStore is a trap store that keeps a copy of every publish.
type recordingStore struct {
	trapstore.TrapStore
	pubs []trapfile.File
}

func (r *recordingStore) Publish(f trapfile.File) error {
	r.pubs = append(r.pubs, f)
	return r.TrapStore.Publish(f)
}

// within reports whether got is within frac of want.
func within(got, want int, frac float64) bool {
	d := float64(got - want)
	return d <= frac*float64(want) && -d <= frac*float64(want)
}

// The trapsync schedule is sized from a recorded fleet; this records a
// shorter one, two shards for three rounds on the seed-2019 suite, and
// checks the schedule's sizes against it. Detection is timing-dependent, so
// the pair counts are compared loosely.
func TestScheduleMatchesRealFleet(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a two-shard fleet over a 200-module suite")
	}
	rec := &recordingStore{TrapStore: trapstore.NewMemory("TSVD", nil)}
	opts := harness.Options{Config: config.Defaults(config.AlgoTSVD).Scaled(suiteTimeScale), Runs: 1, Parallelism: 2}
	harness.RunFleet(workload.GenerateSuite(refSeed, suiteModules), 2, 3, opts, rec)
	if len(rec.pubs) != 6 {
		t.Fatalf("recorded %d publishes, want 6", len(rec.pubs))
	}
	union := map[trapfile.Pair]bool{}
	for i, f := range rec.pubs {
		if !within(len(f.Sites), syncSites, 0.1) {
			t.Errorf("publish %d carried %d site rows, the schedule %d", i, len(f.Sites), syncSites)
		}
		for _, p := range f.Pairs {
			union[p] = true
		}
	}
	if first := len(rec.pubs[0].Pairs); !within(first, syncFound, 0.35) {
		t.Errorf("the first publish held %d pairs, a scheduled run finds %d", first, syncFound)
	}
	if !within(len(union), syncPool, 0.35) {
		t.Errorf("the fleet's union after three rounds is %d pairs, the schedule's pool %d", len(union), syncPool)
	}

	s := genSchedule(refSeed, 2)
	if len(s.sites) != syncSites || len(s.pool) != syncPool {
		t.Errorf("schedule has %d sites and %d pool pairs, want %d and %d", len(s.sites), len(s.pool), syncSites, syncPool)
	}
	locs := map[string]bool{}
	for _, r := range s.sites {
		locs[r.Loc] = true
	}
	for _, p := range s.pool {
		if !locs[p.A] || !locs[p.B] {
			t.Fatalf("pool pair %v names a site outside the table", p)
		}
	}
}
