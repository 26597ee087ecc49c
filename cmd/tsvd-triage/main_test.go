package main

import (
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"testing"

	"repro/internal/testbin"
	"repro/internal/trace"
)

// sortedPair orders a loc pair for set membership.
func sortedPair(a, b string) [2]string {
	if b < a {
		a, b = b, a
	}
	return [2]string{a, b}
}

// TestSmokeTriageCLI drives the real binaries the way CI dashboards do: two
// same-seed `tsvd-run -trace` shards fire the same bugs twice over, and
// tsvd-triage must fold them into one cluster per distinct sprung pair,
// with every spring counted once and no duplicate cluster ids.
func TestSmokeTriageCLI(t *testing.T) {
	bins := testbin.Build(t, "repro/cmd/tsvd-run", "repro/cmd/tsvd-triage")
	dir := t.TempDir()
	traceDirs := []string{filepath.Join(dir, "shard1"), filepath.Join(dir, "shard2")}
	for _, td := range traceDirs {
		cmd := exec.Command(bins[0], "-modules", "10", "-runs", "1", "-seed", "2019", "-trace", td)
		if out, err := cmd.CombinedOutput(); err != nil {
			t.Fatalf("%s: %v\n%s", td, err, out)
		}
	}

	// Ground truth from the traces themselves: distinct sprung pairs.
	sprung := map[[2]string]int64{}
	var firings int64
	for _, td := range traceDirs {
		f, err := os.Open(filepath.Join(td, "events.jsonl"))
		if err != nil {
			t.Fatal(err)
		}
		jes, err := trace.ReadJSONL(f)
		f.Close()
		if err != nil {
			t.Fatal(err)
		}
		for _, je := range jes {
			if je.Ev == trace.KindTrapSprung.String() {
				sprung[sortedPair(je.LocA, je.LocB)]++
				firings++
			}
		}
	}
	if len(sprung) == 0 {
		t.Fatal("no trap_sprung events in either trace; nothing to triage")
	}

	outDir := filepath.Join(dir, "bugs")
	if out, err := exec.Command(bins[1], "-out", outDir, traceDirs[0], traceDirs[1]).CombinedOutput(); err != nil {
		t.Fatalf("tsvd-triage: %v\n%s", err, out)
	}
	raw, err := os.ReadFile(filepath.Join(outDir, "bugs.json"))
	if err != nil {
		t.Fatal(err)
	}
	type site struct {
		Loc string `json:"loc"`
	}
	var rep struct {
		Clusters int   `json:"clusters"`
		Firings  int64 `json:"firings_folded"`
		Bugs     []struct {
			ID    string `json:"id"`
			SiteA site   `json:"site_a"`
			SiteB site   `json:"site_b"`
		} `json:"bugs"`
	}
	if err := json.Unmarshal(raw, &rep); err != nil {
		t.Fatalf("parse bugs.json: %v", err)
	}
	if rep.Clusters != len(sprung) {
		t.Fatalf("%d clusters for %d distinct sprung pairs (duplicates not folded)", rep.Clusters, len(sprung))
	}
	if rep.Firings != firings {
		t.Fatalf("folded %d firings, traces contain %d springs", rep.Firings, firings)
	}
	seen := map[string]bool{}
	for _, b := range rep.Bugs {
		if seen[b.ID] {
			t.Fatalf("duplicate cluster id %s in bugs.json", b.ID)
		}
		seen[b.ID] = true
		if sprung[sortedPair(b.SiteA.Loc, b.SiteB.Loc)] == 0 {
			t.Fatalf("cluster %s pair (%s, %s) never sprang in the traces", b.ID, b.SiteA.Loc, b.SiteB.Loc)
		}
	}
}
