package main

import (
	"os/exec"
	"path/filepath"
	"testing"

	"repro/internal/testbin"
)

// TestSmokeTrace runs a small traced suite through the real tsvd-run binary
// and validates the directory it wrote: every event parses against the
// schema and the per-kind counts reconcile exactly with summary.json.
func TestSmokeTrace(t *testing.T) {
	run := testbin.Build(t, "repro/cmd/tsvd-run")[0]
	dir := filepath.Join(t.TempDir(), "trace")
	if out, err := exec.Command(run, "-modules", "5", "-trace", dir).CombinedOutput(); err != nil {
		t.Fatalf("tsvd-run: %v\n%s", err, out)
	}
	events, kinds, err := check(dir)
	if err != nil {
		t.Fatal(err)
	}
	if events == 0 || kinds == 0 {
		t.Fatalf("trace holds %d events of %d kinds; nothing was reconciled", events, kinds)
	}
}
