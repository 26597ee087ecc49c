// Package testbin builds this module's commands for tests whose subject is
// a real process boundary: exit codes, stderr, and files one process writes
// for another to read.
package testbin

import (
	"os/exec"
	"path"
	"path/filepath"
	"testing"
)

// Build compiles each command package (an import path such as
// "repro/cmd/tsvd-run") into a temporary directory owned by t and returns
// the binary paths in argument order.
func Build(t testing.TB, pkgs ...string) []string {
	t.Helper()
	dir := t.TempDir()
	bins := make([]string, len(pkgs))
	for i, pkg := range pkgs {
		bins[i] = filepath.Join(dir, path.Base(pkg))
		if out, err := exec.Command("go", "build", "-o", bins[i], pkg).CombinedOutput(); err != nil {
			t.Fatalf("go build %s: %v\n%s", pkg, err, out)
		}
	}
	return bins
}
