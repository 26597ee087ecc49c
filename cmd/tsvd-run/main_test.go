package main

import (
	"bufio"
	"io"
	"net/http"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/metrics"
	"repro/internal/testbin"
	"repro/internal/trapfile"
)

// startDaemon launches tsvd-trapd on an ephemeral port and returns it with
// the base URL parsed from its startup line.
func startDaemon(t *testing.T, bin string, args ...string) (*exec.Cmd, string) {
	t.Helper()
	cmd := exec.Command(bin, append([]string{"-addr", "127.0.0.1:0"}, args...)...)
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cmd.Process.Kill(); cmd.Wait() })
	line := make(chan string, 1)
	go func() {
		sc := bufio.NewScanner(stdout)
		sc.Scan()
		line <- sc.Text()
		io.Copy(io.Discard, stdout)
	}()
	select {
	case l := <-line:
		url, ok := strings.CutPrefix(l, "tsvd-trapd: listening on ")
		if !ok {
			t.Fatalf("unexpected daemon startup line %q", l)
		}
		return cmd, url
	case <-time.After(10 * time.Second):
		t.Fatal("daemon did not print its listening line in time")
	}
	return nil, ""
}

// posts scrapes the daemon's count of publish requests received.
func posts(t *testing.T, url string) float64 {
	t.Helper()
	resp, err := http.Get(url + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	vals, err := metrics.ParseValues(string(body))
	if err != nil {
		t.Fatal(err)
	}
	return vals[`tsvd_trapd_requests_total{endpoint="traps_post"}`]
}

// TestSmokeDaemonKill kills the tsvd-trapd process while a fleet shard is
// mid-run: the shard must fall back to its local trap file, keep every pair
// it had, report the degradation on stderr, and still exit 0 — fleet mode
// is an accelerant, never a point of failure.
func TestSmokeDaemonKill(t *testing.T) {
	bins := testbin.Build(t, "repro/cmd/tsvd-run", "repro/cmd/tsvd-trapd")
	dir := t.TempDir()
	daemon, url := startDaemon(t, bins[1], "-snapshot", filepath.Join(dir, "snapshot.json"))
	shardFile := filepath.Join(dir, "shard.json")
	shard := func(extra ...string) *exec.Cmd {
		args := append([]string{"-seed", "33", "-trapfile", shardFile, "-trap-server", url}, extra...)
		return exec.Command(bins[0], args...)
	}

	// A healthy run first, so the local file holds pairs worth keeping.
	if out, err := shard("-modules", "10", "-runs", "2").CombinedOutput(); err != nil {
		t.Fatalf("healthy shard: %v\n%s", err, out)
	}
	before, err := trapfile.LoadFile(shardFile)
	if err != nil {
		t.Fatal(err)
	}
	if len(before.Pairs) == 0 {
		t.Fatal("healthy shard published no pairs")
	}

	// Kill the daemon as soon as it has counted the next shard's first
	// publish: run 1 has synced, and seven syncs, each one now a fallback,
	// are still to come.
	cmd := shard("-modules", "40", "-runs", "8")
	var stderr strings.Builder
	cmd.Stderr = &stderr
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	defer cmd.Process.Kill() // only matters when the test fails early
	deadline := time.Now().Add(30 * time.Second)
	for posts(t, url) < 3 { // the healthy shard's two, then this one's first
		if time.Now().After(deadline) {
			t.Fatal("long shard never published to the daemon")
		}
		time.Sleep(2 * time.Millisecond)
	}
	if err := daemon.Process.Kill(); err != nil {
		t.Fatalf("kill daemon: %v", err)
	}
	if err := cmd.Wait(); err != nil {
		t.Fatalf("shard with killed daemon exited nonzero: %v\nstderr: %s", err, stderr.String())
	}
	if !strings.Contains(stderr.String(), "unreachable") {
		t.Fatalf("shard did not report the degradation; stderr: %s", stderr.String())
	}
	after, err := trapfile.LoadFile(shardFile)
	if err != nil {
		t.Fatal(err)
	}
	kept := make(map[trapfile.Pair]bool, len(after.Pairs))
	for _, p := range after.Pairs {
		kept[p] = true
	}
	for _, p := range before.Pairs {
		if !kept[p] {
			t.Errorf("local trap file lost pair %v after daemon death", p)
		}
	}
}
