package main

import (
	"repro/internal/core"
	"repro/internal/harness"
	"repro/internal/trapfile"
)

// Output checks. Each returns how many operations failed, so a broken
// output shows as failed operations in the result line rather than as a
// silently wrong number.

// checkCalls fails the calls phase for every injected delay and every
// reported bug: its op stream is conflict-free by construction (private
// objects per goroutine, a shared object that is only ever read), so the
// detector must neither plan a delay nor report a violation.
func checkCalls(st core.Stats, bugs int) int64 {
	return st.DelaysInjected + int64(bugs)
}

// checkSuite fails a suite execution for every reported pair outside the
// suite's planted ground truth and every dropped trace event.
func checkSuite(out *harness.Outcome) int64 {
	return int64(len(out.UnknownPairs)) + out.TraceTotals.Dropped
}

// checkUnion compares the daemon's final pair set with the union of every
// pair published to it and returns the number of pairs missing from the
// daemon plus the number it holds that nobody published.
func checkUnion(published map[trapfile.Pair]bool, final []trapfile.Pair) int64 {
	var bad int64
	seen := make(map[trapfile.Pair]bool, len(final))
	for _, p := range final {
		p = canonical(p)
		seen[p] = true
		if !published[p] {
			bad++
		}
	}
	for p := range published {
		if !seen[p] {
			bad++
		}
	}
	return bad
}

// canonical orders a pair's endpoints the way trapfile normalizes them.
func canonical(p trapfile.Pair) trapfile.Pair {
	if p.A > p.B {
		p.A, p.B = p.B, p.A
	}
	return p
}
