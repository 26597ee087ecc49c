// Command tsvd-trace-check validates a trace directory written by
// `tsvd-run -trace`: every line of events.jsonl must parse against the
// schema, and the per-kind event counts must reconcile exactly with the
// detector counters recorded in summary.json. It is the consumer-side half
// of the observability contract (docs/OBSERVABILITY.md) and the check
// its package test runs against a real `tsvd-run -trace` output.
//
// Usage:
//
//	tsvd-trace-check <trace-dir>
//
// Exit status: 0 when the trace is schema-valid and reconciles, 1 otherwise.
package main

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"

	"repro/internal/trace"
)

func main() {
	flag.Usage = func() {
		fmt.Fprintf(flag.CommandLine.Output(), "usage: tsvd-trace-check <trace-dir>\n")
		flag.PrintDefaults()
	}
	flag.Parse()
	if flag.NArg() != 1 {
		flag.Usage()
		os.Exit(2)
	}
	dir := flag.Arg(0)
	events, kinds, err := check(dir)
	if err != nil {
		fmt.Fprintf(os.Stderr, "tsvd-trace-check: %v\n", err)
		os.Exit(1)
	}
	fmt.Printf("tsvd-trace-check: %s ok — %d events, %d kinds, counters reconcile, 0 dropped\n",
		dir, events, kinds)
}

// check validates the trace directory dir and returns its event and kind
// counts, or an error naming every mismatch found.
func check(dir string) (events int64, kinds int, err error) {
	sf, err := os.Open(filepath.Join(dir, "summary.json"))
	if err != nil {
		return 0, 0, err
	}
	sum, err := trace.ReadSummary(sf)
	sf.Close()
	if err != nil {
		return 0, 0, err
	}

	ef, err := os.Open(filepath.Join(dir, "events.jsonl"))
	if err != nil {
		return 0, 0, err
	}
	counts, err := trace.ValidateJSONL(ef)
	ef.Close()
	if err != nil {
		return 0, 0, err
	}

	var errs []error
	for _, n := range counts {
		events += n
	}
	if events != sum.Drained {
		errs = append(errs, fmt.Errorf("events.jsonl has %d events, summary says %d drained", events, sum.Drained))
	}
	for kind, n := range sum.ByKind {
		if counts[kind] != n {
			errs = append(errs, fmt.Errorf("%s: %d in events.jsonl, %d in summary", kind, counts[kind], n))
		}
	}
	if err := trace.Reconcile(counts, sum.Stats, sum.Store, sum.Dropped); err != nil {
		errs = append(errs, err)
	}
	return events, len(counts), errors.Join(errs...)
}
