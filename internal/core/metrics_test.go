package core

import (
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/config"
	"repro/internal/ids"
	"repro/internal/metrics"
)

// scrapeValues parses a Prometheus exposition into series-line → value.
func scrapeValues(t *testing.T, reg *metrics.Registry) map[string]float64 {
	t.Helper()
	var sb strings.Builder
	if err := reg.WritePrometheus(&sb); err != nil {
		t.Fatalf("WritePrometheus: %v", err)
	}
	out := map[string]float64{}
	for _, line := range strings.Split(sb.String(), "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			t.Fatalf("bad series line %q: %v", line, err)
		}
		out[line[:i]] = v
	}
	return out
}

// TestDetectorMetricsReconcileWithStats is the in-package version of the
// harness TestSmokeMetrics contract: every exported counter equals the
// corresponding Stats field exactly, and the histogram counts equal the
// counters they are co-located with.
func TestDetectorMetricsReconcileWithStats(t *testing.T) {
	reg := metrics.NewRegistry()
	m := NewDetectorMetrics(reg)
	d := mustNew(t, testConfig(config.AlgoTSVD), WithDetectorMetrics(m))

	const obj = ids.ObjectID(1)
	d1 := hammer(100, time.Millisecond, func(int) { d.OnCall(acc(1, obj, 101, KindWrite)) })
	d2 := hammer(100, time.Millisecond, func(int) { d.OnCall(acc(2, obj, 102, KindWrite)) })
	<-d1
	<-d2

	st := d.Stats()
	got := scrapeValues(t, reg)
	for name, want := range map[string]int64{
		"tsvd_detector_on_calls_total":                 st.OnCalls,
		"tsvd_detector_delays_injected_total":          st.DelaysInjected,
		"tsvd_detector_near_misses_total":              st.NearMisses,
		"tsvd_detector_pairs_added_total":              st.PairsAdded,
		"tsvd_detector_pairs_pruned_hb_total":          st.PairsPrunedHB,
		"tsvd_detector_violations_total":               st.Violations,
		"tsvd_detector_locations_seen_total":           st.LocationsSeen,
		"tsvd_detector_instances":                      1,
		"tsvd_detector_near_miss_gap_seconds_count":    st.NearMisses,
		"tsvd_detector_granted_delay_seconds_count":    st.DelaysInjected,
		"tsvd_detector_trap_set_occupancy_pairs_count": st.PairsAdded,
	} {
		if got[name] != float64(want) {
			t.Errorf("%s = %v, want %d (stats %+v)", name, got[name], want, st)
		}
	}
	if st.NearMisses == 0 || st.DelaysInjected == 0 {
		t.Fatalf("workload exercised nothing: %+v", st)
	}
	if ts, ok := d.(interface{ TrapSetSize() int }); ok {
		if got["tsvd_detector_trap_set_pairs"] != float64(ts.TrapSetSize()) {
			t.Errorf("trap_set_pairs = %v, want %d",
				got["tsvd_detector_trap_set_pairs"], ts.TrapSetSize())
		}
	}
}

// TestDetectorMetricsAggregateAcrossDetectors: one DetectorMetrics attached
// to two detectors exports the sum, live.
func TestDetectorMetricsAggregateAcrossDetectors(t *testing.T) {
	reg := metrics.NewRegistry()
	m := NewDetectorMetrics(reg)
	da := mustNew(t, testConfig(config.AlgoTSVD), WithDetectorMetrics(m))
	db := mustNew(t, testConfig(config.AlgoTSVDHB), WithDetectorMetrics(m))

	for i := 0; i < 10; i++ {
		da.OnCall(acc(1, 1, 101, KindRead))
		db.OnCall(acc(1, 2, 201, KindRead))
		db.OnCall(acc(1, 2, 202, KindRead))
	}
	got := scrapeValues(t, reg)
	want := da.Stats().OnCalls + db.Stats().OnCalls
	if got["tsvd_detector_on_calls_total"] != float64(want) {
		t.Fatalf("on_calls_total = %v, want %d", got["tsvd_detector_on_calls_total"], want)
	}
	if got["tsvd_detector_instances"] != 2 {
		t.Fatalf("instances = %v, want 2", got["tsvd_detector_instances"])
	}
}

// TestDetectorMetricsNilIsFree: a nil DetectorMetrics (metrics off) changes
// nothing about detector behavior.
func TestDetectorMetricsNilIsFree(t *testing.T) {
	d := mustNew(t, testConfig(config.AlgoTSVD), WithDetectorMetrics(nil))
	for i := 0; i < 100; i++ {
		d.OnCall(acc(ids.ThreadID(1+i%2), 1, ids.OpID(101+i%2), KindWrite))
	}
	if d.Stats().OnCalls != 100 {
		t.Fatalf("OnCalls = %d", d.Stats().OnCalls)
	}
}
