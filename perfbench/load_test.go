package main

import "testing"

// TestCalmStatsSkipsStolenSegments requires segments during which the
// hypervisor took more CPU than in the median segment, and more than
// calmSteal, to be left out, and every segment to count when little was
// stolen.
func TestCalmStatsSkipsStolenSegments(t *testing.T) {
	segs := []segment{
		{QPS: 100, P50US: 10, P99US: 50, Steal: 0.01},
		{QPS: 102, P50US: 11, P99US: 52, Steal: 0.00},
		{QPS: 60, P50US: 30, P99US: 900, Steal: 0.20},
		{QPS: 98, P50US: 12, P99US: 54, Steal: 0.01},
		{QPS: 50, P50US: 40, P99US: 990, Steal: 0.25},
	}
	if q, p50, p99 := calmStats(segs); q != 100 || p50 != 11 || p99 != 52 {
		t.Fatalf("with steal: qps %v p50 %v p99 %v", q, p50, p99)
	}
	for i := range segs {
		segs[i].Steal = calmSteal
	}
	if q, p50, p99 := calmStats(segs); q != 98 || p50 != 12 || p99 != 54 {
		t.Fatalf("without steal: qps %v p50 %v p99 %v", q, p50, p99)
	}
}
