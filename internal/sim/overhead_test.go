package sim

import (
	"runtime"
	"sort"
	"testing"
	"time"

	"agnopol/internal/obs"
)

// fig52 is the smallest full experiment (Ropsten, 8 users) — the standard
// workload for overhead measurements.
var fig52 = FigureSpecs[0]

func timeRun(tb testing.TB, o *obs.Obs) time.Duration {
	tb.Helper()
	start := time.Now()
	if _, err := Execute(Spec{Chain: fig52.Chain, Users: fig52.Users, Seed: 7, Obs: o}); err != nil {
		tb.Fatal(err)
	}
	return time.Since(start)
}

// TestNoOpObservabilityOverhead checks that the uninstrumented (nil-obs)
// path through the instrumented code is not slower than the fully
// instrumented one. The no-op path does strictly less work — only nil
// checks — so comparing against the instrumented run gives a stable
// direction: if the nil path ever exceeded instrumented wall time by more
// than the 5% noise allowance, the "observability off costs nothing"
// claim would be broken. One ~20 ms run varies by more than 5% on a busy
// host, so the test judges the median of many back-to-back pairs, each
// starting from a collected heap, with the order inside a pair
// alternating so host drift favours neither side.
func TestNoOpObservabilityOverhead(t *testing.T) {
	if testing.Short() {
		t.Skip("skipping timing comparison in -short mode")
	}
	const pairs = 32
	run := func(o *obs.Obs) time.Duration {
		runtime.GC()
		return timeRun(t, o)
	}
	ratios := make([]float64, 0, pairs)
	for i := 0; i < pairs; i++ {
		var noop, instr time.Duration
		if i%2 == 0 {
			noop, instr = run(nil), run(obs.New())
		} else {
			instr, noop = run(obs.New()), run(nil)
		}
		ratios = append(ratios, float64(noop)/float64(instr))
	}
	sort.Float64s(ratios)
	median := (ratios[pairs/2-1] + ratios[pairs/2]) / 2
	t.Logf("fig 5.2 wall time, no-op/instrumented over %d pairs: median %.1f%%, range %.1f%%..%.1f%%",
		pairs, 100*median, 100*ratios[0], 100*ratios[pairs-1])
	if median > 1.05 {
		t.Errorf("no-op path took a median %.1f%% of the instrumented wall time, more than 5%% over it", 100*median)
	}
}

func BenchmarkFig52(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := Execute(Spec{Chain: fig52.Chain, Users: fig52.Users, Seed: 7}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig52Observed(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := Execute(Spec{Chain: fig52.Chain, Users: fig52.Users, Seed: 7, Obs: obs.New()}); err != nil {
			b.Fatal(err)
		}
	}
}
