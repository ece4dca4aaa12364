package sim

import (
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
// claim would be broken. Min-of-N damps scheduler noise.
func TestNoOpObservabilityOverhead(t *testing.T) {
	if testing.Short() {
		t.Skip("skipping timing comparison in -short mode")
	}
	const rounds = 4
	minNoop, minObs := time.Duration(1<<62), time.Duration(1<<62)
	for i := 0; i < rounds; i++ {
		if d := timeRun(t, nil); d < minNoop {
			minNoop = d
		}
		if d := timeRun(t, obs.New()); d < minObs {
			minObs = d
		}
	}
	t.Logf("fig 5.2 wall time: no-op %v, instrumented %v", minNoop, minObs)
	if float64(minNoop) > 1.05*float64(minObs) {
		t.Errorf("no-op path took %v, more than 5%% over the instrumented %v", minNoop, minObs)
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
