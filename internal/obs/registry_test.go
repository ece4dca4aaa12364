package obs

import (
	"strings"
	"sync"
	"testing"
)

func TestCounterGaugeBasics(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("reqs_total", L("chain", "goerli"))
	c.Inc()
	c.Add(4)
	if got := c.Value(); got != 5 {
		t.Fatalf("counter = %d, want 5", got)
	}
	if same := r.Counter("reqs_total", L("chain", "goerli")); same != c {
		t.Fatal("same name+labels must return the same counter")
	}
	if other := r.Counter("reqs_total", L("chain", "polygon")); other == c {
		t.Fatal("different labels must return a different counter")
	}

	g := r.Gauge("depth")
	g.Set(2.5)
	g.Add(-0.5)
	if got := g.Value(); got != 2.0 {
		t.Fatalf("gauge = %v, want 2", got)
	}
}

func TestNilInstrumentsAreNoOps(t *testing.T) {
	var r *Registry
	r.Counter("x").Inc()
	r.Gauge("y").Set(1)
	r.Sketch("z").Observe(1)
	if txt := r.Text(); txt != "" {
		t.Fatalf("nil registry text = %q, want empty", txt)
	}
	snap := r.Snapshot()
	if len(snap.Counters)+len(snap.Gauges)+len(snap.Sketches) != 0 {
		t.Fatal("nil registry snapshot must be empty")
	}
	var c *Counter
	c.Inc() // must not panic
	var g *Gauge
	g.Add(1)
	var sk *QuantileSketch
	sk.Observe(1)
	if sk.Count() != 0 {
		t.Fatal("nil sketch must count nothing")
	}
}

func TestExpositionGolden(t *testing.T) {
	r := NewRegistry()
	r.Counter("blocks_total", L("chain", "goerli")).Add(3)
	r.Counter("blocks_total", L("chain", "algorand")).Add(7)
	r.Gauge("base_fee_wei").Set(1.5e9)
	// Identical observations make every quantile exact (the estimate is
	// clamped to the observed extremes), so the golden needs no
	// sketch-accuracy tolerance; the empty series pins the NaN rendering.
	sk := r.Sketch("latency_seconds", L("op", "attach"))
	for i := 0; i < 3; i++ {
		sk.Observe(2.5)
	}
	r.Sketch("latency_seconds", L("op", "deploy"))

	want := strings.Join([]string{
		`# TYPE base_fee_wei gauge`,
		`base_fee_wei 1.5e+09`,
		`# TYPE blocks_total counter`,
		`blocks_total{chain="algorand"} 7`,
		`blocks_total{chain="goerli"} 3`,
		`# TYPE latency_seconds summary`,
		`latency_seconds{op="attach",quantile="0.5"} 2.5`,
		`latency_seconds{op="attach",quantile="0.9"} 2.5`,
		`latency_seconds{op="attach",quantile="0.99"} 2.5`,
		`latency_seconds{op="attach",quantile="0.999"} 2.5`,
		`latency_seconds_sum{op="attach"} 7.5`,
		`latency_seconds_count{op="attach"} 3`,
		`latency_seconds{op="deploy",quantile="0.5"} NaN`,
		`latency_seconds{op="deploy",quantile="0.9"} NaN`,
		`latency_seconds{op="deploy",quantile="0.99"} NaN`,
		`latency_seconds{op="deploy",quantile="0.999"} NaN`,
		`latency_seconds_sum{op="deploy"} 0`,
		`latency_seconds_count{op="deploy"} 0`,
	}, "\n") + "\n"
	if got := r.Text(); got != want {
		t.Errorf("exposition mismatch:\n--- got ---\n%s--- want ---\n%s", got, want)
	}
}

// TestRegistryConcurrentLabelSets checks series identity under
// concurrent creators — what RunMatrix workers do when every cell
// registers the same families: the same label set must resolve to the
// same instrument no matter which goroutine created it first or in what
// key order the labels were passed, and distinct label sets must stay
// distinct. Run under -race.
func TestRegistryConcurrentLabelSets(t *testing.T) {
	r := NewRegistry()
	const workers = 8
	const perW = 500
	chains := []string{"goerli", "polygon", "algorand"}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perW; i++ {
				chain := chains[i%len(chains)]
				// Alternate label order: rendering sorts keys, so both
				// must hit the same series.
				if i%2 == 0 {
					r.Counter("ops_total", L("chain", chain), L("op", "attach")).Inc()
				} else {
					r.Counter("ops_total", L("op", "attach"), L("chain", chain)).Inc()
				}
				r.Sketch("lat_seconds", L("chain", chain)).Observe(1)
			}
		}(w)
	}
	wg.Wait()

	var totalOps uint64
	var totalLat uint64
	for _, chain := range chains {
		totalOps += r.Counter("ops_total", L("chain", chain), L("op", "attach")).Value()
		totalLat += r.Sketch("lat_seconds", L("chain", chain)).Count()
	}
	if want := uint64(workers * perW); totalOps != want {
		t.Errorf("ops_total across label sets = %d, want %d (split series?)", totalOps, want)
	}
	if want := uint64(workers * perW); totalLat != want {
		t.Errorf("lat_seconds count across label sets = %d, want %d", totalLat, want)
	}
	// Exactly one exposition line per label set, labels sorted.
	text := r.Text()
	for _, chain := range chains {
		id := `ops_total{chain="` + chain + `",op="attach"}`
		if got := strings.Count(text, id+" "); got != 1 {
			t.Errorf("exposition has %d lines for %s, want 1", got, id)
		}
	}
}

// TestRegistryConcurrency hammers one registry from many goroutines —
// metric creation, counter increments, gauge updates and sketch
// observations — and checks exact totals. Run under -race.
func TestRegistryConcurrency(t *testing.T) {
	r := NewRegistry()
	const goroutines = 16
	const perG = 1000
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				r.Counter("shared_total").Inc()
				r.Counter("mine_total", L("g", string(rune('a'+id)))).Inc()
				r.Gauge("depth").Set(float64(i))
				r.Gauge("acc").Add(1)
				r.Sketch("lat").Observe(float64(i % 20))
				if i%100 == 0 {
					_ = r.Snapshot()
					_ = r.Text()
				}
			}
		}(g)
	}
	wg.Wait()

	if got := r.Counter("shared_total").Value(); got != goroutines*perG {
		t.Errorf("shared counter = %d, want %d", got, goroutines*perG)
	}
	if got := r.Gauge("acc").Value(); got != goroutines*perG {
		t.Errorf("gauge acc = %v, want %d", got, goroutines*perG)
	}
	s := r.Sketch("lat").Snapshot()
	if s.Count != goroutines*perG {
		t.Errorf("sketch count = %d, want %d", s.Count, goroutines*perG)
	}
	// Σ over 0..19 is 190 per 20 observations, summed exactly in
	// fixed-point nanounits whatever the interleaving.
	if want := float64(goroutines * perG / 20 * 190); s.Sum() != want {
		t.Errorf("sketch sum = %v, want %v", s.Sum(), want)
	}
	for g := 0; g < goroutines; g++ {
		if got := r.Counter("mine_total", L("g", string(rune('a'+g)))).Value(); got != perG {
			t.Errorf("per-goroutine counter %d = %d, want %d", g, got, perG)
		}
	}
}
