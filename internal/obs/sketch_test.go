package obs

import (
	"math"
	"reflect"
	"sync"
	"testing"
)

func TestSketchQuantileAccuracy(t *testing.T) {
	s := NewQuantileSketch()
	// 1..10000 milliseconds: the q-quantile of the uniform grid is ~10·q
	// seconds, and the sketch must land within SketchAlpha relative error.
	n := 10000
	for i := 1; i <= n; i++ {
		s.Observe(float64(i) / 1000)
	}
	if got := s.Count(); got != uint64(n) {
		t.Fatalf("Count = %d, want %d", got, n)
	}
	snap := s.Snapshot()
	for _, q := range []float64{0.5, 0.9, 0.99, 0.999} {
		want := float64(int(math.Ceil(q*float64(n)))) / 1000
		got := snap.Quantile(q)
		if rel := math.Abs(got-want) / want; rel > 2*SketchAlpha {
			t.Errorf("Quantile(%v) = %v, want %v ± %v%%", q, got, want, 200*SketchAlpha)
		}
	}
	if got := snap.Quantile(0); got != 0.001 {
		t.Errorf("Quantile(0) = %v, want exact min 0.001", got)
	}
	if got := snap.Quantile(1); got != 10 {
		t.Errorf("Quantile(1) = %v, want exact max 10", got)
	}
	if sum := snap.Sum(); math.Abs(sum-50005) > 1e-3 {
		t.Errorf("Sum = %v, want 50005", sum)
	}
}

func TestSketchEmptyAndDegenerateInputs(t *testing.T) {
	var nilSketch *QuantileSketch
	nilSketch.Observe(1) // must not panic
	if !math.IsNaN(nilSketch.Quantile(0.5)) {
		t.Error("nil sketch Quantile should be NaN")
	}
	s := NewQuantileSketch()
	if !math.IsNaN(s.Quantile(0.5)) {
		t.Error("empty sketch Quantile should be NaN")
	}
	s.Observe(math.NaN())
	s.Observe(-5)
	if got := s.Count(); got != 2 {
		t.Fatalf("Count after NaN+negative = %d, want 2 (both counted as 0)", got)
	}
	if got := s.Quantile(0.5); got != 0 {
		t.Errorf("Quantile(0.5) = %v, want 0", got)
	}
	// Out-of-range values clamp into edge buckets but keep exact extremes.
	s2 := NewQuantileSketch()
	s2.Observe(1e-9)
	s2.Observe(1e9)
	snap := s2.Snapshot()
	if snap.Min != 1e-9 || snap.Max != 1e9 {
		t.Errorf("Min/Max = %v/%v, want exact 1e-9/1e9", snap.Min, snap.Max)
	}
	if got := snap.Quantile(1); got != 1e9 {
		t.Errorf("Quantile(1) = %v, want clamped-to-max 1e9", got)
	}
}

// TestSketchMergeOrderIndependence is the acceptance check: merging the
// same set of per-shard sketches in any order must produce bit-identical
// state — counts, sum, and every queried quantile.
func TestSketchMergeOrderIndependence(t *testing.T) {
	parts := make([]*QuantileSketch, 5)
	for p := range parts {
		parts[p] = NewQuantileSketch()
		for i := 0; i < 1000; i++ {
			// Distinct deterministic streams per part.
			v := float64((i*31+p*17)%5000+1) / 100
			parts[p].Observe(v)
		}
	}
	orders := [][]int{
		{0, 1, 2, 3, 4},
		{4, 3, 2, 1, 0},
		{2, 0, 4, 1, 3},
	}
	snaps := make([]SketchSnapshot, len(orders))
	for oi, order := range orders {
		m := NewQuantileSketch()
		for _, p := range order {
			if err := m.MergeSnapshot(parts[p].Snapshot()); err != nil {
				t.Fatalf("merge order %v part %d: %v", order, p, err)
			}
		}
		snaps[oi] = m.Snapshot()
	}
	for oi := 1; oi < len(snaps); oi++ {
		if !reflect.DeepEqual(snaps[0], snaps[oi]) {
			t.Fatalf("merge order %v produced different state than order %v", orders[oi], orders[0])
		}
		for _, q := range SketchQuantiles {
			a, b := snaps[0].Quantile(q), snaps[oi].Quantile(q)
			if math.Float64bits(a) != math.Float64bits(b) {
				t.Errorf("Quantile(%v) differs between merge orders: %v vs %v", q, a, b)
			}
		}
	}
	// Associativity: ((a+b)+c) == (a+(b+c)).
	ab := NewQuantileSketch()
	_ = ab.MergeSnapshot(parts[0].Snapshot())
	_ = ab.MergeSnapshot(parts[1].Snapshot())
	_ = ab.MergeSnapshot(parts[2].Snapshot())
	bc := NewQuantileSketch()
	_ = bc.MergeSnapshot(parts[1].Snapshot())
	_ = bc.MergeSnapshot(parts[2].Snapshot())
	a2 := NewQuantileSketch()
	_ = a2.MergeSnapshot(parts[0].Snapshot())
	_ = a2.MergeSnapshot(bc.Snapshot())
	if !reflect.DeepEqual(ab.Snapshot(), a2.Snapshot()) {
		t.Error("merge is not associative")
	}
}

func TestSketchMergeLayoutMismatch(t *testing.T) {
	s := NewQuantileSketch()
	bad := SketchSnapshot{Gamma: 2, MinIndex: 0, Counts: []uint64{1, 2}, Count: 3}
	if err := s.MergeSnapshot(bad); err == nil {
		t.Fatal("merging a different layout should error")
	}
	// An empty snapshot merges into anything (vacuously compatible).
	if err := s.MergeSnapshot(SketchSnapshot{}); err != nil {
		t.Fatalf("merging an empty snapshot: %v", err)
	}
}

// TestSketchConcurrentObserveSnapshot exercises Observe racing Snapshot,
// Quantile and Merge under -race.
func TestSketchConcurrentObserveSnapshot(t *testing.T) {
	s := NewQuantileSketch()
	const writers, perWriter = 8, 2000
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				s.Observe(float64(w*perWriter+i%997) / 1000)
			}
		}(w)
	}
	stop := make(chan struct{})
	var rg sync.WaitGroup
	for r := 0; r < 4; r++ {
		rg.Add(1)
		go func() {
			defer rg.Done()
			m := NewQuantileSketch()
			for {
				select {
				case <-stop:
					return
				default:
					snap := s.Snapshot()
					_ = snap.Quantile(0.99)
					_ = m.MergeSnapshot(snap)
					_ = s.Quantile(0.5)
				}
			}
		}()
	}
	wg.Wait()
	close(stop)
	rg.Wait()
	if got := s.Count(); got != writers*perWriter {
		t.Fatalf("Count = %d, want %d: lost observations under contention", got, writers*perWriter)
	}
}

func TestPercentileName(t *testing.T) {
	for q, want := range map[float64]string{0.5: "p50", 0.9: "p90", 0.99: "p99", 0.999: "p999"} {
		if got := percentileName(q); got != want {
			t.Errorf("percentileName(%v) = %q, want %q", q, got, want)
		}
	}
}

// TestSketchSnapshotTrimmed checks a snapshot carries only the occupied
// buckets yet answers and merges exactly like the full layout: folding it
// into an empty sketch reproduces it, and a stretch outside the layout is
// refused.
func TestSketchSnapshotTrimmed(t *testing.T) {
	s := NewQuantileSketch()
	for _, v := range []float64{0.002, 0.003, 0.050, 0.051} {
		s.Observe(v)
	}
	snap := s.Snapshot()
	if full := len(NewQuantileSketch().counts); len(snap.Counts) >= full/4 {
		t.Errorf("snapshot holds %d buckets, want far fewer than the %d-bucket layout", len(snap.Counts), full)
	}
	if snap.Counts[0] == 0 || snap.Counts[len(snap.Counts)-1] == 0 {
		t.Errorf("snapshot edges must be occupied buckets: %v...%v", snap.Counts[0], snap.Counts[len(snap.Counts)-1])
	}
	again := NewQuantileSketch()
	if err := again.MergeSnapshot(snap); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(again.Snapshot(), snap) {
		t.Error("merging a trimmed snapshot into an empty sketch must reproduce it")
	}
	for _, q := range []float64{0.25, 0.5, 0.75, 0.99} {
		if got, want := snap.Quantile(q), s.Quantile(q); got != want {
			t.Errorf("q%v: snapshot %v, live %v", q, got, want)
		}
	}
	if empty := NewQuantileSketch().Snapshot(); len(empty.Counts) != 0 || empty.Count != 0 {
		t.Errorf("empty sketch snapshot = %+v, want no buckets", empty)
	}
	past := snap
	past.MinIndex = s.minIdx + len(s.counts) - 1
	if err := again.MergeSnapshot(past); err == nil {
		t.Error("a snapshot reaching past the layout must not merge")
	}
}
