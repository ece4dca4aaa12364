package obs

import (
	"fmt"
	"math"
	"sync"
	"time"
)

// SketchAlpha is the relative accuracy of quantile sketches: a reported
// quantile q̂ satisfies |q̂ - q| <= SketchAlpha·q for any value inside the
// indexable range. 1% keeps the bucket array around 1.4k entries.
const SketchAlpha = 0.01

// sketchMinValue and sketchMaxValue bound the indexable range in seconds:
// one microsecond up to ~11.5 simulated days. Values outside the range
// are clamped into the edge buckets; the exact Min/Max are tracked
// separately, so clamping only costs accuracy, never loses observations.
const (
	sketchMinValue = 1e-6
	sketchMaxValue = 1e6
)

// QuantileSketch is a fixed-memory streaming quantile estimator in the
// DDSketch family: observations land in logarithmically spaced buckets
// (relative width SketchAlpha), so p50/p90/p99/p999 over millions of
// latencies cost one bounded uint64 array. Two sketches with the same
// layout merge by bucket-wise addition — a commutative, associative
// operation, so merging per-shard or per-worker sketches produces
// bit-identical state regardless of merge order. The running sum is kept
// in fixed-point nanounits (integer addition) for the same reason; a
// float64 sum would drift with merge order.
//
// A nil *QuantileSketch is a no-op, like every other instrument.
type QuantileSketch struct {
	mu     sync.Mutex
	gamma  float64
	invLog float64 // 1 / ln(gamma)
	minIdx int     // logical index of counts[0]
	counts []uint64
	count  uint64
	sumNs  uint64 // Σ value·1e9, saturating
	min    float64
	max    float64
}

// NewQuantileSketch returns an empty sketch with the package-default
// layout (SketchAlpha relative accuracy over [1µs, 1e6s]).
func NewQuantileSketch() *QuantileSketch {
	gamma := (1 + SketchAlpha) / (1 - SketchAlpha)
	invLog := 1 / math.Log(gamma)
	minIdx := int(math.Ceil(math.Log(sketchMinValue) * invLog))
	maxIdx := int(math.Ceil(math.Log(sketchMaxValue) * invLog))
	return &QuantileSketch{
		gamma:  gamma,
		invLog: invLog,
		minIdx: minIdx,
		counts: make([]uint64, maxIdx-minIdx+1),
		min:    math.Inf(1),
		max:    math.Inf(-1),
	}
}

// bucketOf maps a value to a slot of counts, clamping out-of-range values
// into the edge buckets.
func (s *QuantileSketch) bucketOf(v float64) int {
	if v <= sketchMinValue {
		return 0
	}
	i := int(math.Ceil(math.Log(v)*s.invLog)) - s.minIdx
	if i < 0 {
		i = 0
	}
	if i >= len(s.counts) {
		i = len(s.counts) - 1
	}
	return i
}

// Observe records one value. NaN and negative values are counted into the
// lowest bucket with the value treated as 0, so Count stays an exact
// observation tally.
func (s *QuantileSketch) Observe(v float64) {
	if s == nil {
		return
	}
	if math.IsNaN(v) || v < 0 {
		v = 0
	}
	ns := uint64(0)
	if v > 0 {
		f := math.Round(v * 1e9)
		if f >= math.MaxUint64 {
			ns = math.MaxUint64
		} else {
			ns = uint64(f)
		}
	}
	i := s.bucketOf(v)
	s.mu.Lock()
	s.counts[i]++
	s.count++
	if s.sumNs > math.MaxUint64-ns {
		s.sumNs = math.MaxUint64
	} else {
		s.sumNs += ns
	}
	if v < s.min {
		s.min = v
	}
	if v > s.max {
		s.max = v
	}
	s.mu.Unlock()
}

// ObserveDuration records a duration in seconds.
func (s *QuantileSketch) ObserveDuration(d time.Duration) { s.Observe(d.Seconds()) }

// MergeSnapshot folds a point-in-time snapshot into s. Bucket counts,
// the total count and the fixed-point sum are added; min/max combine by
// comparison. Every component is commutative and associative, so any
// merge order over the same set of snapshots yields bit-identical state.
// Both sides must share a layout; package-constructed sketches always do.
func (s *QuantileSketch) MergeSnapshot(snap SketchSnapshot) error {
	if s == nil || snap.Count == 0 && len(snap.Counts) == 0 {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	off := snap.MinIndex - s.minIdx
	if snap.Gamma != s.gamma || off < 0 || off+len(snap.Counts) > len(s.counts) {
		return fmt.Errorf("obs: cannot merge quantile sketches with different layouts (gamma %v/%v, buckets %d..%d outside %d..%d)",
			snap.Gamma, s.gamma, snap.MinIndex, snap.MinIndex+len(snap.Counts)-1, s.minIdx, s.minIdx+len(s.counts)-1)
	}
	for i, c := range snap.Counts {
		s.counts[off+i] += c
	}
	s.count += snap.Count
	if s.sumNs > math.MaxUint64-snap.SumNanos {
		s.sumNs = math.MaxUint64
	} else {
		s.sumNs += snap.SumNanos
	}
	if snap.Count > 0 {
		if snap.Min < s.min {
			s.min = snap.Min
		}
		if snap.Max > s.max {
			s.max = snap.Max
		}
	}
	return nil
}

// SketchSnapshot is a point-in-time copy of a sketch. It answers quantile
// queries itself, so merged or diffed snapshots stay queryable without a
// live sketch behind them. Counts holds only the occupied stretch of the
// layout: Counts[i] is the bucket with logical index MinIndex+i, so a
// snapshot costs its few non-empty buckets rather than the full layout.
type SketchSnapshot struct {
	Gamma    float64
	MinIndex int
	Counts   []uint64
	Count    uint64
	SumNanos uint64
	Min      float64
	Max      float64
}

// Snapshot copies the current state, trimmed to the occupied buckets.
func (s *QuantileSketch) Snapshot() SketchSnapshot {
	if s == nil {
		return SketchSnapshot{}
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	lo, hi := 0, len(s.counts)
	for lo < hi && s.counts[lo] == 0 {
		lo++
	}
	for hi > lo && s.counts[hi-1] == 0 {
		hi--
	}
	var counts []uint64
	if lo < hi {
		counts = append([]uint64(nil), s.counts[lo:hi]...)
	} else {
		lo = 0
	}
	return SketchSnapshot{
		Gamma:    s.gamma,
		MinIndex: s.minIdx + lo,
		Counts:   counts,
		Count:    s.count,
		SumNanos: s.sumNs,
		Min:      s.min,
		Max:      s.max,
	}
}

// Count reports the number of observations.
func (s *QuantileSketch) Count() uint64 {
	if s == nil {
		return 0
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.count
}

// Sum reports the sum of observed values in seconds.
func (s SketchSnapshot) Sum() float64 { return float64(s.SumNanos) / 1e9 }

// Quantile estimates the q-quantile (q in [0,1]) of the observed values,
// accurate to SketchAlpha relative error inside the indexable range. An
// empty snapshot reports NaN; q <= 0 and q >= 1 report the exact Min and
// Max.
func (s SketchSnapshot) Quantile(q float64) float64 {
	if s.Count == 0 {
		return math.NaN()
	}
	if q <= 0 {
		return s.Min
	}
	if q >= 1 {
		return s.Max
	}
	rank := uint64(math.Ceil(q * float64(s.Count)))
	if rank < 1 {
		rank = 1
	}
	cum := uint64(0)
	for i, c := range s.Counts {
		cum += c
		if cum >= rank {
			// Bucket i covers (gamma^(idx-1), gamma^idx]; report the
			// geometric midpoint, clamped to the exact observed extremes.
			idx := float64(s.MinIndex + i)
			v := 2 * math.Pow(s.Gamma, idx) / (s.Gamma + 1)
			if v < s.Min {
				v = s.Min
			}
			if v > s.Max {
				v = s.Max
			}
			return v
		}
	}
	return s.Max
}

// Quantile is the live-sketch convenience for Snapshot().Quantile(q).
func (s *QuantileSketch) Quantile(q float64) float64 {
	if s == nil {
		return math.NaN()
	}
	return s.Snapshot().Quantile(q)
}

// SketchQuantiles are the quantiles rendered in the Prometheus summary
// exposition and the time-series sampler.
var SketchQuantiles = []float64{0.5, 0.9, 0.99, 0.999}

// quantileLabel renders a quantile as its exposition label value (0.5 ->
// "0.5", 0.999 -> "0.999").
func quantileLabel(q float64) string { return formatFloat(q) }
