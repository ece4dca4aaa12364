package obs

import (
	"encoding/json"
	"io"
	"sort"
	"sync"
	"time"
)

// DefaultSampleCapacity is the per-series ring-buffer size a Sampler
// keeps: at the polbench default 250 ms interval this is ~4 minutes of
// history per series, in bounded memory however long the soak runs.
const DefaultSampleCapacity = 1024

// SamplePoint is one sampled value of one series.
type SamplePoint struct {
	// T is the sample time in seconds since the sampler's epoch.
	T float64 `json:"t_seconds"`
	// V is the sampled value: counter count, gauge value, sketch _count
	// or _sum, or a sketch quantile.
	V float64 `json:"v"`
}

// seriesHistory is one series' bounded ring of sample points.
type seriesHistory struct {
	kind string
	pts  []SamplePoint
	next int
	full bool
}

func (h *seriesHistory) push(p SamplePoint, capacity int) {
	if len(h.pts) < capacity {
		h.pts = append(h.pts, p)
		return
	}
	h.pts[h.next] = p
	h.next = (h.next + 1) % capacity
	h.full = true
}

// ordered returns the ring oldest-first.
func (h *seriesHistory) ordered() []SamplePoint {
	if !h.full {
		return append([]SamplePoint(nil), h.pts...)
	}
	out := make([]SamplePoint, 0, len(h.pts))
	out = append(out, h.pts[h.next:]...)
	out = append(out, h.pts[:h.next]...)
	return out
}

// Sampler turns the registry's cumulative metrics into bounded
// time-series history: every Sample() snapshots the registry and appends
// one point per series — counters and gauges directly, sketches as
// their _count/_sum (plus p50/p99 once they hold an observation) — into
// a per-series ring buffer, so a long soak keeps the last N samples of
// every series in fixed memory. Sampling can be driven explicitly (the
// soak harness ticks once per round) or on a wall-clock interval via
// Start; both may run at once, they just interleave points.
//
// A nil *Sampler is a no-op, like every other instrument.
type Sampler struct {
	mu       sync.Mutex
	reg      *Registry
	capacity int
	epoch    time.Time
	series   map[string]*seriesHistory
	samples  uint64
	last     *Snapshot // the registry snapshot the latest Sample took

	stop chan struct{}
	done chan struct{}
}

// NewSampler builds a sampler over reg keeping capacity points per
// series (values below 1 select DefaultSampleCapacity).
func NewSampler(reg *Registry, capacity int) *Sampler {
	if capacity < 1 {
		capacity = DefaultSampleCapacity
	}
	return &Sampler{
		reg:      reg,
		capacity: capacity,
		epoch:    time.Now(),
		series:   make(map[string]*seriesHistory),
	}
}

// Epoch is the sampler's time zero; every SamplePoint.T is relative to
// it.
func (s *Sampler) Epoch() time.Time {
	if s == nil {
		return time.Time{}
	}
	return s.epoch
}

// idWithSuffix splices a suffix into a series id before its label set:
// `lat{chain="x"}` + `_count` -> `lat_count{chain="x"}`.
func idWithSuffix(id, suffix string) string {
	for i := 0; i < len(id); i++ {
		if id[i] == '{' {
			return id[:i] + suffix + id[i:]
		}
	}
	return id + suffix
}

// Sample takes one sample of every registry series. Safe to call
// concurrently with metric writes and with itself.
func (s *Sampler) Sample() {
	if s == nil || s.reg == nil {
		return
	}
	snap := s.reg.Snapshot() // outside the sampler lock: snapshotting is the slow part
	t := time.Since(s.epoch).Seconds()
	s.mu.Lock()
	defer s.mu.Unlock()
	s.samples++
	s.last = snap
	for id, v := range snap.Counters {
		s.record(id, "counter", t, float64(v))
	}
	for id, v := range snap.Gauges {
		s.record(id, "gauge", t, v)
	}
	for id, sk := range snap.Sketches {
		s.record(idWithSuffix(id, "_count"), "counter", t, float64(sk.Count))
		s.record(idWithSuffix(id, "_sum"), "counter", t, sk.Sum())
		if sk.Count > 0 {
			s.record(idWithSuffix(id, "_p50"), "gauge", t, sk.Quantile(0.5))
			s.record(idWithSuffix(id, "_p99"), "gauge", t, sk.Quantile(0.99))
		}
	}
}

func (s *Sampler) record(id, kind string, t, v float64) {
	h, ok := s.series[id]
	if !ok {
		h = &seriesHistory{kind: kind}
		s.series[id] = h
	}
	h.push(SamplePoint{T: t, V: v}, s.capacity)
}

// latest returns the registry snapshot the most recent Sample took, or
// nil before the first.
func (s *Sampler) latest() *Snapshot {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.last
}

// Start begins sampling on a wall-clock interval in a background
// goroutine; Stop ends it. A second Start while running is a no-op.
func (s *Sampler) Start(interval time.Duration) {
	if s == nil || interval <= 0 {
		return
	}
	s.mu.Lock()
	if s.stop != nil {
		s.mu.Unlock()
		return
	}
	stop := make(chan struct{})
	done := make(chan struct{})
	s.stop, s.done = stop, done
	s.mu.Unlock()
	go func() {
		defer close(done)
		tick := time.NewTicker(interval)
		defer tick.Stop()
		for {
			select {
			case <-stop:
				return
			case <-tick.C:
				s.Sample()
			}
		}
	}()
}

// Stop ends background sampling and waits for the goroutine to exit.
// Explicit Sample() calls remain usable afterwards.
func (s *Sampler) Stop() {
	if s == nil {
		return
	}
	s.mu.Lock()
	stop, done := s.stop, s.done
	s.stop, s.done = nil, nil
	s.mu.Unlock()
	if stop != nil {
		close(stop)
		<-done
	}
}

// Samples reports how many Sample() passes have run.
func (s *Sampler) Samples() uint64 {
	if s == nil {
		return 0
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.samples
}

// History returns the recorded points of one series, oldest first.
func (s *Sampler) History(id string) []SamplePoint {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if h, ok := s.series[id]; ok {
		return h.ordered()
	}
	return nil
}

// SeriesIDs returns every sampled series id, sorted.
func (s *Sampler) SeriesIDs() []string {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	ids := make([]string, 0, len(s.series))
	for id := range s.series {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	return ids
}

// counterDelta applies counter-reset semantics: a value that went
// backwards restarts from zero.
func counterDelta(prev, cur float64) float64 {
	if cur < prev {
		return cur
	}
	return cur - prev
}

// LastDelta returns the change of one series between its two most recent
// samples and the seconds those samples span. ok is false with fewer
// than two points.
func (s *Sampler) LastDelta(id string) (delta, dt float64, ok bool) {
	return s.WindowDelta(id, 1)
}

// WindowDelta returns the change of one series across its last window
// sample intervals (clamped to the available history) and the seconds
// that window spans. Counter series apply reset semantics — an endpoint
// below the start counts from zero. ok is false with fewer than two
// points.
func (s *Sampler) WindowDelta(id string, window int) (delta, dt float64, ok bool) {
	if s == nil || window < 1 {
		return 0, 0, false
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	h, found := s.series[id]
	if !found {
		return 0, 0, false
	}
	pts := h.ordered()
	if len(pts) < 2 {
		return 0, 0, false
	}
	fi := len(pts) - 1 - window
	if fi < 0 {
		fi = 0
	}
	first, last := pts[fi], pts[len(pts)-1]
	if h.kind == "counter" {
		return counterDelta(first.V, last.V), last.T - first.T, true
	}
	return last.V - first.V, last.T - first.T, true
}

// FamilyDelta sums WindowDelta over every series of the family (the
// metric name; label sets ignored). dt is the widest span among the
// matched series. ok is false when no matching series has two points
// yet. A window below 1 means consecutive samples.
func (s *Sampler) FamilyDelta(family string, window int) (delta, dt float64, ok bool) {
	if s == nil {
		return 0, 0, false
	}
	if window < 1 {
		window = 1
	}
	s.mu.Lock()
	ids := make([]string, 0, 4)
	for id := range s.series {
		if familyOf(id) == family {
			ids = append(ids, id)
		}
	}
	s.mu.Unlock()
	for _, id := range ids {
		d, sdt, o := s.WindowDelta(id, window)
		if !o {
			continue
		}
		delta += d
		if sdt > dt {
			dt = sdt
		}
		ok = true
	}
	return delta, dt, ok
}

// LastDeltas returns the most recent k per-sample deltas of one series,
// oldest first — the flight recorder's "what changed leading up to the
// breach" view.
func (s *Sampler) LastDeltas(id string, k int) []float64 {
	if s == nil || k < 1 {
		return nil
	}
	pts := s.History(id)
	if len(pts) < 2 {
		return nil
	}
	s.mu.Lock()
	kind := ""
	if h, ok := s.series[id]; ok {
		kind = h.kind
	}
	s.mu.Unlock()
	deltas := make([]float64, 0, len(pts)-1)
	for i := 1; i < len(pts); i++ {
		if kind == "counter" {
			deltas = append(deltas, counterDelta(pts[i-1].V, pts[i].V))
		} else {
			deltas = append(deltas, pts[i].V-pts[i-1].V)
		}
	}
	if len(deltas) > k {
		deltas = deltas[len(deltas)-k:]
	}
	return deltas
}

// seriesJSON is one series in the /timeseries export.
type seriesJSON struct {
	ID             string        `json:"id"`
	Kind           string        `json:"kind"`
	Points         []SamplePoint `json:"points"`
	LastDelta      float64       `json:"last_delta"`
	LastRatePerSec float64       `json:"last_rate_per_sec"`
}

// timeseriesJSON is the /timeseries document.
type timeseriesJSON struct {
	Epoch    string       `json:"epoch"`
	Samples  uint64       `json:"samples"`
	Capacity int          `json:"capacity"`
	Series   []seriesJSON `json:"series"`
}

// WriteJSON renders every series' history, deltas and rates as JSON,
// sorted by series id.
func (s *Sampler) WriteJSON(w io.Writer) error {
	doc := timeseriesJSON{Series: []seriesJSON{}}
	if s != nil {
		s.mu.Lock()
		doc.Epoch = s.epoch.Format(time.RFC3339Nano)
		doc.Samples = s.samples
		doc.Capacity = s.capacity
		s.mu.Unlock()
		for _, id := range s.SeriesIDs() {
			s.mu.Lock()
			kind := s.series[id].kind
			s.mu.Unlock()
			sj := seriesJSON{ID: id, Kind: kind, Points: s.History(id)}
			if d, dt, ok := s.LastDelta(id); ok {
				sj.LastDelta = d
				if dt > 0 {
					sj.LastRatePerSec = d / dt
				}
			}
			doc.Series = append(doc.Series, sj)
		}
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(doc)
}
