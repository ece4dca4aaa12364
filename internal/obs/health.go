package obs

import (
	"encoding/json"
	"io"
	"os"
	"runtime"
	"sync"
	"time"
)

// RuleKind selects how an SLO rule evaluates.
type RuleKind string

const (
	// RuleRateMin breaches when the per-second rate of a counter family
	// (summed across label sets, between the last two samples) falls
	// below Threshold.
	RuleRateMin RuleKind = "rate_min"
	// RuleRateMax breaches when that rate exceeds Threshold.
	RuleRateMax RuleKind = "rate_max"
	// RuleGaugeMax breaches when any gauge of the family exceeds
	// Threshold at the latest sample.
	RuleGaugeMax RuleKind = "gauge_max"
	// RuleQuantileMax breaches when the Quantile of the family's merged
	// quantile sketches exceeds Threshold (seconds).
	RuleQuantileMax RuleKind = "quantile_max"
	// RuleRatioMin breaches when the cumulative ratio
	// sum(Series)/sum(Denominator) falls below Threshold; it only
	// evaluates once the denominator is non-zero.
	RuleRatioMin RuleKind = "ratio_min"
)

// Rule is one SLO bound evaluated against the sampler and registry after
// every sample — a throughput floor, a tail-latency ceiling, a
// rejection-rate or fault-recovery bound.
type Rule struct {
	Name string   `json:"name"`
	Kind RuleKind `json:"kind"`
	// Series is the metric family the rule watches (label sets are
	// aggregated). For RuleRatioMin it is the numerator.
	Series      string  `json:"series"`
	Denominator string  `json:"denominator,omitempty"`
	Quantile    float64 `json:"quantile,omitempty"`
	Threshold   float64 `json:"threshold"`
	// Grace is how many samples must have been taken before the rule
	// evaluates — it keeps cold-start transients from tripping SLOs.
	Grace uint64 `json:"grace_samples,omitempty"`
	// Window is how many sample intervals rate rules compute their rate
	// across (0 means consecutive samples). A windowed floor tolerates a
	// single idle sample — one empty block under a base-fee spike, the
	// final post-drain sample — while still catching a genuine flatline.
	Window uint64 `json:"window_samples,omitempty"`
}

// Evaluation is one rule's latest verdict.
type Evaluation struct {
	Rule Rule `json:"rule"`
	// Evaluated is false while the rule lacks data (grace window, no
	// matching series, empty denominator).
	Evaluated bool    `json:"evaluated"`
	Value     float64 `json:"value"`
	Breached  bool    `json:"breached"`
}

// SpanRecord is one recent span in an anomaly bundle.
type SpanRecord struct {
	Name         string  `json:"name"`
	StartSeconds float64 `json:"start_seconds"`
	DurSeconds   float64 `json:"dur_seconds"`
	Labels       []Label `json:"labels,omitempty"`
}

// Anomaly is one SLO breach plus the flight-recorder bundle captured at
// breach time: the breaching series' recent deltas, the merged quantile
// state of every sketch family, the tracer's most recent spans and a
// full goroutine dump.
type Anomaly struct {
	Sample    uint64  `json:"sample"`
	Time      string  `json:"time"`
	Rule      Rule    `json:"rule"`
	Value     float64 `json:"value"`
	Threshold float64 `json:"threshold"`
	// Deltas maps the breaching family's series ids to their last-K
	// per-sample deltas, oldest first.
	Deltas map[string][]float64 `json:"recent_deltas,omitempty"`
	// Quantiles maps each sketch family to its merged p50/p90/p99/p999.
	Quantiles map[string]map[string]float64 `json:"quantiles,omitempty"`
	Spans     []SpanRecord                  `json:"recent_spans,omitempty"`
	// Goroutines is a full runtime stack dump, captured only for the
	// first few anomalies (they are large).
	Goroutines string `json:"goroutines,omitempty"`
}

// HealthReport is the flight recorder's serialized state — written to
// HEALTH_report.json by polbench and gated by benchgate -kind health.
type HealthReport struct {
	Healthy       bool         `json:"healthy"`
	Samples       uint64       `json:"samples"`
	TotalBreaches uint64       `json:"total_breaches"`
	Rules         []Evaluation `json:"rules"`
	// AnomaliesDropped counts breaches beyond the bundle cap; their
	// rule/value still show in Rules and TotalBreaches.
	AnomaliesDropped uint64    `json:"anomalies_dropped"`
	Anomalies        []Anomaly `json:"anomalies"`
}

// flight-recorder bundle bounds.
const (
	maxAnomalies      = 8  // full bundles kept per run
	maxGoroutineDumps = 2  // goroutine dumps are ~100KB each
	recorderDeltaK    = 16 // last-K deltas per breaching series
	recorderSpanK     = 32 // recent spans per bundle
)

// HealthMonitor evaluates SLO rules against a sampler and its registry
// and acts as the anomaly flight recorder: a breach flips the health
// verdict (stickily — /health stays red so a 3 a.m. stall in round 200
// of 1000 is still visible at round 1000), increments the
// obs_slo_breaches_total counter, and captures a diagnostic bundle. A
// nil *HealthMonitor is a no-op.
type HealthMonitor struct {
	mu      sync.Mutex
	o       *Obs
	sampler *Sampler
	rules   []Rule

	evals     []Evaluation
	breaches  uint64
	dropped   uint64
	dumps     int
	anomalies []Anomaly
}

// NewHealthMonitor builds a monitor over the bundle's registry/tracer
// and the sampler. The per-rule breach counters are registered up front
// so the exposition shows zeros for healthy rules.
func NewHealthMonitor(o *Obs, sampler *Sampler, rules []Rule) *HealthMonitor {
	m := &HealthMonitor{o: o, sampler: sampler, rules: rules}
	if o != nil && o.Registry != nil {
		for _, r := range rules {
			o.Registry.Counter("obs_slo_breaches_total", L("rule", r.Name))
		}
		o.Registry.Help("obs_slo_breaches_total", "SLO rule breaches recorded by the health monitor, per rule.")
	}
	return m
}

// Rules returns the configured rules.
func (m *HealthMonitor) Rules() []Rule {
	if m == nil {
		return nil
	}
	return append([]Rule(nil), m.rules...)
}

// Healthy reports whether no rule has ever breached. The verdict is
// sticky by design: the flight recorder's job is to make a transient
// mid-soak anomaly visible after the fact.
func (m *HealthMonitor) Healthy() bool {
	if m == nil {
		return true
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.breaches == 0
}

// Breaches reports the total breach count.
func (m *HealthMonitor) Breaches() uint64 {
	if m == nil {
		return 0
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.breaches
}

// Evaluate runs every rule against the sampler's history and the
// registry snapshot its latest Sample took, records anomalies for
// breaches, and returns the evaluations. Callers normally reach it
// through Telemetry.Tick, which samples first.
func (m *HealthMonitor) Evaluate() []Evaluation {
	if m == nil {
		return nil
	}
	samples := m.sampler.Samples()
	snap := m.sampler.latest()
	evals := make([]Evaluation, 0, len(m.rules))
	for _, r := range m.rules {
		ev := Evaluation{Rule: r}
		if samples > r.Grace {
			// At least one sample has been taken, so snap is non-nil.
			ev.Evaluated, ev.Value, ev.Breached = m.check(r, snap)
		}
		evals = append(evals, ev)
		if ev.Breached {
			m.recordBreach(ev, samples)
		}
	}
	m.mu.Lock()
	m.evals = evals
	m.mu.Unlock()
	return evals
}

// check evaluates one rule; breached is meaningful only when evaluated.
func (m *HealthMonitor) check(r Rule, snap *Snapshot) (evaluated bool, value float64, breached bool) {
	switch r.Kind {
	case RuleRateMin, RuleRateMax:
		delta, dt, ok := m.sampler.FamilyDelta(r.Series, int(r.Window))
		if !ok || dt <= 0 {
			return false, 0, false
		}
		rate := delta / dt
		if r.Kind == RuleRateMin {
			return true, rate, rate < r.Threshold
		}
		return true, rate, rate > r.Threshold
	case RuleGaugeMax:
		found := false
		maxV := 0.0
		for id, v := range snap.Gauges {
			if familyOf(id) == r.Series {
				if !found || v > maxV {
					maxV = v
				}
				found = true
			}
		}
		if !found {
			return false, 0, false
		}
		return true, maxV, maxV > r.Threshold
	case RuleQuantileMax:
		merged, ok := snap.MergedSketch(r.Series)
		if !ok || merged.Count == 0 {
			return false, 0, false
		}
		v := merged.Quantile(r.Quantile)
		return true, v, v > r.Threshold
	case RuleRatioMin:
		var num, den uint64
		for id, v := range snap.Counters {
			switch familyOf(id) {
			case r.Series:
				num += v
			case r.Denominator:
				den += v
			}
		}
		if den == 0 {
			return false, 0, false
		}
		ratio := float64(num) / float64(den)
		return true, ratio, ratio < r.Threshold
	}
	return false, 0, false
}

// recordBreach counts the breach and captures the flight-recorder
// bundle, bounded to maxAnomalies full bundles per run.
func (m *HealthMonitor) recordBreach(ev Evaluation, sample uint64) {
	if m.o != nil && m.o.Registry != nil {
		m.o.Registry.Counter("obs_slo_breaches_total", L("rule", ev.Rule.Name)).Inc()
	}
	m.mu.Lock()
	m.breaches++
	if len(m.anomalies) >= maxAnomalies {
		m.dropped++
		m.mu.Unlock()
		return
	}
	withDump := m.dumps < maxGoroutineDumps
	if withDump {
		m.dumps++
	}
	m.mu.Unlock()

	a := Anomaly{
		Sample:    sample,
		Time:      time.Now().UTC().Format(time.RFC3339Nano),
		Rule:      ev.Rule,
		Value:     ev.Value,
		Threshold: ev.Rule.Threshold,
		Deltas:    make(map[string][]float64),
		Quantiles: make(map[string]map[string]float64),
	}
	for _, id := range m.sampler.SeriesIDs() {
		if familyOf(id) != ev.Rule.Series && familyOf(id) != ev.Rule.Denominator {
			continue
		}
		if ds := m.sampler.LastDeltas(id, recorderDeltaK); len(ds) > 0 {
			a.Deltas[id] = ds
		}
	}
	if m.o != nil && m.o.Registry != nil {
		snap := m.o.Registry.Snapshot()
		families := make(map[string]bool)
		for id := range snap.Sketches {
			families[familyOf(id)] = true
		}
		for fam := range families {
			if merged, ok := snap.MergedSketch(fam); ok && merged.Count > 0 {
				qs := make(map[string]float64, len(SketchQuantiles))
				for _, q := range SketchQuantiles {
					qs[percentileName(q)] = merged.Quantile(q)
				}
				a.Quantiles[fam] = qs
			}
		}
	}
	if m.o != nil && m.o.Tracer != nil {
		spans := m.o.Tracer.Spans()
		if len(spans) > recorderSpanK {
			spans = spans[len(spans)-recorderSpanK:]
		}
		for _, sp := range spans {
			a.Spans = append(a.Spans, SpanRecord{
				Name:         sp.Name,
				StartSeconds: sp.Start.Seconds(),
				DurSeconds:   sp.Duration.Seconds(),
				Labels:       sp.Labels,
			})
		}
	}
	if withDump {
		buf := make([]byte, 1<<20)
		a.Goroutines = string(buf[:runtime.Stack(buf, true)])
	}
	m.mu.Lock()
	m.anomalies = append(m.anomalies, a)
	m.mu.Unlock()
}

// Report assembles the flight recorder's current state.
func (m *HealthMonitor) Report() *HealthReport {
	if m == nil {
		return &HealthReport{Healthy: true, Rules: []Evaluation{}, Anomalies: []Anomaly{}}
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	rep := &HealthReport{
		Healthy:          m.breaches == 0,
		Samples:          m.sampler.Samples(),
		TotalBreaches:    m.breaches,
		Rules:            append([]Evaluation{}, m.evals...),
		AnomaliesDropped: m.dropped,
		Anomalies:        append([]Anomaly{}, m.anomalies...),
	}
	if rep.Rules == nil {
		rep.Rules = []Evaluation{}
	}
	return rep
}

// WriteReport serializes Report as indented JSON.
func (m *HealthMonitor) WriteReport(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(m.Report())
}

// WriteReportFile writes the report to path.
func (m *HealthMonitor) WriteReportFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := m.WriteReport(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// Telemetry bundles one live-telemetry session: the obs bundle its
// metrics come from, the sampler that turns them into time series, and
// the health monitor watching the samples. Harnesses thread a *Telemetry
// through their specs and call Tick at natural boundaries (a soak round,
// a completed matrix run); nil disables everything, like a nil *Obs.
type Telemetry struct {
	Obs     *Obs
	Sampler *Sampler
	Health  *HealthMonitor
}

// NewTelemetry wires a sampler (capacity points per series; below 1
// selects DefaultSampleCapacity) and a health monitor with the given SLO
// rules over o's registry.
func NewTelemetry(o *Obs, capacity int, rules []Rule) *Telemetry {
	var reg *Registry
	if o != nil {
		reg = o.Registry
	}
	sampler := NewSampler(reg, capacity)
	return &Telemetry{
		Obs:     o,
		Sampler: sampler,
		Health:  NewHealthMonitor(o, sampler, rules),
	}
}

// Tick takes one sample and evaluates the SLO rules — the per-round hook
// the sim harnesses call. Nil-safe.
func (t *Telemetry) Tick() {
	if t == nil {
		return
	}
	t.Sampler.Sample()
	t.Health.Evaluate()
}

// percentileName renders 0.5 -> "p50", 0.99 -> "p99", 0.999 -> "p999".
func percentileName(q float64) string {
	s := quantileLabel(q)
	if len(s) > 2 && s[:2] == "0." {
		s = s[2:]
	}
	if len(s) == 1 {
		s += "0"
	}
	return "p" + s
}
