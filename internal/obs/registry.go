package obs

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing uint64 metric. The zero value is
// ready to use; a nil *Counter is a no-op.
type Counter struct {
	n atomic.Uint64
}

// Inc adds one.
func (c *Counter) Inc() {
	if c != nil {
		c.n.Add(1)
	}
}

// Add adds n.
func (c *Counter) Add(n uint64) {
	if c != nil {
		c.n.Add(n)
	}
}

// Value reads the current count.
func (c *Counter) Value() uint64 {
	if c == nil {
		return 0
	}
	return c.n.Load()
}

// Gauge is a float64 metric that can go up and down. A nil *Gauge is a
// no-op.
type Gauge struct {
	bits atomic.Uint64
}

// Set stores v.
func (g *Gauge) Set(v float64) {
	if g != nil {
		g.bits.Store(floatBits(v))
	}
}

// Add adds delta (atomically, via CAS).
func (g *Gauge) Add(delta float64) {
	if g == nil {
		return
	}
	for {
		old := g.bits.Load()
		if g.bits.CompareAndSwap(old, floatBits(bitsFloat(old)+delta)) {
			return
		}
	}
}

// Value reads the current value.
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	return bitsFloat(g.bits.Load())
}

func floatBits(f float64) uint64 { return math.Float64bits(f) }
func bitsFloat(b uint64) float64 { return math.Float64frombits(b) }

// series is one registered metric: a name, a rendered label string and
// the instrument behind it.
type series struct {
	name   string
	labels string // `k="v",k2="v2"` with keys sorted, "" when unlabeled
	kind   string // "counter" | "gauge" | "summary"
}

func (s series) id() string {
	if s.labels == "" {
		return s.name
	}
	return s.name + "{" + s.labels + "}"
}

// labelEscaper implements the Prometheus text-format escaping for label
// values: backslash, double-quote and newline only. Go's %q is not a
// substitute — it escapes non-printables as \x.. / \u.... sequences the
// exposition format does not define, and mangles valid UTF-8.
var labelEscaper = strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)

// helpEscaper implements the escaping for HELP text: backslash and
// newline (quotes are legal there).
var helpEscaper = strings.NewReplacer(`\`, `\\`, "\n", `\n`)

// EscapeLabelValue renders a label value for the Prometheus text
// exposition format, shared by WriteText and the /metrics HTTP handler.
func EscapeLabelValue(v string) string { return labelEscaper.Replace(v) }

func renderLabels(labels []Label) string {
	if len(labels) == 0 {
		return ""
	}
	sorted := append([]Label(nil), labels...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].Key < sorted[j].Key })
	parts := make([]string, len(sorted))
	for i, l := range sorted {
		parts[i] = l.Key + `="` + EscapeLabelValue(l.Value) + `"`
	}
	return strings.Join(parts, ",")
}

// Registry holds named metrics. All methods are safe for concurrent use;
// a nil *Registry hands out nil (no-op) instruments.
type Registry struct {
	mu       sync.Mutex
	counters map[string]*Counter
	gauges   map[string]*Gauge
	sketches map[string]*QuantileSketch
	info     map[string]series // id -> name/labels, shared across kinds
	help     map[string]string // family name -> HELP text
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: make(map[string]*Counter),
		gauges:   make(map[string]*Gauge),
		sketches: make(map[string]*QuantileSketch),
		info:     make(map[string]series),
		help:     make(map[string]string),
	}
}

// Help sets the `# HELP` text emitted for a metric family. A nil registry
// ignores the call.
func (r *Registry) Help(name, text string) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.help[name] = text
	r.mu.Unlock()
}

// Counter returns (creating on first use) the counter with the given
// name and labels.
func (r *Registry) Counter(name string, labels ...Label) *Counter {
	if r == nil {
		return nil
	}
	s := series{name: name, labels: renderLabels(labels), kind: "counter"}
	id := s.id()
	r.mu.Lock()
	defer r.mu.Unlock()
	c, ok := r.counters[id]
	if !ok {
		c = &Counter{}
		r.counters[id] = c
		r.info[id] = s
	}
	return c
}

// Gauge returns (creating on first use) the gauge with the given name
// and labels.
func (r *Registry) Gauge(name string, labels ...Label) *Gauge {
	if r == nil {
		return nil
	}
	s := series{name: name, labels: renderLabels(labels), kind: "gauge"}
	id := s.id()
	r.mu.Lock()
	defer r.mu.Unlock()
	g, ok := r.gauges[id]
	if !ok {
		g = &Gauge{}
		r.gauges[id] = g
		r.info[id] = s
	}
	return g
}

// Sketch returns (creating on first use) the quantile sketch with the
// given name and labels. Sketches render as Prometheus summaries (one
// line per SketchQuantiles entry plus _sum and _count).
func (r *Registry) Sketch(name string, labels ...Label) *QuantileSketch {
	if r == nil {
		return nil
	}
	s := series{name: name, labels: renderLabels(labels), kind: "summary"}
	id := s.id()
	r.mu.Lock()
	defer r.mu.Unlock()
	sk, ok := r.sketches[id]
	if !ok {
		sk = NewQuantileSketch()
		r.sketches[id] = sk
		r.info[id] = s
	}
	return sk
}

// familyOf strips the label set from a series id: `name{labels}` -> name.
func familyOf(id string) string {
	if i := strings.IndexByte(id, '{'); i >= 0 {
		return id[:i]
	}
	return id
}

// Snapshot captures every metric's current value, keyed by series id
// (`name{labels}`).
type Snapshot struct {
	Counters map[string]uint64
	Gauges   map[string]float64
	Sketches map[string]SketchSnapshot
}

// Snapshot reads all metrics at once.
func (r *Registry) Snapshot() *Snapshot {
	s := &Snapshot{
		Counters: make(map[string]uint64),
		Gauges:   make(map[string]float64),
		Sketches: make(map[string]SketchSnapshot),
	}
	if r == nil {
		return s
	}
	r.mu.Lock()
	counters := make(map[string]*Counter, len(r.counters))
	for id, c := range r.counters {
		counters[id] = c
	}
	gauges := make(map[string]*Gauge, len(r.gauges))
	for id, g := range r.gauges {
		gauges[id] = g
	}
	sketches := make(map[string]*QuantileSketch, len(r.sketches))
	for id, sk := range r.sketches {
		sketches[id] = sk
	}
	r.mu.Unlock()
	for id, c := range counters {
		s.Counters[id] = c.Value()
	}
	for id, g := range gauges {
		s.Gauges[id] = g.Value()
	}
	for id, sk := range sketches {
		s.Sketches[id] = sk.Snapshot()
	}
	return s
}

// MergedSketch merges every sketch of the given family (the metric name,
// label sets ignored) into one queryable snapshot — the cross-shard /
// cross-chain view of a latency distribution. The second return is false
// when the family has no sketches.
func (s *Snapshot) MergedSketch(family string) (SketchSnapshot, bool) {
	var parts []SketchSnapshot
	for id, sk := range s.Sketches {
		if familyOf(id) == family {
			parts = append(parts, sk)
		}
	}
	switch len(parts) {
	case 0:
		return SketchSnapshot{}, false
	case 1:
		// A snapshot is already the merge of itself; skip the full-layout
		// scratch sketch.
		return parts[0], true
	}
	merged := NewQuantileSketch()
	for _, sk := range parts {
		// Same package-default layout everywhere; a mismatch is impossible
		// for registry-created sketches.
		_ = merged.MergeSnapshot(sk)
	}
	return merged.Snapshot(), true
}

// WriteText renders the registry in the Prometheus text exposition
// format, sorted by metric name then label set, with one `# TYPE` line
// per family.
func (r *Registry) WriteText(w io.Writer) error {
	if r == nil {
		return nil
	}
	snap := r.Snapshot()
	r.mu.Lock()
	info := make(map[string]series, len(r.info))
	for id, s := range r.info {
		info[id] = s
	}
	help := make(map[string]string, len(r.help))
	for name, text := range r.help {
		help[name] = text
	}
	r.mu.Unlock()

	type line struct {
		name   string
		labels string
		kind   string
		id     string
	}
	lines := make([]line, 0, len(info))
	for id, s := range info {
		lines = append(lines, line{name: s.name, labels: s.labels, kind: s.kind, id: id})
	}
	sort.Slice(lines, func(i, j int) bool {
		if lines[i].name != lines[j].name {
			return lines[i].name < lines[j].name
		}
		return lines[i].labels < lines[j].labels
	})

	lastFamily := ""
	for _, ln := range lines {
		if ln.name != lastFamily {
			if text, ok := help[ln.name]; ok {
				if _, err := fmt.Fprintf(w, "# HELP %s %s\n", ln.name, helpEscaper.Replace(text)); err != nil {
					return err
				}
			}
			if _, err := fmt.Fprintf(w, "# TYPE %s %s\n", ln.name, ln.kind); err != nil {
				return err
			}
			lastFamily = ln.name
		}
		switch ln.kind {
		case "counter":
			if _, err := fmt.Fprintf(w, "%s %d\n", ln.id, snap.Counters[ln.id]); err != nil {
				return err
			}
		case "gauge":
			if _, err := fmt.Fprintf(w, "%s %s\n", ln.id, formatFloat(snap.Gauges[ln.id])); err != nil {
				return err
			}
		case "summary":
			if err := writeSummaryText(w, ln.name, ln.labels, snap.Sketches[ln.id]); err != nil {
				return err
			}
		}
	}
	return nil
}

// writeSummaryText renders one quantile sketch as a Prometheus summary:
// one line per SketchQuantiles entry plus _sum and _count.
func writeSummaryText(w io.Writer, name, labels string, s SketchSnapshot) error {
	for _, q := range SketchQuantiles {
		v := s.Quantile(q)
		if s.Count == 0 {
			v = math.NaN()
		}
		if _, err := fmt.Fprintf(w, "%s{%s} %s\n", name,
			joinLabels(labels, `quantile="`+quantileLabel(q)+`"`), formatFloat(v)); err != nil {
			return err
		}
	}
	sum := series{name: name + "_sum", labels: labels}
	count := series{name: name + "_count", labels: labels}
	if _, err := fmt.Fprintf(w, "%s %s\n", sum.id(), formatFloat(s.Sum())); err != nil {
		return err
	}
	_, err := fmt.Fprintf(w, "%s %d\n", count.id(), s.Count)
	return err
}

func joinLabels(labels, extra string) string {
	if labels == "" {
		return extra
	}
	return labels + "," + extra
}

func formatFloat(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

// Text renders WriteText into a string.
func (r *Registry) Text() string {
	var sb strings.Builder
	_ = r.WriteText(&sb)
	return sb.String()
}
