// Command perfbench is the pinned performance benchmark of the PoL system.
//
// It runs one named workload against the public APIs of the chain
// backends, the state layer and the PoL actors, checks that every output
// is correct, and prints the workload's metrics: a table for people, then
// one JSON object as the last line of standard output. With -trace 1 it
// instead times each call into a layer from the benchmark's own code and
// reports per-layer numbers, and writes the spans as chrome://tracing
// JSON. See README.md for the workloads and metrics.
//
//	go run . -workload soak-evm -seed 1 -seconds 10 -trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"

	"agnopol/internal/obs"
)

// defaultSeed is the seed the pinned digests were recorded at.
const defaultSeed = 1

// maxPrinted bounds the failures echoed to standard error.
const maxPrinted = 20

// maxRunWall bounds one invocation's total wall time, so a slow host still
// exits well inside the harness's per-run limit.
const maxRunWall = 120 * time.Second

type metricDef struct {
	name, unit, better string
	// asSoak and asPol are what this value is called on the soaks and on
	// pol-cycle (round_ms_p50, pol_cycle_ms_p50, ...), where that differs.
	asSoak, asPol string
}

// endToEnd are the metrics every workload reports with -trace 0, in
// BENCHMARK.json order.
var endToEnd = []metricDef{
	{name: "tps", unit: "1/s", better: "higher"},
	{name: "latency_ms_p50", unit: "ms", better: "lower", asSoak: "round_ms_p50", asPol: "pol_cycle_ms_p50"},
	{name: "latency_ms_tail", unit: "ms", better: "lower", asSoak: "round_ms_tail", asPol: "pol_cycle_ms_tail"},
	{name: "client_us_per_tx", unit: "us", better: "lower"},
	{name: "setup_s", unit: "s", better: "lower"},
	{name: "reopen_s", unit: "s", better: "lower"},
	{name: "live_heap_mb", unit: "MB", better: "lower"},
}

// perLayer are the metrics every workload reports with -trace 1, in
// BENCHMARK.json order. The full per-layer breakdown, including layers
// only some workloads touch, goes to the record file.
var perLayer = []metricDef{
	{name: "client.ns_per_tx", unit: "ns", better: "lower"},
	{name: "chain.ns_per_tx", unit: "ns", better: "lower"},
	{name: "chain.txs_per_block", unit: "count", better: "higher"},
	{name: "chain.empty_step_us", unit: "us", better: "lower"},
	{name: "go.alloc_bytes_per_tx", unit: "bytes", better: "lower"},
	{name: "go.mallocs_per_tx", unit: "count", better: "lower"},
	{name: "go.gc_pause_ms", unit: "ms", better: "lower"},
	{name: "trace.overhead_ratio", unit: "ratio", better: "lower"},
}

// env is what a workload repeat receives: the seed, the scale and a
// scratch directory of its own.
type env struct {
	seed  uint64
	smoke bool
	dir   string
}

// workload is one named benchmark workload.
type workload struct {
	name, why string
	pol       bool // a PoL-cycle workload rather than a soak
	// tailPct is fixed per workload: the highest percentile that leaves
	// ten samples beyond it at minRepeats repeats, so the tail names the
	// same percentile in every record.
	tailPct float64
	// minRepeats guarantees those samples even on a fast host.
	minRepeats int
	run        func(e env, sc *obs.Scope) *repeat
}

func workloads() []*workload {
	return []*workload{soakEVM, soakAVM, soakEVMDurable, polCycle}
}

func findWorkload(name string) *workload {
	for _, w := range workloads() {
		if w.name == name {
			return w
		}
	}
	return nil
}

// repeat is what one execution of a workload at a fixed seed yields.
type repeat struct {
	traced, warmup bool

	setup  time.Duration
	window time.Duration // summed timed windows
	// included counts the honest transactions the window put on-chain.
	included  int
	latencies []time.Duration // per round (soaks) or per prover cycle
	client    time.Duration   // client-side work
	reopen    time.Duration
	heapBytes uint64
	cycles    int // accepted PoL cycles

	attempted              int // honest operations
	forged, forgedRejected int

	// fingerprint holds the digests, roots and simulated summaries that
	// must match across repeats and, at the default seed, the pins.
	fingerprint map[string]string
	// failures holds one line per failed operation or check.
	failures []string

	// Traced repeats only.
	mem        memDelta
	blocks     int
	emptySteps map[string][]time.Duration // idle Step times per backend
	layers     map[string]float64         // layer numbers not derived from spans
}

func newRepeat() *repeat {
	return &repeat{
		fingerprint: map[string]string{},
		emptySteps:  map[string][]time.Duration{},
		layers:      map[string]float64{},
	}
}

func (r *repeat) fail(format string, args ...any) {
	r.failures = append(r.failures, fmt.Sprintf(format, args...))
}

// memDelta accumulates runtime.MemStats deltas over timed windows.
type memDelta struct {
	allocBytes, mallocs, pauseNs uint64
}

func readMem() *runtime.MemStats {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return &m
}

func (d *memDelta) add(from *runtime.MemStats) {
	to := readMem()
	d.allocBytes += to.TotalAlloc - from.TotalAlloc
	d.mallocs += to.Mallocs - from.Mallocs
	d.pauseNs += to.PauseTotalNs - from.PauseTotalNs
}

// liveHeap forces a collection and reads the live heap; the caller keeps
// the measured structures reachable past the call.
func liveHeap() uint64 {
	runtime.GC()
	return readMem().HeapAlloc
}

type config struct {
	workload *workload
	seed     uint64
	seconds  float64
	trace    bool
	smoke    bool
	outDir   string
	// pins overrides the pinned fingerprints; nil uses the built-in table.
	pins map[string]map[string]string
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is one invocation's outcome.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`

	record *record
}

// record is the full account of a run, written to the output directory.
type record struct {
	Workload       string          `json:"workload"`
	Why            string          `json:"why"`
	Seed           uint64          `json:"seed"`
	Trace          bool            `json:"trace"`
	Smoke          bool            `json:"smoke"`
	NumCPU         int             `json:"num_cpu"`
	GOMAXPROCS     int             `json:"gomaxprocs"`
	GoVersion      string          `json:"go_version"`
	Repeats        []repeatSummary `json:"repeats"`
	TracedRepeats  int             `json:"traced_repeats"`
	TailPercentile float64         `json:"tail_percentile"`
	LatencySamples int             `json:"latency_samples"`
	TailBeyond     int             `json:"tail_beyond"` // samples above the tail

	Forged         int                `json:"forged"`
	ForgedRejected int                `json:"forged_rejected"`
	Metrics        []recordMetric     `json:"metrics"`
	Layers         map[string]float64 `json:"layers,omitempty"`
	SelfMs         map[string]float64 `json:"self_ms,omitempty"`
	ChromeTrace    string             `json:"chrome_trace,omitempty"`
	Fingerprint    map[string]string  `json:"fingerprint"`
	PinsChecked    bool               `json:"pins_checked"`
	Failures       []string           `json:"failures,omitempty"`
}

// repeatSummary is one repeat's line in the record.
type repeatSummary struct {
	Traced  bool    `json:"traced"`
	Warmup  bool    `json:"warmup"`
	SetupS  float64 `json:"setup_s"`
	WindowS float64 `json:"window_s"`
	TPS     float64 `json:"tps"`
	P50Ms   float64 `json:"latency_ms_p50"`
	TailMs  float64 `json:"latency_ms_tail"`
	ReopenS float64 `json:"reopen_s"`
}

type recordMetric struct {
	Name   string  `json:"name"`
	As     string  `json:"as,omitempty"`
	Value  float64 `json:"value"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run: "+strings.Join(workloadNames(), ", ")+", or all")
	seed := fs.Uint64("seed", defaultSeed, "workload seed; pinned digests are checked only at the default")
	seconds := fs.Float64("seconds", 10, "timed-window budget of the run, in seconds")
	trace := fs.Int("trace", 0, "1 times each layer and reports per-layer metrics")
	smoke := fs.Bool("smoke", false, "run at smoke scale (for tests; no pins)")
	out := fs.String("out", ".bench_out", "directory for the run record and chrome trace")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() != 0 || (*trace != 0 && *trace != 1) || *seconds <= 0 {
		fs.Usage()
		return 2
	}
	var ws []*workload
	if *name == "all" {
		ws = workloads()
	} else if w := findWorkload(*name); w != nil {
		ws = []*workload{w}
	} else {
		fmt.Fprintf(stderr, "perfbench: unknown workload %q\n", *name)
		fs.Usage()
		return 2
	}
	code := 0
	for _, w := range ws {
		res, err := runWorkload(config{
			workload: w, seed: *seed, seconds: *seconds, trace: *trace == 1,
			smoke: *smoke, outDir: *out,
		})
		if err != nil {
			fmt.Fprintf(stderr, "perfbench: %s: %v\n", w.name, err)
			return 1
		}
		printTable(stdout, res)
		line, err := json.Marshal(res)
		if err != nil {
			fmt.Fprintf(stderr, "perfbench: %v\n", err)
			return 1
		}
		fmt.Fprintln(stdout, string(line))
		if !res.Correct {
			for i, f := range res.record.Failures {
				if i == maxPrinted {
					fmt.Fprintf(stderr, "perfbench: %s: ... %d more in the record\n", w.name, len(res.record.Failures)-i)
					break
				}
				fmt.Fprintf(stderr, "perfbench: %s: FAIL %s\n", w.name, f)
			}
			code = 1
		}
	}
	return code
}

func workloadNames() []string {
	var names []string
	for _, w := range workloads() {
		names = append(names, w.name)
	}
	return names
}

// runWorkload repeats the workload until the timed windows add up to the
// budget (and at least minRepeats times), then checks and summarises.
// With tracing on, untraced and traced repeats alternate, so the tracing
// overhead and the traced-vs-untraced identity come from one process.
func runWorkload(cfg config) (*result, error) {
	w := cfg.workload
	if err := os.MkdirAll(cfg.outDir, 0o755); err != nil {
		return nil, err
	}
	scratch, err := os.MkdirTemp(cfg.outDir, "state-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(scratch)

	var tracer *obs.Tracer
	if cfg.trace {
		tracer = obs.NewTracer(1 << 20)
	}
	minReps := w.minRepeats
	if cfg.trace && minReps < 2 {
		minReps = 2
	}
	budget := time.Duration(cfg.seconds * float64(time.Second))
	start := time.Now()
	var reps []*repeat
	var window time.Duration
	// Repeat 0 warms the process up (heap growth, lazily built tables,
	// caches): it is checked like every repeat but measures nothing.
	for i := 0; i <= minReps || (window < budget && time.Since(start) < maxRunWall); i++ {
		traced := cfg.trace && i%2 == 0 && i > 0
		var sc *obs.Scope
		if traced {
			sc = tracer.NewScope(nil)
		}
		dir := filepath.Join(scratch, fmt.Sprintf("r%d", i))
		r := w.run(env{seed: cfg.seed, smoke: cfg.smoke, dir: dir}, sc)
		r.traced, r.warmup = traced, i == 0
		reps = append(reps, r)
		if !r.warmup {
			window += r.window
		}
		if len(r.failures) > 0 {
			break // a broken repeat would not add to the window
		}
	}
	return summarize(cfg, reps, tracer)
}

func summarize(cfg config, reps []*repeat, tracer *obs.Tracer) (*result, error) {
	w := cfg.workload
	rec := &record{
		Workload: w.name, Why: w.why, Seed: cfg.seed, Trace: cfg.trace, Smoke: cfg.smoke,
		NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(),
		TailPercentile: w.tailPct,
		Fingerprint:    reps[0].fingerprint,
	}
	res := &result{Metrics: map[string]metricValue{}, record: rec}

	// Correctness: every repeat's own checks, identical fingerprints
	// across repeats (traced and untraced alike), and the pins.
	for i, r := range reps {
		res.Attempted += r.attempted
		rec.Forged += r.forged
		rec.ForgedRejected += r.forgedRejected
		for _, f := range r.failures {
			rec.Failures = append(rec.Failures, fmt.Sprintf("repeat %d: %s", i, f))
		}
		if r.traced {
			rec.TracedRepeats++
		}
		for _, k := range sortedKeys(reps[0].fingerprint) {
			if r.fingerprint[k] != reps[0].fingerprint[k] {
				rec.Failures = append(rec.Failures, fmt.Sprintf(
					"repeat %d (traced=%v): %s = %s, repeat 0 had %s", i, r.traced, k, r.fingerprint[k], reps[0].fingerprint[k]))
			}
		}
	}
	pins := cfg.pins
	if pins == nil {
		pins = pinned
	}
	if want, ok := pins[w.name]; ok && cfg.seed == defaultSeed && (!cfg.smoke || cfg.pins != nil) {
		rec.PinsChecked = true
		for _, k := range sortedKeys(want) {
			if got := reps[0].fingerprint[k]; got != want[k] {
				rec.Failures = append(rec.Failures, fmt.Sprintf("pinned %s: got %s, want %s", k, got, want[k]))
			}
		}
	}
	if rec.ForgedRejected != rec.Forged {
		rec.Failures = append(rec.Failures, fmt.Sprintf("admission accepted %d of %d forged transactions",
			rec.Forged-rec.ForgedRejected, rec.Forged))
	}
	res.Failed = len(rec.Failures)
	if res.Attempted < 1 {
		res.Attempted = 1
	}
	res.Correct = len(rec.Failures) == 0

	// End-to-end numbers come from the measured untraced repeats: rates
	// over their summed windows, the rest as medians or pooled quantiles.
	var setup, reopen, heap []float64
	var lat []time.Duration
	var window, client time.Duration
	var included, cycles int
	for _, r := range reps {
		secs := r.window.Seconds()
		repLat := durationsMs(r.latencies)
		rec.Repeats = append(rec.Repeats, repeatSummary{
			Traced: r.traced, Warmup: r.warmup, SetupS: r.setup.Seconds(), WindowS: secs,
			TPS: ratio(float64(r.included), secs), ReopenS: r.reopen.Seconds(),
			P50Ms: quantile(repLat, 0.5), TailMs: quantile(repLat, w.tailPct/100),
		})
		if r.traced || r.warmup {
			continue
		}
		window += r.window
		client += r.client
		included += r.included
		cycles += r.cycles
		setup = append(setup, r.setup.Seconds())
		reopen = append(reopen, r.reopen.Seconds())
		heap = append(heap, float64(r.heapBytes)/(1<<20))
		lat = append(lat, r.latencies...)
	}
	rec.LatencySamples = len(lat)
	latMs := durationsMs(lat)
	tail := quantile(latMs, w.tailPct/100)
	for _, v := range latMs {
		if v > tail {
			rec.TailBeyond++
		}
	}
	e2e := map[string]float64{
		"tps":              ratio(float64(included), window.Seconds()),
		"latency_ms_p50":   quantile(latMs, 0.5),
		"latency_ms_tail":  tail,
		"client_us_per_tx": ratio(float64(client.Nanoseconds())/1e3, float64(included)),
		"setup_s":          median(setup),
		"reopen_s":         median(reopen),
		"live_heap_mb":     median(heap),
	}
	for _, m := range endToEnd {
		as := m.asSoak
		if w.pol {
			as = m.asPol
		}
		rec.Metrics = append(rec.Metrics, recordMetric{Name: m.name, As: as, Value: e2e[m.name], Unit: m.unit, Better: m.better})
	}
	rec.Metrics = append(rec.Metrics, recordMetric{Name: "fail_frac", Value: ratio(float64(res.Failed), float64(res.Attempted)), Unit: "ratio", Better: "lower"})
	if w.pol {
		rec.Metrics = append(rec.Metrics, recordMetric{Name: "pol_cycles_per_s", Value: ratio(float64(cycles), window.Seconds()), Unit: "1/s", Better: "higher"})
	}

	if !cfg.trace {
		for _, m := range endToEnd {
			res.Metrics[m.name] = metricValue{Value: e2e[m.name], Unit: m.unit}
		}
	} else {
		layers, self := layerMetrics(w, reps, tracer)
		rec.Layers, rec.SelfMs = layers, self
		for _, m := range perLayer {
			res.Metrics[m.name] = metricValue{Value: layers[m.name], Unit: m.unit}
		}
		if n := tracer.Dropped(); n > 0 {
			return nil, fmt.Errorf("tracer dropped %d spans; raise its capacity", n)
		}
		path := filepath.Join(cfg.outDir, fmt.Sprintf("%s-seed%d.trace.json", w.name, cfg.seed))
		if err := writeFile(path, tracer.WriteChromeTrace); err != nil {
			return nil, err
		}
		rec.ChromeTrace = path
	}
	path := filepath.Join(cfg.outDir, fmt.Sprintf("%s-seed%d-trace%d.json", w.name, cfg.seed, boolInt(cfg.trace)))
	err := writeFile(path, func(f io.Writer) error {
		enc := json.NewEncoder(f)
		enc.SetIndent("", "  ")
		return enc.Encode(rec)
	})
	return res, err
}

func writeFile(path string, fill func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := fill(f); err != nil {
		f.Close()
		return fmt.Errorf("write %s: %w", path, err)
	}
	return f.Close()
}

// ratio is a/b, or 0 when nothing was measured (a failed repeat).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func boolInt(b bool) int {
	if b {
		return 1
	}
	return 0
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

func printTable(out io.Writer, res *result) {
	rec := res.record
	fmt.Fprintf(out, "perfbench workload=%s seed=%d trace=%v num_cpu=%d gomaxprocs=%d go_version=%s repeats=%d (traced %d)\n",
		rec.Workload, rec.Seed, rec.Trace, rec.NumCPU, rec.GOMAXPROCS, rec.GoVersion, len(rec.Repeats), rec.TracedRepeats)
	fmt.Fprintf(out, "  latency samples=%d tail=p%g (%d beyond) forged=%d rejected=%d pins_checked=%v correct=%v\n",
		rec.LatencySamples, rec.TailPercentile, rec.TailBeyond, rec.Forged, rec.ForgedRejected, rec.PinsChecked, res.Correct)
	fmt.Fprintf(out, "  %-22s %16s %-6s %-7s %s\n", "metric", "value", "unit", "better", "as")
	for _, m := range rec.Metrics {
		fmt.Fprintf(out, "  %-22s %16.6g %-6s %-7s %s\n", m.Name, m.Value, m.Unit, m.Better, m.As)
	}
	if rec.Trace {
		fmt.Fprintf(out, "  per-layer (traced repeats; spans in %s)\n", rec.ChromeTrace)
		for _, k := range sortedKeys(rec.Layers) {
			fmt.Fprintf(out, "  %-32s %16.6g\n", k, rec.Layers[k])
		}
		for _, k := range sortedKeys(rec.SelfMs) {
			fmt.Fprintf(out, "  self_ms %-24s %16.6g\n", k, rec.SelfMs[k])
		}
	}
}
