package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

func smokeConfig(t *testing.T, w *workload, trace bool) config {
	return config{workload: w, seed: defaultSeed, seconds: 0.01, trace: trace, smoke: true, outDir: t.TempDir()}
}

// Every workload passes its own checks at smoke scale, and reports every
// end-to-end metric of BENCHMARK.json as a positive number.
func TestSmokeWorkloads(t *testing.T) {
	for _, w := range workloads() {
		t.Run(w.name, func(t *testing.T) {
			res, err := runWorkload(smokeConfig(t, w, false))
			if err != nil {
				t.Fatal(err)
			}
			if !res.Correct || res.Failed != 0 {
				t.Fatalf("correct=%v failed=%d: %v", res.Correct, res.Failed, res.record.Failures)
			}
			for _, m := range endToEnd {
				if v, ok := res.Metrics[m.name]; !ok || !(v.Value > 0) {
					t.Errorf("%s = %+v, want a positive value", m.name, v)
				}
			}
			if !w.pol && res.record.Forged == 0 {
				t.Error("soak submitted no forged transactions")
			}
		})
	}
}

// The traced run reports every per-layer metric, writes a parseable chrome
// trace and reproduces the untraced repeats' fingerprints (a mismatch
// would fail the run).
func TestSmokeTraced(t *testing.T) {
	for _, w := range workloads() {
		t.Run(w.name, func(t *testing.T) {
			res, err := runWorkload(smokeConfig(t, w, true))
			if err != nil {
				t.Fatal(err)
			}
			if !res.Correct {
				t.Fatalf("traced run failed: %v", res.record.Failures)
			}
			if res.record.TracedRepeats == 0 || res.record.TracedRepeats == len(res.record.Repeats) {
				t.Fatalf("want both traced and untraced repeats, got %d of %d traced",
					res.record.TracedRepeats, len(res.record.Repeats))
			}
			for _, m := range perLayer {
				if _, ok := res.Metrics[m.name]; !ok {
					t.Errorf("per-layer metric %s missing", m.name)
				}
			}
			blob, err := os.ReadFile(res.record.ChromeTrace)
			if err != nil {
				t.Fatal(err)
			}
			var trace struct {
				TraceEvents []map[string]any `json:"traceEvents"`
			}
			if err := json.Unmarshal(blob, &trace); err != nil || len(trace.TraceEvents) == 0 {
				t.Fatalf("chrome trace unreadable or empty: %v", err)
			}
		})
	}
}

// A deliberately wrong pinned digest fails the run, and the right one
// passes: the pin check is armed.
func TestPinnedDigestIsChecked(t *testing.T) {
	cfg := smokeConfig(t, soakEVM, false)
	first, err := runWorkload(cfg)
	if err != nil {
		t.Fatal(err)
	}
	good := first.record.Fingerprint["digest"]
	if len(good) != 64 {
		t.Fatalf("digest %q is not 32 hex bytes", good)
	}

	cfg.pins = map[string]map[string]string{soakEVM.name: {"digest": good}}
	res, err := runWorkload(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Correct || !res.record.PinsChecked {
		t.Fatalf("right pin: correct=%v checked=%v %v", res.Correct, res.record.PinsChecked, res.record.Failures)
	}

	cfg.pins = map[string]map[string]string{soakEVM.name: {"digest": strings.Repeat("0", 64)}}
	res, err = runWorkload(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Correct || res.Failed == 0 {
		t.Fatal("a wrong pinned digest passed")
	}
}

// Pins apply only at the default seed; another seed still runs every
// invariant but skips them.
func TestPinsSkippedOnOtherSeeds(t *testing.T) {
	cfg := smokeConfig(t, soakEVM, false)
	cfg.seed = 7
	cfg.pins = map[string]map[string]string{soakEVM.name: {"digest": strings.Repeat("0", 64)}}
	res, err := runWorkload(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Correct || res.record.PinsChecked {
		t.Fatalf("correct=%v pins_checked=%v", res.Correct, res.record.PinsChecked)
	}
}

func syntheticRepeat(fp string) *repeat {
	r := newRepeat()
	r.window, r.included, r.attempted = time.Second, 10, 10
	r.latencies = []time.Duration{time.Millisecond}
	r.fingerprint["digest"] = fp
	return r
}

// An admitted forgery fails the run even when everything else is right.
func TestAcceptedForgeryFails(t *testing.T) {
	r := syntheticRepeat("aa")
	checkAdmission(r, 0, []error{errors.New("bad signature"), nil, nil, nil}, 2)
	if r.forged != 2 || r.forgedRejected != 1 || len(r.failures) != 0 {
		t.Fatalf("forged=%d rejected=%d failures=%v", r.forged, r.forgedRejected, r.failures)
	}
	res, err := summarize(config{workload: soakEVM, seed: 9, outDir: t.TempDir()}, []*repeat{r}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Correct || res.Failed == 0 {
		t.Fatal("an accepted forgery passed")
	}
}

// Repeats (traced or not) that disagree on a fingerprint fail the run.
func TestRepeatMismatchFails(t *testing.T) {
	reps := []*repeat{syntheticRepeat("aa"), syntheticRepeat("bb")}
	res, err := summarize(config{workload: soakEVM, seed: 9, outDir: t.TempDir()}, reps, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Correct {
		t.Fatal("diverging repeats passed")
	}
}

// BENCHMARK.json lists exactly the workloads and metrics the command
// reports.
func TestBenchmarkJSONMatchesCommand(t *testing.T) {
	blob, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name, Why string } `json:"workloads"`
		EndToEnd  []struct {
			Name, Unit, Better string
		} `json:"end_to_end"`
		PerLayer []struct {
			Name, Unit, Better string
		} `json:"per_layer"`
	}
	if err := json.Unmarshal(blob, &spec); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
		if cw := findWorkload(w.Name); cw != nil && cw.why != w.Why {
			t.Errorf("%s: why %q, command has %q", w.Name, w.Why, cw.why)
		}
	}
	if got, want := strings.Join(names, ","), strings.Join(workloadNames(), ","); got != want {
		t.Errorf("workloads %s, command has %s", got, want)
	}
	check := func(kind string, got []struct{ Name, Unit, Better string }, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("%s: %d metrics in BENCHMARK.json, command has %d", kind, len(got), len(want))
		}
		for i, m := range want {
			if got[i].Name != m.name || got[i].Unit != m.unit || got[i].Better != m.better {
				t.Errorf("%s[%d] = %+v, command has %+v", kind, i, got[i], m)
			}
		}
	}
	check("end_to_end", spec.EndToEnd, endToEnd)
	check("per_layer", spec.PerLayer, perLayer)
}

// The command's last line is the result object with exactly its four keys.
func TestCommandLastLine(t *testing.T) {
	var out, errOut bytes.Buffer
	code := run([]string{"-workload", "soak-avm", "-smoke", "-seconds", "0.01", "-out", t.TempDir()}, &out, &errOut)
	if code != 0 {
		t.Fatalf("exit %d: %s", code, errOut.String())
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var last map[string]json.RawMessage
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &last); err != nil {
		t.Fatal(err)
	}
	for _, k := range []string{"correct", "attempted", "failed", "metrics"} {
		if _, ok := last[k]; !ok {
			t.Errorf("key %s missing", k)
		}
	}
	if len(last) != 4 {
		t.Errorf("last line has %d keys, want 4", len(last))
	}
	if code := run([]string{"-workload", "nope"}, &out, &errOut); code != 2 {
		t.Errorf("unknown workload exit %d, want 2", code)
	}
}
