package sim

import (
	"encoding/json"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"regexp"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"testing"

	"agnopol/internal/faults"
	"agnopol/internal/obs"
)

func scrape(t *testing.T, url string) (int, string) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("GET %s: read: %v", url, err)
	}
	return resp.StatusCode, string(body)
}

var includedRe = regexp.MustCompile(`(?m)^eth_txs_included_total\{[^}]*\} (\d+)$`)

// TestSoakServeLiveEndpoints runs a soak with the telemetry server
// attached and scrapes it from an in-test HTTP client while the soak is
// still executing: /metrics must show the inclusion counter climbing
// across scrapes (not just a final value), /timeseries must accumulate
// points, and /health must answer 200 on a healthy run.
func TestSoakServeLiveEndpoints(t *testing.T) {
	o := obs.New()
	tel := obs.NewTelemetry(o, 0, DefaultSLORules())
	srv, err := obs.Serve("127.0.0.1:0", tel)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	base := "http://" + srv.Addr()

	done := make(chan error, 1)
	go func() {
		_, err := RunSoak(SoakSpec{
			Chain: ChainGoerli, Areas: 8, Users: 32, Rounds: 600,
			Shards: 2, Seed: 7, Obs: o, Telemetry: tel,
		})
		done <- err
	}()

	// Scrape continuously until the soak exits, collecting the distinct
	// values the inclusion counter exposed.
	seen := map[uint64]bool{}
	running := true
	for running {
		select {
		case err := <-done:
			if err != nil {
				t.Fatal(err)
			}
			running = false
		default:
			_, body := scrape(t, base+"/metrics")
			if m := includedRe.FindStringSubmatch(body); m != nil {
				v, _ := strconv.ParseUint(m[1], 10, 64)
				seen[v] = true
			}
		}
	}
	_, body := scrape(t, base+"/metrics")
	if m := includedRe.FindStringSubmatch(body); m != nil {
		v, _ := strconv.ParseUint(m[1], 10, 64)
		seen[v] = true
	}
	if len(seen) < 3 {
		t.Fatalf("mid-run /metrics scrapes saw only %d distinct inclusion counts %v — endpoint is not live", len(seen), seen)
	}

	code, body := scrape(t, base+"/timeseries")
	if code != 200 {
		t.Fatalf("/timeseries: %d", code)
	}
	var ts struct {
		Samples uint64 `json:"samples"`
		Series  []struct {
			ID     string            `json:"id"`
			Points []json.RawMessage `json:"points"`
		} `json:"series"`
	}
	if err := json.Unmarshal([]byte(body), &ts); err != nil {
		t.Fatalf("/timeseries JSON: %v", err)
	}
	if ts.Samples < 2 {
		t.Fatalf("/timeseries samples = %d, want one per round", ts.Samples)
	}
	multi := false
	for _, s := range ts.Series {
		if len(s.Points) >= 2 {
			multi = true
			break
		}
	}
	if !multi {
		t.Fatal("/timeseries has no series with two or more points")
	}

	code, body = scrape(t, base+"/health")
	if code != 200 {
		t.Fatalf("/health on a healthy soak: %d\n%s", code, body)
	}
	code, _ = scrape(t, base+"/trace")
	if code != 200 {
		t.Fatalf("/trace: %d", code)
	}
}

// TestDefaultSLORulesEvaluateOnSoak runs a short monitored soak on each
// chain family and requires every rate and quantile rule watching that
// family to have evaluated by the end. A rule whose Series names no
// registered family never evaluates and so never fires; this catches it.
func TestDefaultSLORulesEvaluateOnSoak(t *testing.T) {
	for _, tc := range []struct {
		chain  ChainName
		prefix string
		want   int
	}{
		{ChainGoerli, "eth_", 2},
		{ChainAlgorand, "algorand_", 3},
	} {
		t.Run(string(tc.chain), func(t *testing.T) {
			o := obs.New()
			tel := obs.NewTelemetry(o, 0, DefaultSLORules())
			if _, err := RunSoak(SoakSpec{
				Chain: tc.chain, Areas: 4, Users: 16, Rounds: 8,
				Shards: 2, Seed: 7, Obs: o, Telemetry: tel,
			}); err != nil {
				t.Fatal(err)
			}
			checked := 0
			for _, ev := range tel.Health.Report().Rules {
				switch ev.Rule.Kind {
				case obs.RuleRateMin, obs.RuleRateMax, obs.RuleQuantileMax:
				default:
					continue
				}
				if !strings.HasPrefix(ev.Rule.Series, tc.prefix) {
					continue
				}
				checked++
				if !ev.Evaluated {
					t.Errorf("rule %s on %s never evaluated", ev.Rule.Name, ev.Rule.Series)
				}
			}
			if checked != tc.want {
				t.Errorf("checked %d %s* rate/quantile rules, want %d", checked, tc.prefix, tc.want)
			}
		})
	}
}

// TestFaultStormTripsSLO is the flight-recorder acceptance path: a matrix
// run under a heavy fault plan must trip an SLO rule, flip the health
// verdict, and produce a HEALTH_report.json bundle carrying the breaching
// series' recent deltas and the tracer's recent spans.
func TestFaultStormTripsSLO(t *testing.T) {
	// 0.3 keeps every class firing constantly while staying inside what
	// the 8-attempt submission pipeline can absorb (0.3^8 ≈ 7e-5 residual
	// failure per submission).
	plan, err := faults.Profile("default", 0.3)
	if err != nil {
		t.Fatal(err)
	}
	o := obs.New()
	// A recovery floor above 1 cannot be met once any fault fires, so the
	// storm deterministically breaches on the first evaluated sample.
	tel := obs.NewTelemetry(o, 0, []obs.Rule{{
		Name: "fault_recovery_floor", Kind: obs.RuleRatioMin,
		Series: "faults_recovered_total", Denominator: "faults_injected_total",
		Threshold: 1.1, Grace: 0,
	}})
	_, err = RunMatrix(MatrixSpec{
		Cells: []Cell{{Chain: ChainGoerli, Users: 8}},
		Reps:  3, Seed: 7, Parallel: 1,
		Faults: plan, Verify: true, Telemetry: tel,
	}, o)
	if err != nil {
		t.Fatal(err)
	}
	if tel.Health.Healthy() {
		t.Fatal("fault storm did not trip the SLO rule")
	}

	path := filepath.Join(t.TempDir(), "HEALTH_report.json")
	if err := tel.Health.WriteReportFile(path); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var rep obs.HealthReport
	if err := json.Unmarshal(data, &rep); err != nil {
		t.Fatalf("HEALTH_report.json: %v", err)
	}
	if rep.Healthy || rep.TotalBreaches == 0 || len(rep.Anomalies) == 0 {
		t.Fatalf("report = healthy=%v breaches=%d anomalies=%d, want a breach record",
			rep.Healthy, rep.TotalBreaches, len(rep.Anomalies))
	}
	withDeltas, withSpans := false, false
	for _, a := range rep.Anomalies {
		if a.Rule.Name != "fault_recovery_floor" {
			t.Fatalf("unexpected breaching rule %q", a.Rule.Name)
		}
		for id, ds := range a.Deltas {
			if strings.HasPrefix(id, "faults_injected_total") && len(ds) > 0 {
				withDeltas = true
			}
		}
		if len(a.Spans) > 0 {
			withSpans = true
		}
	}
	if !withDeltas {
		t.Error("no anomaly bundle carries the breaching series' recent deltas")
	}
	if !withSpans {
		t.Error("no anomaly bundle carries recent spans")
	}
}

func timeSoak(tb testing.TB, withTelemetry bool) float64 {
	tb.Helper()
	o := obs.New()
	var tel *obs.Telemetry
	if withTelemetry {
		tel = obs.NewTelemetry(o, 0, DefaultSLORules())
	}
	res, err := RunSoak(SoakSpec{
		Chain: ChainGoerli, Areas: 4, Users: 16, Rounds: 40,
		Shards: 2, Seed: 7, Obs: o, Telemetry: tel,
	})
	if err != nil {
		tb.Fatal(err)
	}
	return res.TxsPerSecWall()
}

// TestTelemetryOverheadOnSoak bounds the per-round sampling cost: soak
// throughput with the sampler + health monitor ticking every round must
// stay within 5% of the telemetry-free run. A single ~0.1 s soak varies
// by several percent on a busy host, more than the bound allows, so the
// test runs many back-to-back pairs and judges the median of the
// per-pair throughput ratios: both runs of a pair see nearly the same
// host state, the median ignores the pairs a noise burst hit, and the
// order within a pair alternates so a monotonic drift of the host
// (thermal throttling, cache warm-up) cannot bias the comparison against
// whichever ran second. Each run starts from a collected heap so no run
// pays for the garbage its predecessor left.
func TestTelemetryOverheadOnSoak(t *testing.T) {
	if testing.Short() {
		t.Skip("skipping timing comparison in -short mode")
	}
	const pairs = 32
	run := func(withTel bool) float64 {
		runtime.GC()
		return timeSoak(t, withTel)
	}
	ratios := make([]float64, 0, pairs)
	for i := 0; i < pairs; i++ {
		var bare, tel float64
		if i%2 == 0 {
			bare, tel = run(false), run(true)
		} else {
			tel, bare = run(true), run(false)
		}
		ratios = append(ratios, tel/bare)
	}
	sort.Float64s(ratios)
	median := (ratios[pairs/2-1] + ratios[pairs/2]) / 2
	t.Logf("telemetry/bare soak throughput over %d pairs: median %.1f%%, range %.1f%%..%.1f%%",
		pairs, 100*median, 100*ratios[0], 100*ratios[pairs-1])
	if median < 0.95 {
		t.Errorf("telemetry run reached a median %.1f%% of the bare throughput, more than 5%% below it", 100*median)
	}
}

func BenchmarkSoakWithTelemetry(b *testing.B) {
	for i := 0; i < b.N; i++ {
		o := obs.New()
		tel := obs.NewTelemetry(o, 0, DefaultSLORules())
		if _, err := RunSoak(SoakSpec{
			Chain: ChainGoerli, Areas: 4, Users: 16, Rounds: 20,
			Shards: 2, Seed: 7, Obs: o, Telemetry: tel,
		}); err != nil {
			b.Fatal(err)
		}
	}
}
