package obs

import (
	"io"
	"net/http"
	"strings"
	"testing"
	"time"
)

func getBody(t *testing.T, url string) (int, string, string) {
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
	return resp.StatusCode, resp.Header.Get("Content-Type"), string(body)
}

func TestServeEndpoints(t *testing.T) {
	tel := telemetryFixture([]Rule{{
		Name: "floor", Kind: RuleRateMin, Series: "txs_total", Threshold: 1, Grace: 1,
	}})
	srv, err := Serve("127.0.0.1:0", tel)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	base := "http://" + srv.Addr()

	reg := tel.Obs.Registry
	reg.Help("txs_total", "Transactions.")
	c := reg.Counter("txs_total")
	reg.Sketch("lat", L("chain", "x\"y\nz")).Observe(0.5)
	sp := tel.Obs.Tracer.NewScope(nil).Start("round")
	sp.End()
	c.Add(3)
	tel.Tick()

	code, ctype, body := getBody(t, base+"/metrics")
	if code != 200 || !strings.HasPrefix(ctype, "text/plain") {
		t.Fatalf("/metrics: %d %s", code, ctype)
	}
	if !strings.Contains(body, "txs_total 3") || !strings.Contains(body, `chain="x\"y\nz"`) {
		t.Fatalf("/metrics body missing counter or escaped label:\n%s", body)
	}

	code, ctype, body = getBody(t, base+"/timeseries")
	if code != 200 || ctype != "application/json" || !strings.Contains(body, `"txs_total"`) {
		t.Fatalf("/timeseries: %d %s\n%s", code, ctype, body)
	}

	code, _, body = getBody(t, base+"/trace")
	if code != 200 || !strings.Contains(body, `"round"`) {
		t.Fatalf("/trace: %d\n%s", code, body)
	}

	code, _, body = getBody(t, base+"/health")
	if code != 200 || !strings.Contains(body, `"healthy": true`) {
		t.Fatalf("/health before breach: %d\n%s", code, body)
	}

	code, _, _ = getBody(t, base+"/debug/pprof/cmdline")
	if code != 200 {
		t.Fatalf("/debug/pprof/cmdline: %d", code)
	}

	// Live endpoints change as the run progresses: a second mid-run scrape
	// must observe the new counter value and the extra sample.
	c.Add(4)
	tel.Tick()
	_, _, body = getBody(t, base+"/metrics")
	if !strings.Contains(body, "txs_total 7") {
		t.Fatalf("/metrics is not live:\n%s", body)
	}
	tel.Tick() // flatline -> floor breach
	code, _, body = getBody(t, base+"/health")
	if code != http.StatusServiceUnavailable || !strings.Contains(body, `"healthy": false`) {
		t.Fatalf("/health after breach: %d\n%s", code, body)
	}
}

func TestServeQuitQuitQuit(t *testing.T) {
	tel := telemetryFixture(nil)
	srv, err := Serve("127.0.0.1:0", tel)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	base := "http://" + srv.Addr()

	code, _, _ := getBody(t, base+"/quitquitquit")
	if code != http.StatusMethodNotAllowed {
		t.Fatalf("GET /quitquitquit = %d, want 405", code)
	}
	select {
	case <-srv.QuitRequested():
		t.Fatal("GET must not trigger quit")
	default:
	}
	resp, err := http.Post(base+"/quitquitquit", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	select {
	case <-srv.QuitRequested():
	case <-time.After(2 * time.Second):
		t.Fatal("POST /quitquitquit did not close QuitRequested")
	}
	// A second POST after the channel closed must not panic.
	resp, err = http.Post(base+"/quitquitquit", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
}

func TestServeNilTelemetry(t *testing.T) {
	if _, err := Serve("127.0.0.1:0", nil); err == nil {
		t.Fatal("Serve(nil) should error")
	}
}
