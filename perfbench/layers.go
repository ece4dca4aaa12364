package main

import (
	"time"

	"agnopol/internal/obs"
)

// Span names: "<layer>.<call>", one per call the benchmark makes into a
// layer. "round" and "cycle" are the structural parents they nest under.
var (
	clientSpans = []string{"lang.encode", "polcrypto.sign", "ipfs.upload", "core.request_proof"}
	chainSpans  = []string{"eth.submit", "eth.step", "algorand.submit", "algorand.step",
		"chain.deploy", "chain.invoke", "chain.read"}
)

// spanTotals is the traced time per span name: the whole duration, the
// self time (duration minus the part of it covered by child spans), the
// call count and every call's duration.
type spanTotals struct {
	total, self time.Duration
	calls       int
	durs        []time.Duration
}

func totalsByName(tracer *obs.Tracer) map[string]*spanTotals {
	spans := tracer.Spans()
	childSum := make(map[uint64]time.Duration, len(spans))
	for _, s := range spans {
		if s.ParentID != 0 {
			childSum[s.ParentID] += s.Duration
		}
	}
	out := make(map[string]*spanTotals)
	for _, s := range spans {
		t := out[s.Name]
		if t == nil {
			t = &spanTotals{}
			out[s.Name] = t
		}
		t.total += s.Duration
		t.self += s.Duration - childSum[s.ID]
		t.calls++
		t.durs = append(t.durs, s.Duration)
	}
	return out
}

// layerMetrics derives the per-layer numbers of the traced repeats: the
// common set BENCHMARK.json lists, plus the layer metrics of whichever
// layers this workload touches, under their own names.
func layerMetrics(w *workload, reps []*repeat, tracer *obs.Tracer) (map[string]float64, map[string]float64) {
	tot := totalsByName(tracer)
	self := func(names ...string) float64 {
		var d time.Duration
		for _, n := range names {
			if t := tot[n]; t != nil {
				d += t.self
			}
		}
		return float64(d.Nanoseconds())
	}
	perCall := func(name string, unit time.Duration) float64 {
		t := tot[name]
		if t == nil || t.calls == 0 {
			return 0
		}
		return float64(t.total) / float64(t.calls) / float64(unit)
	}
	medianCall := func(name string, unit time.Duration) float64 {
		t := tot[name]
		if t == nil {
			return 0
		}
		xs := make([]float64, len(t.durs))
		for i, d := range t.durs {
			xs[i] = float64(d) / float64(unit)
		}
		return median(xs)
	}

	var incl, blocks, cycles, traced int
	var mem memDelta
	var tracedWin, plainWin []float64
	empty := map[string][]float64{}
	var allEmpty []float64
	extra := map[string][]float64{}
	for _, r := range reps {
		if r.warmup {
			continue
		}
		if !r.traced {
			plainWin = append(plainWin, r.window.Seconds())
			continue
		}
		traced++
		tracedWin = append(tracedWin, r.window.Seconds())
		incl += r.included
		blocks += r.blocks
		cycles += r.cycles
		mem.allocBytes += r.mem.allocBytes
		mem.mallocs += r.mem.mallocs
		mem.pauseNs += r.mem.pauseNs
		for b, ds := range r.emptySteps {
			for _, d := range ds {
				us := float64(d.Nanoseconds()) / 1e3
				empty[b] = append(empty[b], us)
				allEmpty = append(allEmpty, us)
			}
		}
		for k, v := range r.layers {
			extra[k] = append(extra[k], v)
		}
	}
	n := float64(incl)
	m := map[string]float64{
		"client.ns_per_tx":      ratio(self(clientSpans...), n),
		"chain.ns_per_tx":       ratio(self(chainSpans...), n),
		"chain.txs_per_block":   ratio(n, float64(blocks)),
		"chain.empty_step_us":   median(allEmpty),
		"go.alloc_bytes_per_tx": ratio(float64(mem.allocBytes), n),
		"go.mallocs_per_tx":     ratio(float64(mem.mallocs), n),
		"go.gc_pause_ms":        ratio(float64(mem.pauseNs)/1e6, float64(traced)),
		"trace.overhead_ratio":  ratio(median(tracedWin), median(plainWin)),
	}
	for b, vs := range empty {
		m[b+".empty_step_us"] = median(vs)
	}
	for k, vs := range extra {
		m[k] = median(vs)
	}
	if w.pol {
		m["ipfs.upload_us"] = perCall("ipfs.upload", time.Microsecond)
		m["core.request_proof_us"] = perCall("core.request_proof", time.Microsecond)
		m["core.submit_ms"] = perCall("core.submit", time.Millisecond)
		m["core.fund_ms"] = perCall("core.fund", time.Millisecond)
		m["core.verify_ms"] = perCall("core.verify", time.Millisecond)
		m["chain.blocks_per_cycle"] = ratio(float64(blocks), float64(cycles))
	} else {
		b := "eth"
		if tot["algorand.step"] != nil {
			b = "algorand"
		}
		m["lang.encode_ns_per_tx"] = ratio(self("lang.encode"), n)
		m["polcrypto.sign_ns_per_tx"] = ratio(self("polcrypto.sign"), n)
		m[b+".submit_ns_per_tx"] = ratio(self(b+".submit"), n)
		m[b+".step_ns_per_tx"] = ratio(self(b+".step"), n)
		m[b+".txs_per_block"] = ratio(n, float64(blocks))
		if tot["diskstore.commit"] != nil {
			m["mstate.commit_ns_per_tx"] = ratio(self("mstate.commit"), n)
			m["eth.checkpoint_us_per_round"] = perCall("eth.checkpoint", time.Microsecond)
			m["diskstore.commit_ms_p50"] = medianCall("diskstore.commit", time.Millisecond)
			m["diskstore.open_s"] = medianCall("diskstore.open", time.Second)
		}
	}
	for _, b := range []string{"eth", "algorand"} {
		if tot[b+".open"] != nil {
			m[b+".open_s"] = medianCall(b+".open", time.Second)
		}
	}
	selfMs := make(map[string]float64, len(tot))
	for name, t := range tot {
		selfMs[name] = float64(t.self.Nanoseconds()) / 1e6
	}
	return m, selfMs
}
