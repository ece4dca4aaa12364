package sim

import (
	"errors"
	"reflect"
	"strings"
	"testing"

	"agnopol/internal/obs"
)

// smallGrid keeps matrix tests fast: every chain at the smallest user
// count.
var smallGrid = []Cell{
	{Chain: ChainGoerli, Users: 8},
	{Chain: ChainPolygon, Users: 8},
	{Chain: ChainAlgorand, Users: 8},
}

// TestMatrixDeterministicAcrossParallelism is the engine's core
// guarantee: per-cell seeds derive from grid position, not scheduling,
// so a sequential run and a heavily over-subscribed parallel run must
// produce identical results run for run and summary for summary.
func TestMatrixDeterministicAcrossParallelism(t *testing.T) {
	spec := MatrixSpec{Cells: smallGrid, Reps: 2, Seed: 11, Parallel: 1}
	seq, err := RunMatrix(spec, nil)
	if err != nil {
		t.Fatal(err)
	}
	spec.Parallel = 8
	par, err := RunMatrix(spec, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(seq.Summaries, par.Summaries) {
		t.Fatalf("summaries diverge across parallelism:\nseq: %+v\npar: %+v", seq.Summaries, par.Summaries)
	}
	for i := range seq.Runs {
		a, b := seq.Runs[i], par.Runs[i]
		if a.Seed != b.Seed || a.Cell != b.Cell || a.Rep != b.Rep {
			t.Fatalf("run %d grid slot diverged: %+v vs %+v", i, a, b)
		}
		if !reflect.DeepEqual(a.Result.Measurements, b.Result.Measurements) {
			t.Fatalf("run %d measurements diverged across parallelism", i)
		}
	}
}

func TestMatrixSeedDerivation(t *testing.T) {
	seen := make(map[uint64]int)
	for idx := 0; idx < 64; idx++ {
		s := deriveSeed(7, idx)
		if prev, dup := seen[s]; dup {
			t.Fatalf("indices %d and %d derived the same seed %d", prev, idx, s)
		}
		seen[s] = idx
	}
	if deriveSeed(7, 0) == deriveSeed(8, 0) {
		t.Fatal("different base seeds derived the same cell seed")
	}
	if deriveSeed(7, 3) != deriveSeed(7, 3) {
		t.Fatal("derivation is not a pure function of (base, index)")
	}
}

func TestMatrixAggregation(t *testing.T) {
	res, err := RunMatrix(MatrixSpec{
		Cells: []Cell{{Chain: ChainAlgorand, Users: 8}}, Reps: 3, Seed: 5, Parallel: 2,
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Runs) != 3 || len(res.Summaries) != 1 {
		t.Fatalf("runs=%d summaries=%d, want 3/1", len(res.Runs), len(res.Summaries))
	}
	s := res.Summaries[0]
	// 8 users → 2 deploys and 6 attaches per rep, pooled over 3 reps.
	if s.Deploy.N != 6 || s.Attach.N != 18 {
		t.Fatalf("pooled N = %d/%d, want 6/18", s.Deploy.N, s.Attach.N)
	}
	// Mean-of-means: every rep has the same sample count, so the pooled
	// mean must equal the arithmetic mean of the per-rep means.
	var meanOfMeans float64
	lo, hi := res.Runs[0].Result.AttachSummary.Min, res.Runs[0].Result.AttachSummary.Max
	for _, r := range res.Runs {
		meanOfMeans += r.Result.AttachSummary.Mean / float64(len(res.Runs))
		if r.Result.AttachSummary.Min < lo {
			lo = r.Result.AttachSummary.Min
		}
		if r.Result.AttachSummary.Max > hi {
			hi = r.Result.AttachSummary.Max
		}
	}
	if diff := s.Attach.Mean - meanOfMeans; diff > 1e-9 || diff < -1e-9 {
		t.Errorf("pooled mean %v != mean of rep means %v", s.Attach.Mean, meanOfMeans)
	}
	if s.Attach.Min != lo || s.Attach.Max != hi {
		t.Errorf("envelope [%v,%v], want [%v,%v]", s.Attach.Min, s.Attach.Max, lo, hi)
	}
	// Cross-seed dispersion must cover at least the widest single rep.
	for _, r := range res.Runs {
		if s.Attach.StdDev < r.Result.AttachSummary.StdDev*0.5 {
			t.Errorf("pooled σ %v implausibly below rep σ %v", s.Attach.StdDev, r.Result.AttachSummary.StdDev)
		}
	}
	if !strings.Contains(res.String(), "algorand") {
		t.Error("matrix rendering missing chain row")
	}
}

func TestMatrixPropagatesCellError(t *testing.T) {
	_, err := RunMatrix(MatrixSpec{
		Cells: []Cell{{Chain: "fantasy", Users: 8}}, Seed: 1, Parallel: 2,
	}, nil)
	if err == nil || !strings.Contains(err.Error(), "fantasy") {
		t.Fatalf("unknown chain not surfaced: %v", err)
	}
}

// TestMatrixObservedConcurrently runs the matrix against one shared obs
// bundle at high parallelism — the span scopes, registry and profiles
// all see concurrent writers. Run under -race by scripts/check.sh; here
// we assert every experiment's span tree stayed separate and correctly
// rooted.
func TestMatrixObservedConcurrently(t *testing.T) {
	o := obs.New()
	res, err := RunMatrix(MatrixSpec{Cells: smallGrid, Reps: 2, Seed: 3, Parallel: 6}, o)
	if err != nil {
		t.Fatal(err)
	}
	roots := 0
	byID := make(map[uint64]*obs.Span)
	spans := o.Tracer.Spans()
	for _, s := range spans {
		byID[s.ID] = s
	}
	for _, s := range spans {
		if s.Name == "sim.experiment" {
			roots++
			if s.ParentID != 0 {
				t.Errorf("experiment span %d has parent %d, want root", s.ID, s.ParentID)
			}
		}
		if s.Name == "sim.user" {
			parent, ok := byID[s.ParentID]
			if !ok || parent.Name != "sim.experiment" {
				t.Errorf("sim.user span %d not parented under sim.experiment", s.ID)
			}
		}
	}
	if want := len(res.Runs); roots != want {
		t.Errorf("experiment root spans = %d, want %d", roots, want)
	}
}

// TestUserErrorEndsSpan is the regression test for the headline bugfix:
// a user failing mid-experiment must not leave its sim.user span open.
// Before the fix the error path skipped End, wedging the tracer on the
// dead span — every later span mis-parented under it and the failed span
// never reached the ring buffer.
func TestUserErrorEndsSpan(t *testing.T) {
	injected := errors.New("injected fault")
	userFault = func(seq int) error {
		if seq == 2 {
			return injected
		}
		return nil
	}
	defer func() { userFault = nil }()

	o := obs.New()
	_, err := Execute(Spec{Chain: ChainAlgorand, Users: 8, Seed: 7, Obs: o})
	if !errors.Is(err, injected) {
		t.Fatalf("injected fault did not surface: %v", err)
	}
	userFault = nil

	spans := o.Tracer.Spans()
	var failed *obs.Span
	experiments := 0
	for _, s := range spans {
		if s.Name == "sim.experiment" {
			experiments++
		}
		if s.Name != "sim.user" {
			continue
		}
		for _, l := range s.Labels {
			if l.Key == "error" && strings.Contains(l.Value, "injected fault") {
				failed = s
			}
		}
	}
	if failed == nil {
		t.Fatal("failed sim.user span never reached the ring buffer or lost its error label")
	}
	if experiments != 1 {
		t.Fatalf("sim.experiment spans recorded = %d, want 1 (span left open?)", experiments)
	}

	// Subsequent spans must not orphan under the dead span: a fresh
	// scope's span must be a root, and a whole follow-up experiment on
	// the same bundle must root and nest cleanly.
	probe := o.Tracer.NewScope(nil).Start("probe")
	if probe.ParentID != 0 {
		t.Fatalf("span after the failure parented under %d, want root", probe.ParentID)
	}
	probe.End()
	if _, err := Execute(Spec{Chain: ChainAlgorand, Users: 8, Seed: 7, Obs: o}); err != nil {
		t.Fatal(err)
	}
	byID := make(map[uint64]*obs.Span)
	for _, s := range o.Tracer.Spans() {
		byID[s.ID] = s
	}
	users := 0
	for _, s := range o.Tracer.Spans() {
		if s.ID <= probe.ID || s.Name != "sim.user" {
			continue
		}
		users++
		parent, ok := byID[s.ParentID]
		if !ok || parent.Name != "sim.experiment" {
			t.Errorf("post-failure sim.user span %d mis-parented (parent %d)", s.ID, s.ParentID)
		}
	}
	if users != 8 {
		t.Errorf("follow-up run recorded %d sim.user spans, want 8", users)
	}
}

// TestRunWithVerifyObservedInstruments checks that Execute with Verify
// and Obs set rides the shared collection path: the spans and latency
// sketches show up, including the verification phase's.
func TestRunWithVerifyObservedInstruments(t *testing.T) {
	o := obs.New()
	r, err := Execute(Spec{Chain: ChainAlgorand, Users: 8, Seed: 7, Obs: o, Verify: true})
	if err != nil {
		t.Fatal(err)
	}
	if r.Accepted != 8 {
		t.Fatalf("accepted = %d, want 8", r.Accepted)
	}
	names := make(map[string]int)
	for _, s := range o.Tracer.Spans() {
		names[s.Name]++
	}
	if names["sim.user"] != 8 {
		t.Errorf("sim.user spans = %d, want 8", names["sim.user"])
	}
	if names["pol.verify"] != 8 {
		t.Errorf("pol.verify spans = %d, want 8", names["pol.verify"])
	}
	if names["sim.experiment"] != 1 {
		t.Errorf("sim.experiment spans = %d, want 1", names["sim.experiment"])
	}
	text := o.Registry.Text()
	for _, want := range []string{
		`core_chain_op_latency_seconds_count{op="verify"} 8`,
		`core_chain_op_latency_seconds_count{op="attach"} 6`,
		`core_phase_duration_seconds_count{phase="verify"} 8`,
		`core_hypercube_hops_count 8`,
		`core_verifications_total{result="accepted"} 8`,
	} {
		if !strings.Contains(text, want) {
			t.Errorf("metrics exposition missing %q", want)
		}
	}
}

// TestVerifyMatchesRunCollection pins the refactor: the collection phase
// of Execute with Verify is the exact code path without it, so their
// measurements must be identical for the same seed.
func TestVerifyMatchesRunCollection(t *testing.T) {
	plain, err := Execute(Spec{Chain: ChainAlgorand, Users: 8, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	withVerify, err := Execute(Spec{Chain: ChainAlgorand, Users: 8, Seed: 9, Verify: true})
	if err != nil {
		t.Fatal(err)
	}
	// The verifier's wallet funding precedes the prover accounts, so the
	// chains diverge in balances but not in structure: both entry points
	// must agree on counts and deploy/attach split.
	if plain.DeploySummary.N != withVerify.DeploySummary.N ||
		plain.AttachSummary.N != withVerify.AttachSummary.N {
		t.Fatalf("split diverged: %d/%d vs %d/%d",
			plain.DeploySummary.N, plain.AttachSummary.N,
			withVerify.DeploySummary.N, withVerify.AttachSummary.N)
	}
	for i, m := range withVerify.Measurements {
		if m.OLC != plain.Measurements[i].OLC || m.Deployed != plain.Measurements[i].Deployed {
			t.Fatalf("measurement %d diverged: %+v vs %+v", i, m, plain.Measurements[i])
		}
	}
}
