// Package sim is the evaluation harness: it reproduces the thesis'
// test-suite (§4.3) — N provers arriving sequentially at a handful of
// locations, deploying one contract per area and attaching to existing ones
// — and aggregates the latency and fee samples into the exact tables
// (5.1–5.4) and figures (5.2–5.5) of the evaluation chapter.
package sim

import (
	"fmt"
	"time"

	"agnopol/internal/algorand"
	"agnopol/internal/chain"
	"agnopol/internal/core"
	"agnopol/internal/eth"
	"agnopol/internal/faults"
	"agnopol/internal/geo"
	"agnopol/internal/obs"
	"agnopol/internal/olc"
	"agnopol/internal/stats"
)

// Locations are the eight Open Location Codes the thesis deployed contracts
// for (§5.1.2).
var Locations = []string{
	"7H369F4W+Q8", "7H369F4W+Q9", "7H368FRV+FM", "7H368FWV+X6",
	"7H367FWH+9J", "7H368F5R+4V", "7H369FXP+FH", "7H369F2W+3R",
}

// UsersPerContract matches the thesis setup: every contract has four users
// attached, creator included.
const UsersPerContract = core.MaxUsers

// ChainName selects a network preset.
type ChainName string

// The networks of the evaluation chapter.
const (
	ChainRopsten  ChainName = "ropsten"
	ChainGoerli   ChainName = "goerli"
	ChainPolygon  ChainName = "polygon"
	ChainAlgorand ChainName = "algorand"
)

// AllChains lists the networks in the order the tables present them.
var AllChains = []ChainName{ChainGoerli, ChainPolygon, ChainAlgorand}

// NewConnector instantiates a fresh simulated network for an experiment.
func NewConnector(name ChainName, seed uint64) (core.Connector, error) {
	switch name {
	case ChainRopsten:
		return core.NewEVMConnector(eth.NewChain(eth.Ropsten(), seed)), nil
	case ChainGoerli:
		return core.NewEVMConnector(eth.NewChain(eth.Goerli(), seed)), nil
	case ChainPolygon:
		return core.NewEVMConnector(eth.NewChain(eth.PolygonMumbai(), seed)), nil
	case ChainAlgorand:
		return core.NewAlgorandConnector(algorand.NewChain(algorand.Testnet(), seed)), nil
	default:
		return nil, fmt.Errorf("sim: unknown chain %q", name)
	}
}

// Measurement is one user's total interaction time with the contract — the
// quantity the per-user bars of Figs. 5.2–5.5 plot.
type Measurement struct {
	User     int
	OLC      string
	Deployed bool
	Latency  time.Duration
	Fee      chain.Amount
	GasUsed  uint64
}

// Result aggregates one experiment run.
type Result struct {
	Chain ChainName
	Users int

	Measurements []Measurement
	// Deploy and Attach are the split series (seconds).
	DeploySummary stats.Summary
	AttachSummary stats.Summary
	DeployFees    chain.Amount
	AttachFees    chain.Amount
	DeployGas     uint64
	AttachGas     uint64
}

// rewardFor returns a meaningful reward per prover in base units.
func rewardFor(c core.Connector) uint64 {
	if c.Unit().Name == "ALGO" {
		return 100_000 // 0.1 ALGO
	}
	return 1e15 // 0.001 ETH / MATIC
}

// Spec describes one experiment for Execute, the single experiment entry
// point. The zero value of every optional field
// selects the historical behaviour: no observability, no verification
// phase, no fault injection.
type Spec struct {
	// Chain selects the network preset (see AllChains).
	Chain ChainName
	// Users is the prover count; must be a multiple of UsersPerContract.
	Users int
	// Seed drives every random stream of the run, fault streams included.
	Seed uint64
	// Obs optionally attaches an observability bundle: chain metrics, VM
	// profiles, pipeline spans, and — when Faults is set — the
	// faults_injected_total / faults_recovered_total counters.
	Obs *obs.Obs
	// Verify adds the funding + verification phase after collection.
	Verify bool
	// Faults optionally attaches a fault plan; the injector is seeded from
	// Seed, so the same (Spec, Seed) is bit-for-bit reproducible. Nil keeps
	// the run on the exact no-fault code path.
	Faults *faults.Plan
}

// Execute runs the thesis experiment described by spec: spec.Users
// provers in groups of UsersPerContract per location, arriving
// sequentially. Every group's first prover deploys the area contract, the
// rest attach. The verification phase runs only when spec.Verify is set
// and is excluded from the deploy/attach measurements, matching §5.1 ("we
// decided to measure only the deploy and attach phases … the verify
// operation is similar to the attachment"); VerifySummary, VerifyFees and
// Accepted stay zero without it. With spec.Obs set, the connector's chain
// and the core system are instrumented and every user interaction runs
// under a sim.user span inside a sim.experiment span; a nil bundle runs
// the identical code path uninstrumented.
func Execute(spec Spec) (*VerifyResult, error) {
	conn, sys, err := newExperiment(spec)
	if err != nil {
		return nil, err
	}
	labels := []obs.Label{
		obs.L("chain", string(spec.Chain)), obs.L("users", fmt.Sprint(spec.Users))}
	if spec.Verify {
		labels = append(labels, obs.L("verify", "true"))
	}
	if spec.Faults != nil {
		labels = append(labels, obs.L("faults", "true"))
	}
	exSp := sys.TraceScope().Start("sim.experiment", labels...)
	defer exSp.End()

	// The verifier exists before collection starts so its creation cost
	// never leaks into the measured phases (§4.3).
	var verifier *core.Verifier
	if spec.Verify {
		verifier, err = core.NewVerifier(sys)
		if err != nil {
			return nil, err
		}
		if _, err := verifier.EnsureAccount(conn, 100); err != nil {
			return nil, err
		}
	}

	base, stagedUsers, err := collect(spec.Chain, conn, sys, spec.Users)
	if err != nil {
		return nil, err
	}
	out := &VerifyResult{Result: base}
	if !spec.Verify {
		return out, nil
	}

	reward := rewardFor(conn)
	for g := 0; g < spec.Users/UsersPerContract; g++ {
		// All provers of a group staged onto the same contract; fund it
		// once, through the deployer's handle.
		h := stagedUsers[g*UsersPerContract].handle
		if _, err := verifier.FundContract(conn, h, uint64(UsersPerContract)*reward); err != nil {
			return nil, err
		}
	}

	// Verification phase.
	var verifyLat []time.Duration
	for _, s := range stagedUsers {
		ver, err := verifier.VerifyProver(conn, s.handle, s.prover.DID)
		if err != nil {
			return nil, err
		}
		if ver.Accepted {
			out.Accepted++
		}
		verifyLat = append(verifyLat, ver.Op.Latency)
		out.VerifyFees = out.VerifyFees.Add(ver.Op.Fee)
	}
	out.VerifySummary = stats.SummarizeDurations(verifyLat)
	return out, nil
}

// newExperiment validates the grid parameters and builds one run's world:
// a fresh connector and system, instrumented when spec.Obs is non-nil and
// fault-wired when spec.Faults is. Every experiment owns its whole world —
// runs share nothing but the obs bundle — which is what lets RunMatrix fan
// cells out over workers.
func newExperiment(spec Spec) (core.Connector, *core.System, error) {
	if spec.Users%UsersPerContract != 0 {
		return nil, nil, fmt.Errorf("sim: users=%d must be a multiple of %d", spec.Users, UsersPerContract)
	}
	if contracts := spec.Users / UsersPerContract; contracts > len(Locations) {
		return nil, nil, fmt.Errorf("sim: %d contracts exceed the %d thesis locations", contracts, len(Locations))
	}
	conn, err := NewConnector(spec.Chain, spec.Seed)
	if err != nil {
		return nil, nil, err
	}
	sys, err := core.NewSystem(spec.Seed)
	if err != nil {
		return nil, nil, err
	}
	InstrumentConnector(conn, spec.Obs)
	sys.Instrument(spec.Obs)
	applyFaults(spec, conn, sys)
	return conn, sys, nil
}

// applyFaults wires a spec's fault plan into the freshly built world: one
// injector per run, seeded from the run seed so every fault stream is a
// pure function of (seed, site, sequence) — worker scheduling in RunMatrix
// can never shift a draw. The chain consults the injector at its mempool,
// the off-chain substrates via System, and both connector and actors run
// under the default retry policy. A nil plan is a no-op, leaving the run
// on the exact code path a fault-free build takes.
func applyFaults(spec Spec, conn core.Connector, sys *core.System) {
	if spec.Faults == nil {
		return
	}
	var reg *obs.Registry
	if spec.Obs != nil {
		reg = spec.Obs.Registry
	}
	inj := faults.NewInjector(spec.Faults, spec.Seed, reg)
	switch c := conn.(type) {
	case *core.EVMConnector:
		c.Chain().SetFaults(inj)
	case *core.AlgorandConnector:
		c.Chain().SetFaults(inj)
	}
	conn.SetResilience(faults.DefaultRetry)
	sys.SetResilience(inj, faults.DefaultRetry)
}

// staged pairs a prover with the contract its proof landed on, for phases
// that run after collection (funding, verification).
type staged struct {
	prover *core.Prover
	handle *core.Handle
}

// userFault, when set by a test, injects a failure at the start of a
// user's interaction. It exists solely for the span-leak regression test.
var userFault func(seq int) error

// collect runs the shared per-user phase of the experiment: witnesses and
// provers are created up front (§4.3: generation must not affect the
// delay times), then every user uploads a report, obtains a location
// proof and submits it on-chain — all deployers first, then the
// attachers, sequentially, matching the thesis script. Execute runs this
// one loop with or without Spec.Verify, so instrumentation covers the
// verify flavour too. The returned staging slice is indexed by
// prover, in creation order.
func collect(name ChainName, conn core.Connector, sys *core.System, users int) (*Result, []staged, error) {
	contracts := users / UsersPerContract

	// One witness per location, standing at the cell center.
	witnesses := make([]*core.Witness, contracts)
	centers := make([]geo.LatLng, contracts)
	for i := 0; i < contracts; i++ {
		area, err := olc.Decode(Locations[i])
		if err != nil {
			return nil, nil, fmt.Errorf("sim: location %q: %w", Locations[i], err)
		}
		lat, lng := area.Center()
		centers[i] = geo.LatLng{Lat: lat, Lng: lng}
		w, err := core.NewWitness(sys, centers[i])
		if err != nil {
			return nil, nil, err
		}
		witnesses[i] = w
	}

	res := &Result{Chain: name, Users: users}
	reward := rewardFor(conn)
	var deployLat, attachLat []time.Duration

	provers := make([]*core.Prover, users)
	for u := 0; u < users; u++ {
		g := u / UsersPerContract
		p, err := core.NewProver(sys, centers[g])
		if err != nil {
			return nil, nil, err
		}
		if _, err := p.EnsureAccount(conn, 10); err != nil {
			return nil, nil, err
		}
		provers[u] = p
	}

	// The thesis script runs all deployers first, then the attachers (the
	// figures' first N/4 bars are the deploys), all sequentially.
	order := make([]int, 0, users)
	for u := 0; u < users; u += UsersPerContract {
		order = append(order, u)
	}
	for u := 0; u < users; u++ {
		if u%UsersPerContract != 0 {
			order = append(order, u)
		}
	}

	stagedUsers := make([]staged, users)
	for seq, u := range order {
		g := u / UsersPerContract
		p := provers[u]
		sub, olcCode, err := submitUser(sys.TraceScope(), conn, p, witnesses[g], seq, u, reward)
		if err != nil {
			return nil, nil, err
		}
		stagedUsers[u] = staged{prover: p, handle: sub.Handle}
		m := Measurement{
			User:     seq,
			OLC:      olcCode,
			Deployed: sub.Deployed,
			Latency:  sub.Op.Latency,
			Fee:      sub.Op.Fee,
			GasUsed:  sub.Op.GasUsed,
		}
		res.Measurements = append(res.Measurements, m)
		if sub.Deployed {
			deployLat = append(deployLat, m.Latency)
			res.DeployFees = res.DeployFees.Add(m.Fee)
			res.DeployGas += m.GasUsed
		} else {
			attachLat = append(attachLat, m.Latency)
			res.AttachFees = res.AttachFees.Add(m.Fee)
			res.AttachGas += m.GasUsed
		}
	}
	res.DeploySummary = stats.SummarizeDurations(deployLat)
	res.AttachSummary = stats.SummarizeDurations(attachLat)
	return res, stagedUsers, nil
}

// submitUser walks one prover through upload → proof request → on-chain
// submission under a sim.user span. The span must end on every exit path:
// an early error return that left it open would wedge the scope's stack
// on a dead span, mis-parenting every later span and keeping this one out
// of the ring buffer forever. Failures are recorded on the span as an
// error label.
func submitUser(sc *obs.Scope, conn core.Connector, p *core.Prover, w *core.Witness, seq, u int, reward uint64) (sub *core.SubmissionResult, olcCode string, err error) {
	uSp := sc.Start("sim.user", obs.L("user", fmt.Sprint(seq)))
	defer func() {
		if err != nil {
			uSp.Label("error", err.Error())
		}
		uSp.End()
	}()
	if userFault != nil {
		if ferr := userFault(seq); ferr != nil {
			return nil, "", fmt.Errorf("sim: user %d: %w", u, ferr)
		}
	}
	cid, err := p.UploadReport(core.Report{
		Title:       fmt.Sprintf("report-%d", u),
		Description: "environment issue report",
		Category:    "environment",
	})
	if err != nil {
		return nil, "", err
	}
	acct, ok := p.Account(conn)
	if !ok {
		return nil, "", fmt.Errorf("sim: user %d has no account on %s", u, conn.Name())
	}
	proof, err := p.RequestProofResilient(conn, w, cid, acct.Address())
	if err != nil {
		return nil, "", fmt.Errorf("sim: user %d proof: %w", u, err)
	}
	sub, err = p.SubmitProof(conn, proof, reward)
	if err != nil {
		return nil, "", fmt.Errorf("sim: user %d submit: %w", u, err)
	}
	return sub, proof.Request.OLC, nil
}

// VerifyResult extends Result with the verification phase the paper
// excluded from its measurements (§5.1: "the verify operation is similar
// to the attachment since it is a basic API call to the contract") —
// Execute with Spec.Verify measures it so that claim is checkable.
type VerifyResult struct {
	*Result
	VerifySummary stats.Summary
	VerifyFees    chain.Amount
	Accepted      int
}
