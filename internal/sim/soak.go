package sim

import (
	"fmt"
	"math/big"
	"runtime"
	"time"

	"agnopol/internal/algorand"
	"agnopol/internal/chain"
	"agnopol/internal/core"
	"agnopol/internal/eth"
	"agnopol/internal/lang"
	"agnopol/internal/mstate"
	"agnopol/internal/mstate/diskstore"
	"agnopol/internal/obs"
	"agnopol/internal/polcrypto"
)

// SoakSpec describes a sustained-load run: M areas × K users × T rounds of
// simulated time, executed on a chain partitioned into Shards. Every user
// checks in to their home area every round, so the workload is dominated by
// disjoint per-area contract traffic — the case the sharded block builder
// is designed to parallelize.
type SoakSpec struct {
	// Chain selects the network preset (see AllChains).
	Chain ChainName
	// Areas (M) is the number of per-area check-in contracts deployed.
	Areas int
	// Users (K) is the number of accounts issuing check-ins.
	Users int
	// Rounds (T) is how many blocks of sustained load to drive; the drain
	// phase afterwards runs until the mempool is empty.
	Rounds int
	// Shards partitions block execution; 1 is the serial baseline.
	Shards int
	// Seed drives every random stream of the run.
	Seed uint64
	// Obs optionally attaches an observability bundle.
	Obs *obs.Obs
	// Telemetry optionally attaches a live-telemetry session: the sampler
	// is ticked — one registry sample plus an SLO evaluation — after every
	// load round and once after the drain, so /metrics, /timeseries and
	// /health evolve while the soak is still running.
	Telemetry *obs.Telemetry

	// StateDir, when set, persists the run into a diskstore at that path:
	// the world state is committed and a manifest checkpoint written after
	// setup, every CheckpointEvery load rounds, and after the drain. A run
	// killed at any point resumes from the last durable checkpoint.
	StateDir string
	// CheckpointEvery is the round cadence of mid-run checkpoints; zero or
	// negative keeps only the setup and final checkpoints.
	CheckpointEvery int
	// Resume continues the run recorded in StateDir instead of starting
	// fresh. The manifest is authoritative for Chain/Areas/Users/Rounds/
	// Seed — leave them zero or set them to matching values.
	Resume bool
	// StopAfterRounds > 0 checkpoints and returns (Result.Stopped) once
	// that many total rounds are done — an in-process stand-in for kill -9
	// that lets tests exercise the resume path deterministically. Requires
	// StateDir.
	StopAfterRounds int
}

// SoakResult aggregates one soak run.
type SoakResult struct {
	Chain  ChainName
	Areas  int
	Users  int
	Rounds int
	Shards int
	// Seed echoes the resolved experiment seed — on a resume it comes from
	// the state dir's manifest, not the (zero) caller spec.
	Seed uint64

	// Submitted and Included count user transactions (congestion traffic
	// excluded); after a full drain they are equal.
	Submitted uint64
	Included  uint64
	// Blocks is how many blocks the run produced, drain included.
	Blocks uint64

	// Wall is the host wall-clock time of the load phase; Simulated is the
	// chain-clock time it covered.
	Wall      time.Duration
	Simulated time.Duration

	// Utilization is each shard's share of executed transactions;
	// ParallelBatches counts blocks that actually fanned out.
	Utilization     []float64
	ShardTxs        []uint64
	ParallelBatches uint64

	// Digest fingerprints the chain's end state: two runs of the same spec
	// must produce the same digest regardless of Shards or GOMAXPROCS.
	Digest chain.Hash32
	// StateRoot is the world-state Merkle root at the end of the run —
	// a pure function of the live key/value set, so runs that differ only
	// in scheduling must agree on it.
	StateRoot chain.Hash32

	// FeesPaid is the total transaction fees the user accounts spent, in the
	// chain's native base units: every check-in moves zero value, so each
	// user's fees are exactly their funding minus their final balance, and
	// the sum is exact even across a checkpoint/resume split. MeanFeeEuro is
	// the euro cost per included transaction — the unit the paper compares
	// backends in; zero for stopped runs (inclusion is finalized on resume).
	FeesPaid    chain.Amount
	MeanFeeEuro float64

	// HeapBytes is the live heap after a forced GC at the end of the run;
	// BytesPerUser divides it by Users. With block retention bounded, the
	// quotient stays flat as users grow — memory tracks live state, not
	// history.
	HeapBytes    uint64
	BytesPerUser float64

	// Resumed marks a run reconstructed from a StateDir manifest rather
	// than started fresh; ReopenWall is the wall-clock cost of rebuilding
	// the chain from the committed root (diskstore open + trie load +
	// checkpoint restore).
	Resumed    bool
	ReopenWall time.Duration
	// Stopped marks a run that checkpointed and returned early at
	// StopAfterRounds. Submitted, Blocks, Digest and StateRoot reflect the
	// stop point; Included stays zero — inclusion accounting is finalized
	// by the resumed run that drains the mempool.
	Stopped bool
}

// TxsPerSecWall is the headline throughput number: included transactions
// per host wall-clock second.
func (r *SoakResult) TxsPerSecWall() float64 {
	if r.Wall <= 0 {
		return 0
	}
	return float64(r.Included) / r.Wall.Seconds()
}

// TxsPerSecSimulated is the included transactions per simulated
// chain-clock second — a property of the workload, not the host.
func (r *SoakResult) TxsPerSecSimulated() float64 {
	if r.Simulated <= 0 {
		return 0
	}
	return float64(r.Included) / r.Simulated.Seconds()
}

// soakAreaCode synthesizes the i-th area's Open Location Code-style
// identifier. Distinct codes are all the contract requires.
func soakAreaCode(i int) string { return fmt.Sprintf("7H36SOAK+%03X", i) }

// soakRetention bounds how many blocks (and their receipts) a soak chain
// keeps resident — enough for any confirmation depth, small enough that a
// million-user run's memory is set by live state, not by history.
const soakRetention = 16

// Per-user funding. Check-ins move zero value, so funding minus final
// balance is exactly the fees a user paid — the identity FeesPaid is
// computed from, which is why funding is a named constant and not an inline
// literal at the Fund call.
var soakFundEVM = big.NewInt(1e18)

const soakFundAlgorand uint64 = 10_000_000

// newSoakConnector builds the chain under soak. EVM presets get their
// ambient congestion traffic trimmed so the measured workload — not the
// synthetic background — fills the blocks; the congestion stream stays on,
// seeded, and deterministic. The block gas limit scales with the user
// count so a round's check-ins fit a bounded number of blocks — at the
// paper's scales (≤ a few hundred users) the preset limit already
// dominates and nothing changes.
func newSoakConnector(spec SoakSpec, run *soakRun) (core.Connector, error) {
	trim := func(cfg eth.Config) eth.Config {
		cfg.CongestionMeanGas = 1_000_000
		cfg.SpikeProb = 0
		if scaled := uint64(spec.Users) * 200_000; scaled > cfg.BlockGasLimit {
			cfg.BlockGasLimit = scaled
		}
		return cfg
	}
	openEVM := func(cfg eth.Config) (core.Connector, error) {
		if run.resumed {
			if run.eth == nil {
				return nil, fmt.Errorf("sim: soak manifest for %s carries no EVM checkpoint", spec.Chain)
			}
			c, err := eth.Open(eth.Options{
				Config: cfg, Seed: spec.Seed,
				Store: run.store, Root: run.root, Checkpoint: run.eth,
			})
			if err != nil {
				return nil, err
			}
			return core.NewEVMConnector(c), nil
		}
		return core.NewEVMConnector(eth.NewChain(cfg, spec.Seed)), nil
	}
	switch spec.Chain {
	case ChainRopsten:
		return openEVM(trim(eth.Ropsten()))
	case ChainGoerli:
		return openEVM(trim(eth.Goerli()))
	case ChainPolygon:
		return openEVM(trim(eth.PolygonMumbai()))
	case ChainAlgorand:
		if run.resumed {
			if run.algo == nil {
				return nil, fmt.Errorf("sim: soak manifest for %s carries no Algorand checkpoint", spec.Chain)
			}
			c, err := algorand.Open(algorand.Options{
				Config: algorand.Testnet(), Seed: spec.Seed,
				Store: run.store, Root: run.root, Checkpoint: run.algo,
			})
			if err != nil {
				return nil, err
			}
			return core.NewAlgorandConnector(c), nil
		}
		return core.NewAlgorandConnector(algorand.NewChain(algorand.Testnet(), spec.Seed)), nil
	default:
		return nil, fmt.Errorf("sim: unknown chain %q", spec.Chain)
	}
}

// RunSoak drives the sustained-load harness: deploy one check-in contract
// per area through the Connector, register the handles in an AreaRegistry,
// then have every user check in to their home area every round through the
// chain's batched submission path. The load phase is wall-clock timed; the
// returned digest lets callers assert that shard count and scheduling never
// change the chain's final state.
func RunSoak(spec SoakSpec) (*SoakResult, error) {
	if spec.Resume {
		if spec.StateDir == "" {
			return nil, fmt.Errorf("sim: soak resume requires StateDir")
		}
	} else if spec.Areas < 1 || spec.Users < 1 || spec.Rounds < 1 {
		return nil, fmt.Errorf("sim: soak needs areas, users and rounds >= 1 (got %d/%d/%d)",
			spec.Areas, spec.Users, spec.Rounds)
	}
	if spec.StopAfterRounds > 0 && spec.StateDir == "" {
		return nil, fmt.Errorf("sim: StopAfterRounds without StateDir would abandon the run unrecoverably")
	}

	run := &soakRun{}
	if spec.StateDir != "" {
		store, err := diskstore.Open(spec.StateDir, diskstore.Options{})
		if err != nil {
			return nil, err
		}
		defer store.Close()
		if spec.Resume {
			spec, run, err = loadSoakManifest(store, spec)
			if err != nil {
				return nil, err
			}
		} else if _, committed := store.Root(); committed {
			return nil, fmt.Errorf("sim: %s already holds a committed soak; set Resume or use a fresh directory", spec.StateDir)
		}
		run.persist = &soakPersist{store: store}
	}
	if spec.Shards < 1 {
		spec.Shards = 1
	}
	if run.persist != nil {
		run.persist.meta = soakCheckpoint{
			Version: soakCheckpointVersion, Chain: spec.Chain,
			Areas: spec.Areas, Users: spec.Users, Rounds: spec.Rounds,
			Shards: spec.Shards, Seed: spec.Seed,
		}
	}

	reopenStart := time.Now()
	conn, err := newSoakConnector(spec, run)
	if err != nil {
		return nil, err
	}
	var reopenWall time.Duration
	if run.resumed {
		reopenWall = time.Since(reopenStart)
	}
	InstrumentConnector(conn, spec.Obs)

	var sc *obs.Scope
	if spec.Obs != nil {
		sc = spec.Obs.Tracer.NewScope(nil)
	}
	sp := sc.Start("sim.soak",
		obs.L("chain", string(spec.Chain)),
		obs.L("areas", fmt.Sprint(spec.Areas)),
		obs.L("users", fmt.Sprint(spec.Users)),
		obs.L("shards", fmt.Sprint(spec.Shards)))
	defer sp.End()

	compiled, err := core.CompileCheckin()
	if err != nil {
		return nil, err
	}

	b, err := newSoakBackend(conn, compiled, run.startRound)
	if err != nil {
		return nil, err
	}

	// Deployment phase: one contract per area, registered for routing.
	// This happens before the clock starts — the soak measures sustained
	// load, not setup. EVM chains deploy through the batched submission
	// path: at 100k+ areas, one signed deployment per block (the
	// connector's submit-and-wait) would take days of wall clock. A
	// resumed run skips deployment entirely — the contracts are already in
	// the loaded state, and their identities re-derive from the spec.
	reg := core.NewAreaRegistry(spec.Shards)
	if run.resumed {
		err = rebuildSoakRegistry(spec, conn, reg, compiled)
	} else {
		err = b.deploy(spec, reg)
	}
	if err != nil {
		return nil, err
	}

	res := &SoakResult{
		Chain: spec.Chain, Areas: spec.Areas, Users: spec.Users,
		Rounds: spec.Rounds, Shards: spec.Shards, Seed: spec.Seed,
		Resumed: run.resumed, ReopenWall: reopenWall,
	}
	if err := soakLoad(spec, b, reg, res, run); err != nil {
		return nil, err
	}
	// Live-heap measurement, outside the timed window: force a collection
	// so HeapAlloc reflects reachable state, not garbage awaiting GC. The
	// KeepAlives below stop liveness analysis from letting the chain and
	// registry be collected before the reading — without them the number
	// measures an empty process, not the world state.
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	res.HeapBytes = m.HeapAlloc
	res.BytesPerUser = float64(m.HeapAlloc) / float64(spec.Users)
	runtime.KeepAlive(conn)
	runtime.KeepAlive(reg)
	return res, nil
}

// checkinGasLimit mirrors the connector's gas sizing for an API call: the
// conservative static analysis plus 25% headroom.
func checkinGasLimit(compiled *lang.Compiled) uint64 {
	for i := range compiled.Analysis.Methods {
		if compiled.Analysis.Methods[i].Name == "checkin" {
			g := compiled.Analysis.Methods[i].TotalEVMGas()
			return g + g/4
		}
	}
	return eth.DefaultGasLimit
}

// soakBackend is one chain family's side of the soak: area deployment,
// user accounts, a round's signed check-in batch, the step, the
// checkpoint and the per-user funding behind the fee identity. soakLoad
// drives everything else — rounds, telemetry ticks, checkpoint cadence,
// the drain and the result — once for both families.
type soakBackend interface {
	// The chain methods both families share with identical signatures.
	SetShards(int)
	SetRetention(int)
	PendingCount() int
	Now() time.Duration
	ShardStats() *chain.ShardStats
	Digest() chain.Hash32
	StateRoot() chain.Hash32
	Balance(chain.Address) chain.Amount

	// deploy publishes one check-in contract per area and registers the
	// handles.
	deploy(spec SoakSpec, reg *core.AreaRegistry) error
	// addUser derives the next user from the soak key stream, funds it
	// on a fresh run, and aims its check-ins at h.
	addUser(keys *chain.Rand, h *core.Handle, fund bool) chain.Address
	// submitRound builds and signs every user's check-in for round, in
	// user order, and submits them as one batch; slot i is user i's
	// admission error.
	submitRound(round int) ([]error, error)
	step()
	height() uint64
	// checkpoint captures the chain checkpoint into meta and commits the
	// world state to store.
	checkpoint(meta *soakCheckpoint, store mstate.NodeStore) (mstate.Hash, error)
	// funding is what addUser credits each user.
	funding() *big.Int
}

// newSoakBackend wraps a soak connector's chain. startRound is the first
// load round this process drives (non-zero on a resume).
func newSoakBackend(conn core.Connector, compiled *lang.Compiled, startRound int) (soakBackend, error) {
	api := compiled.Program.FindAPI("checkin")
	if api == nil {
		return nil, fmt.Errorf("sim: checkin API missing from compiled contract")
	}
	switch c := conn.(type) {
	case *core.EVMConnector:
		return &evmSoakBackend{Chain: c.Chain(), conn: c, compiled: compiled, api: api,
			gasLimit: checkinGasLimit(compiled), startNonce: uint64(startRound)}, nil
	case *core.AlgorandConnector:
		return &algorandSoakBackend{Chain: c.Chain(), conn: c, compiled: compiled, api: api}, nil
	default:
		return nil, fmt.Errorf("sim: soak does not support connector %T", conn)
	}
}

// soakLoad runs the load phase: derive (and on a fresh run fund) the
// users, then drive the rounds, checkpointing at the configured cadence,
// and drain.
func soakLoad(spec SoakSpec, b soakBackend, reg *core.AreaRegistry, res *SoakResult, run *soakRun) error {
	b.SetShards(spec.Shards)
	b.SetRetention(soakRetention)

	// User keys come from the soak-owned stream (deployer first, then one
	// key per user index), so a resumed process re-derives the identical
	// accounts; only a fresh run funds them.
	keys := soakKeyStream(spec.Seed)
	_ = polcrypto.MustGenerateKeyPair(keys) // skip the deployer's draw
	users := make([]chain.Address, spec.Users)
	areas := reg.Areas()
	for ui := range users {
		h, ok := reg.Lookup(areas[ui%len(areas)])
		if !ok {
			return fmt.Errorf("sim: area %s not registered", areas[ui%len(areas)])
		}
		users[ui] = b.addUser(keys, h, !run.resumed)
	}

	blocksBefore := b.height()
	simStart := b.Now()
	if run.resumed {
		blocksBefore = run.blocksAtLoadStart
		simStart = run.simStart
	}
	if run.persist != nil {
		run.persist.meta.BlocksAtLoadStart = blocksBefore
		run.persist.meta.SimStart = simStart
		if !run.resumed {
			if err := run.persist.commit(b, 0, 0, false); err != nil {
				return err
			}
		}
	}
	res.Submitted = run.submitted0
	start := time.Now()
	finish := func() {
		res.Wall = time.Since(start)
		res.Simulated = b.Now() - simStart
		res.Blocks = b.height() - blocksBefore
		if st := b.ShardStats(); st != nil {
			res.Utilization = st.Utilization()
			res.ShardTxs = append([]uint64(nil), st.Txs...)
			res.ParallelBatches = st.ParallelBatches
		}
		res.Digest = b.Digest()
		res.StateRoot = b.StateRoot()
		// Check-ins move zero value, so each user's fees are exactly
		// their funding minus their final balance.
		fees := new(big.Int)
		for _, u := range users {
			bal := b.Balance(u)
			fees.Add(fees, new(big.Int).Sub(b.funding(), bal.Base))
			res.FeesPaid = chain.Amount{Base: fees, Unit: bal.Unit}
		}
	}
	for round := run.startRound; round < spec.Rounds; round++ {
		errs, err := b.submitRound(round)
		if err != nil {
			return err
		}
		for i, err := range errs {
			if err != nil {
				return fmt.Errorf("sim: soak round %d tx %d: %w", round, i, err)
			}
		}
		res.Submitted += uint64(len(errs))
		b.step()
		spec.Telemetry.Tick()
		roundsDone := round + 1
		stop := spec.StopAfterRounds > 0 && roundsDone >= spec.StopAfterRounds && roundsDone < spec.Rounds
		if run.persist != nil && (stop || (spec.CheckpointEvery > 0 && roundsDone%spec.CheckpointEvery == 0)) {
			if err := run.persist.commit(b, roundsDone, res.Submitted, false); err != nil {
				return err
			}
		}
		if stop {
			res.Stopped = true
			finish()
			return nil
		}
	}
	for i := 0; i < spec.Rounds*10+50 && b.PendingCount() > 0; i++ {
		b.step()
	}
	spec.Telemetry.Tick()
	if n := b.PendingCount(); n != 0 {
		return fmt.Errorf("sim: soak drain incomplete: %d transactions pending", n)
	}
	finish()
	res.Included = res.Submitted
	if res.Included > 0 {
		res.MeanFeeEuro = res.FeesPaid.Euros() / float64(res.Included)
	}
	if run.persist != nil {
		return run.persist.commit(b, spec.Rounds, res.Submitted, true)
	}
	return nil
}

// evmSoakBackend is the Ethereum-family soak backend. Each user submits
// exactly one transaction per round, which pins their nonce at round
// start to the number of completed rounds — startNonce on a resume.
type evmSoakBackend struct {
	*eth.Chain
	conn       *core.EVMConnector
	compiled   *lang.Compiled
	api        *lang.API
	gasLimit   uint64
	startNonce uint64
	users      []*eth.Account
	nonces     []uint64
	targets    []chain.Address
}

// deploy publishes one check-in contract per area through the chain's
// batched submission path. Sequential deployer nonces keep the deterministic contract addresses
// computable up front, so handles are registered before the transactions
// even land. The deployer's key comes from the soak-owned stream and is
// funded via Fund — proportionally to the area count, since selection
// reserves maxFee×gasLimit per pending deployment up front.
func (b *evmSoakBackend) deploy(spec SoakSpec, reg *core.AreaRegistry) error {
	c, compiled := b.Chain, b.compiled
	c.SetRetention(soakRetention)
	deployer := soakAccountEVM(soakKeyStream(spec.Seed))
	c.Fund(deployer.Address, new(big.Int).Mul(big.NewInt(int64(spec.Areas)+100), big.NewInt(1e18)))
	gasLimit := compiled.Analysis.EVMDeployGas + compiled.Analysis.EVMDeployGas/4
	tip := big.NewInt(2_000_000_000)
	// Headroom for the base-fee climb across the (few) full deploy blocks.
	maxFee := new(big.Int).Add(new(big.Int).Mul(c.BaseFee(), big.NewInt(8)), tip)

	const deployBatch = 4096
	txs := make([]*eth.Tx, 0, deployBatch)
	flush := func() error {
		if len(txs) == 0 {
			return nil
		}
		_, errs := c.SubmitBatch(txs)
		for i, err := range errs {
			if err != nil {
				return fmt.Errorf("sim: deploy tx %d: %w", i, err)
			}
		}
		txs = txs[:0]
		return nil
	}
	for i := 0; i < spec.Areas; i++ {
		area := soakAreaCode(i)
		ctorData, err := lang.EncodeArgsEVM(lang.CtorMethodName, compiled.Program.Ctor.Params,
			[]lang.Value{lang.BytesValue([]byte(area))})
		if err != nil {
			return err
		}
		nonce := uint64(i)
		tx := &eth.Tx{
			From: deployer.Address, Nonce: nonce,
			Value: big.NewInt(0), Data: eth.PackDeployData(compiled.EVMCode, ctorData),
			GasLimit: gasLimit, MaxFee: maxFee, MaxTip: tip,
		}
		tx.Sign(deployer)
		txs = append(txs, tx)
		if len(txs) == deployBatch {
			if err := flush(); err != nil {
				return err
			}
		}
		h := &core.Handle{
			Connector: b.conn.Name(),
			EVMAddr:   chain.ContractAddress(deployer.Address, nonce),
			Compiled:  compiled,
		}
		if err := reg.Register(area, h); err != nil {
			return err
		}
	}
	if err := flush(); err != nil {
		return err
	}
	for i := 0; i < spec.Areas+200 && c.PendingCount() > 0; i++ {
		c.Step()
	}
	if n := c.PendingCount(); n != 0 {
		return fmt.Errorf("sim: %d deployments never included", n)
	}
	// Every registered handle must actually hold code.
	for _, area := range reg.Areas() {
		h, _ := reg.Lookup(area)
		if _, ok := c.ContractCode(h.EVMAddr); !ok {
			return fmt.Errorf("sim: deployment of area %s reverted", area)
		}
	}
	return nil
}

func (b *evmSoakBackend) addUser(keys *chain.Rand, h *core.Handle, fund bool) chain.Address {
	u := soakAccountEVM(keys)
	if fund {
		b.Fund(u.Address, b.funding())
	}
	b.users = append(b.users, u)
	b.nonces = append(b.nonces, b.startNonce)
	b.targets = append(b.targets, h.EVMAddr)
	return u.Address
}

func (b *evmSoakBackend) submitRound(round int) ([]error, error) {
	tip := big.NewInt(2_000_000_000)
	maxFee := new(big.Int).Add(new(big.Int).Mul(b.BaseFee(), big.NewInt(2)), tip)
	txs := make([]*eth.Tx, 0, len(b.users))
	for ui, u := range b.users {
		data, err := lang.EncodeArgsEVM("checkin", b.api.Params, []lang.Value{
			lang.Uint64Value(uint64(ui)), lang.Uint64Value(uint64(round) + 1),
		})
		if err != nil {
			return nil, err
		}
		to := b.targets[ui]
		tx := &eth.Tx{
			From: u.Address, Nonce: b.nonces[ui], To: &to,
			Value: big.NewInt(0), Data: data, GasLimit: b.gasLimit,
			MaxFee: maxFee, MaxTip: tip,
		}
		tx.Sign(u)
		b.nonces[ui]++
		txs = append(txs, tx)
	}
	_, errs := b.SubmitBatch(txs)
	return errs, nil
}

func (b *evmSoakBackend) step()             { b.Step() }
func (b *evmSoakBackend) height() uint64    { return b.Head().Number }
func (b *evmSoakBackend) funding() *big.Int { return new(big.Int).Set(soakFundEVM) }

func (b *evmSoakBackend) checkpoint(meta *soakCheckpoint, store mstate.NodeStore) (mstate.Hash, error) {
	ck, err := b.Checkpoint()
	if err != nil {
		return mstate.Hash{}, err
	}
	meta.Eth, meta.Algo = ck, nil
	return b.CommitState(store)
}

// algorandSoakBackend is the Algorand soak backend.
type algorandSoakBackend struct {
	*algorand.Chain
	conn     *core.AlgorandConnector
	compiled *lang.Compiled
	api      *lang.API
	users    []*algorand.Account
	targets  []uint64
}

// deploy publishes one check-in application per area through the
// connector's submit-and-wait path. Sequential creation pins app ids to
// 1..Areas, which is what lets a resumed run re-derive its registry
// without replaying the deployment.
func (b *algorandSoakBackend) deploy(spec SoakSpec, reg *core.AreaRegistry) error {
	b.SetRetention(soakRetention)
	dep := soakAccountAlgorand(soakKeyStream(spec.Seed))
	b.Fund(dep.Address, 100_000_000+uint64(spec.Areas)*2*algorand.MinFee)
	deployer := core.AlgorandAccount(dep)
	for i := 0; i < spec.Areas; i++ {
		area := soakAreaCode(i)
		h, _, err := b.conn.Deploy(deployer, b.compiled, []lang.Value{
			lang.BytesValue([]byte(area)),
		})
		if err != nil {
			return fmt.Errorf("sim: deploy area %s: %w", area, err)
		}
		if h.AppID != uint64(i)+1 {
			return fmt.Errorf("sim: area %s deployed as app %d, want %d (resume derivation relies on sequential ids)",
				area, h.AppID, i+1)
		}
		if err := reg.Register(area, h); err != nil {
			return err
		}
	}
	return nil
}

func (b *algorandSoakBackend) addUser(keys *chain.Rand, h *core.Handle, fund bool) chain.Address {
	u := soakAccountAlgorand(keys)
	if fund {
		b.Fund(u.Address, soakFundAlgorand)
	}
	b.users = append(b.users, u)
	b.targets = append(b.targets, h.AppID)
	return u.Address
}

func (b *algorandSoakBackend) submitRound(round int) ([]error, error) {
	groups := make([]algorand.Group, 0, len(b.users))
	for ui, u := range b.users {
		appArgs, err := lang.EncodeArgsTEAL("checkin", b.api.Params, []lang.Value{
			lang.Uint64Value(uint64(ui)), lang.Uint64Value(uint64(round) + 1),
		})
		if err != nil {
			return nil, err
		}
		call := &algorand.Tx{
			Type: algorand.TxAppCall, Sender: u.Address,
			Fee: algorand.MinFee, AppID: b.targets[ui], Args: appArgs,
		}
		call.Sign(u)
		groups = append(groups, algorand.Group{call})
	}
	_, errs := b.SubmitBatch(groups)
	return errs, nil
}

func (b *algorandSoakBackend) step()          { b.Step() }
func (b *algorandSoakBackend) height() uint64 { return b.Head().Round }
func (b *algorandSoakBackend) funding() *big.Int {
	return new(big.Int).SetUint64(soakFundAlgorand)
}

func (b *algorandSoakBackend) checkpoint(meta *soakCheckpoint, store mstate.NodeStore) (mstate.Hash, error) {
	ck, err := b.Checkpoint()
	if err != nil {
		return mstate.Hash{}, err
	}
	meta.Eth, meta.Algo = nil, ck
	return b.CommitState(store)
}
