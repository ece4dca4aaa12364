package main

import (
	"encoding/json"
	"fmt"
	"math/big"
	"os"
	"runtime"
	"time"

	"agnopol/internal/algorand"
	"agnopol/internal/avm"
	"agnopol/internal/chain"
	"agnopol/internal/core"
	"agnopol/internal/eth"
	"agnopol/internal/lang"
	"agnopol/internal/mstate"
	"agnopol/internal/mstate/diskstore"
	"agnopol/internal/obs"
	"agnopol/internal/polcrypto"
)

// soakSize is the shape of one soak repeat: areas check-in contracts,
// accounts funded users, of which a rotating slice of active users checks
// in once per round, plus forged corrupted-signature transactions per
// round that admission must reject.
type soakSize struct {
	areas, accounts, active, rounds, forged int
}

// emptySteps is how many idle blocks a traced repeat times to price
// per-block consensus.
const emptySteps = 5

// retention bounds the blocks a soak chain keeps resident, so memory
// tracks live state rather than history.
const retention = 16

var soakEVM = &workload{
	name:       "soak-evm",
	why:        "sustained check-ins on the EVM backend, in-memory state: admission (ed25519 verify) and sharded EVM execution over the trie dominate",
	tailPct:    90,
	minRepeats: 4,
	run: func(e env, sc *obs.Scope) *repeat {
		sz := soakSize{areas: 64, accounts: 500, active: 500, rounds: 30, forged: 4}
		if e.smoke {
			sz = soakSize{areas: 4, accounts: 16, active: 16, rounds: 4, forged: 2}
		}
		return runSoakEVM(e, sc, sz, false)
	},
}

var soakEVMDurable = &workload{
	name:       "soak-evm-durable",
	why:        "goerli over a large idle state with a rotating active slice, made durable (fsync) every block, then recovered from disk: trie writes and disk",
	tailPct:    90,
	minRepeats: 3,
	run: func(e env, sc *obs.Scope) *repeat {
		sz := soakSize{areas: 64, accounts: 8000, active: 250, rounds: 40, forged: 4}
		if e.smoke {
			sz = soakSize{areas: 4, accounts: 64, active: 8, rounds: 4, forged: 2}
		}
		return runSoakEVM(e, sc, sz, true)
	},
}

var soakAVM = &workload{
	name:       "soak-avm",
	why:        "the same check-in load on the Algorand backend: same admission layer, AVM and ledger instead of EVM, so a shared-code change must show on both",
	tailPct:    90,
	minRepeats: 4,
	run: func(e env, sc *obs.Scope) *repeat {
		sz := soakSize{areas: 64, accounts: 500, active: 500, rounds: 30, forged: 4}
		if e.smoke {
			sz = soakSize{areas: 4, accounts: 16, active: 16, rounds: 4, forged: 2}
		}
		return runSoakAVM(e, sc, sz)
	},
}

func areaCode(i int) string { return fmt.Sprintf("7H36PERF+%03X", i) }

// keyStream is the benchmark's own key source: every account derives
// from the seed, never from a chain's rng.
func keyStream(seed uint64) *chain.Rand { return chain.NewRand(seed).Fork("perfbench:keys") }

func newKey(rng *chain.Rand) (*polcrypto.KeyPair, chain.Address) {
	kp := polcrypto.MustGenerateKeyPair(rng)
	return kp, chain.AddressFromPublicKey(kp.Public)
}

// forge returns a copy of sig with one bit flipped.
func forge(sig []byte) []byte {
	bad := append([]byte(nil), sig...)
	bad[len(bad)/2] ^= 0x10
	return bad
}

// soakGoerli is the goerli preset with its ambient congestion trimmed so
// the measured load, not synthetic background, fills the blocks, and a
// block gas limit that fits a whole round.
func soakGoerli(active int) eth.Config {
	cfg := eth.Goerli()
	cfg.CongestionMeanGas = 1_000_000
	cfg.SpikeProb = 0
	if g := uint64(active) * 200_000; g > cfg.BlockGasLimit {
		cfg.BlockGasLimit = g
	}
	return cfg
}

// activeUser is the account index of the j-th active user in a round: the
// active slice rotates through the funded accounts.
func activeUser(sz soakSize, round, j int) int { return (round*sz.active + j) % sz.accounts }

// durableState is the disk side of soak-evm-durable.
type durableState struct {
	dir   string
	store *diskstore.Store
}

// commit makes the chain's state and checkpoint durable: Checkpoint,
// CommitState into the store, then Store.Commit with fsync.
func (d *durableState) commit(sc *obs.Scope, c *eth.Chain) error {
	sp := sc.Start("eth.checkpoint")
	ck, err := c.Checkpoint()
	var meta []byte
	if err == nil {
		meta, err = json.Marshal(ck)
	}
	sp.End()
	if err != nil {
		return fmt.Errorf("checkpoint: %w", err)
	}
	sp = sc.Start("mstate.commit")
	root, err := c.CommitState(d.store)
	sp.End()
	if err != nil {
		return fmt.Errorf("commit state: %w", err)
	}
	sp = sc.Start("diskstore.commit")
	err = d.store.Commit(root, meta)
	sp.End()
	return err
}

func runSoakEVM(e env, sc *obs.Scope, sz soakSize, durable bool) *repeat {
	r := newRepeat()
	t0 := time.Now()
	cfg := soakGoerli(sz.active)
	c := eth.NewChain(cfg, e.seed)
	c.SetShards(runtime.GOMAXPROCS(0))
	c.SetRetention(retention)
	compiled, err := core.CompileCheckin()
	if err != nil {
		r.fail("compile: %v", err)
		return r
	}
	keys := keyStream(e.seed)
	targets, err := deployEVM(c, compiled, sz.areas, keys)
	if err != nil {
		r.fail("%v", err)
		return r
	}
	users := make([]*eth.Account, sz.accounts)
	fund := big.NewInt(1e18)
	for i := range users {
		kp, addr := newKey(keys)
		users[i] = &eth.Account{Key: kp, Address: addr}
		c.Fund(addr, fund)
	}
	var disk *durableState
	if durable {
		store, err := diskstore.Open(e.dir, diskstore.Options{})
		if err != nil {
			r.fail("open store: %v", err)
			return r
		}
		disk = &durableState{dir: e.dir, store: store}
		defer os.RemoveAll(e.dir)
		defer func() { disk.store.Close() }() // the store read by the last reopen
		if err := disk.commit(nil, c); err != nil {
			r.fail("initial commit: %v", err)
			return r
		}
	}
	r.setup = time.Since(t0)

	api := compiled.Program.FindAPI("checkin")
	var gasLimit uint64
	for _, m := range compiled.Analysis.Methods {
		if m.Name == "checkin" {
			gasLimit = m.TotalEVMGas() + m.TotalEVMGas()/4
		}
	}
	tip := big.NewInt(2_000_000_000)
	nonces := make([]uint64, sz.accounts)
	stats0 := shardSnapshot(c.ShardStats())
	var nodes0 int
	var bytes0 int64
	if disk != nil {
		nodes0, bytes0 = disk.store.Len(), dirBytes(e.dir)
	}
	b := &soakBackend[*eth.Tx]{
		name: "eth", submit: c.SubmitBatch, step: func() { c.Step() },
		receipt: c.Receipt, pending: c.PendingCount,
	}
	if disk != nil {
		b.afterStep = func() error { return disk.commit(sc, c) }
	}
	for round := 0; round < sz.rounds; round++ {
		maxFee := new(big.Int).Add(new(big.Int).Mul(c.BaseFee(), big.NewInt(2)), tip)
		batch, err := clientRound(r, sc, sz, round,
			func(ui int) ([]byte, error) {
				return lang.EncodeArgsEVM("checkin", api.Params, []lang.Value{
					lang.Uint64Value(uint64(ui)), lang.Uint64Value(uint64(round) + 1),
				})
			},
			func(ui int, data []byte) *eth.Tx {
				to := targets[ui%len(targets)]
				tx := &eth.Tx{
					From: users[ui].Address, Nonce: nonces[ui], To: &to,
					Value: big.NewInt(0), Data: data, GasLimit: gasLimit,
					MaxFee: maxFee, MaxTip: tip,
				}
				tx.Sign(users[ui])
				nonces[ui]++
				return tx
			},
			func(tx *eth.Tx) *eth.Tx {
				bad := *tx
				bad.Sig = forge(tx.Sig)
				return &bad
			})
		if err != nil {
			r.fail("round %d: encode: %v", round, err)
			return r
		}
		if !runRound(r, sc, b, round, sz.forged, batch) {
			return r
		}
	}
	if sc != nil {
		shardLayers(r, stats0, c.ShardStats())
		if disk != nil {
			r.layers["diskstore.nodes_per_round"] = float64(disk.store.Len()-nodes0) / float64(sz.rounds)
			r.layers["diskstore.bytes_per_tx"] = ratio(float64(dirBytes(e.dir)-bytes0), float64(r.included))
		}
	}
	digest, root := c.Digest(), c.StateRoot()
	burned, tipped := c.BurnedAndTipped()
	r.fingerprint["digest"] = fmt.Sprintf("%x", digest[:])
	r.fingerprint["state_root"] = fmt.Sprintf("%x", root[:])
	r.fingerprint["burned"] = burned.String()
	r.fingerprint["tipped"] = tipped.String()
	r.heapBytes = liveHeap()
	runtime.KeepAlive(c)

	var reopened *eth.Chain
	if disk != nil {
		reopened = reopenDurable(r, sc, disk, c, e.seed)
	} else {
		reopened = reopenEVM(r, sc, c, e.seed)
	}
	if sc != nil && reopened != nil {
		timeEmptySteps(r, "eth", func() { reopened.Step() })
	}
	return r
}

// soakBackend is what the round loop needs from a chain backend; T is
// its unit of submission (*eth.Tx or algorand.Group).
type soakBackend[T any] struct {
	name    string // span prefix: the layer the calls go into
	submit  func([]T) ([]chain.Hash32, []error)
	step    func()
	receipt func(chain.Hash32) (*chain.Receipt, bool)
	pending func() int
	// afterStep, when set, runs inside the window after Step: the durable
	// soak's commit.
	afterStep func() error
}

// clientRound builds one round's batch on the client side, outside the
// timed window: encode every active user's call, then sign them all. The
// batch leads with forged copies of its first honest transactions (same
// sender and nonce, one signature bit flipped) that admission must reject.
func clientRound[P, T any](r *repeat, sc *obs.Scope, sz soakSize, round int,
	encode func(ui int) (P, error), sign func(ui int, payload P) T, forgeTx func(T) T) ([]T, error) {
	t := time.Now()
	sp := sc.Start("lang.encode")
	payloads := make([]P, sz.active)
	for j := range payloads {
		var err error
		if payloads[j], err = encode(activeUser(sz, round, j)); err != nil {
			sp.End()
			return nil, err
		}
	}
	sp.End()
	sp = sc.Start("polcrypto.sign")
	batch := make([]T, sz.forged, sz.forged+sz.active)
	for j, p := range payloads {
		batch = append(batch, sign(activeUser(sz, round, j), p))
	}
	sp.End()
	r.client += time.Since(t)
	for k := 0; k < sz.forged; k++ {
		batch[k] = forgeTx(batch[sz.forged+k])
	}
	return batch, nil
}

// runRound is one round's timed window, SubmitBatch then Step (then
// afterStep), followed by the round's checks outside the window. It
// reports false when the repeat cannot go on.
func runRound[T any](r *repeat, sc *obs.Scope, b *soakBackend[T], round, forged int, batch []T) bool {
	var mark *runtime.MemStats
	if sc != nil {
		mark = readMem()
	}
	start := time.Now()
	rsp := sc.Start("round")
	sp := sc.Start(b.name + ".submit")
	hashes, errs := b.submit(batch)
	sp.End()
	sp = sc.Start(b.name + ".step")
	b.step()
	sp.End()
	var err error
	if b.afterStep != nil {
		err = b.afterStep()
	}
	rsp.End()
	lat := time.Since(start)
	if mark != nil {
		r.mem.add(mark)
	}
	if err != nil {
		r.fail("round %d: %v", round, err)
		return false
	}
	r.window += lat
	r.latencies = append(r.latencies, lat)
	r.blocks++

	checkAdmission(r, round, errs, forged)
	for i := forged; i < len(batch); i++ {
		if errs[i] != nil {
			continue
		}
		rc, ok := b.receipt(hashes[i])
		switch {
		case !ok:
			r.fail("round %d tx %d never included", round, i)
		case rc.Reverted:
			r.fail("round %d tx %d reverted: %s", round, i, rc.RevertMsg)
		default:
			r.included++
		}
	}
	if n := b.pending(); n != 0 {
		r.fail("round %d left %d transactions pending", round, n)
	}
	return true
}

// checkAdmission checks one round's SubmitBatch verdicts: the leading
// forged transactions must all be rejected and every honest one admitted.
func checkAdmission(r *repeat, round int, errs []error, forged int) {
	for i, err := range errs {
		if i < forged {
			r.forged++
			if err != nil {
				r.forgedRejected++
			}
			continue
		}
		r.attempted++
		if err != nil {
			r.fail("round %d honest tx %d rejected: %v", round, i, err)
		}
	}
}

// deployEVM deploys one check-in contract per area through the batched
// submission path and returns the contract addresses.
func deployEVM(c *eth.Chain, compiled *lang.Compiled, areas int, keys *chain.Rand) ([]chain.Address, error) {
	kp, addr := newKey(keys)
	deployer := &eth.Account{Key: kp, Address: addr}
	c.Fund(addr, new(big.Int).Mul(big.NewInt(int64(areas)+100), big.NewInt(1e18)))
	gasLimit := compiled.Analysis.EVMDeployGas + compiled.Analysis.EVMDeployGas/4
	tip := big.NewInt(2_000_000_000)
	maxFee := new(big.Int).Add(new(big.Int).Mul(c.BaseFee(), big.NewInt(8)), tip)
	txs := make([]*eth.Tx, areas)
	targets := make([]chain.Address, areas)
	for i := range txs {
		ctor, err := lang.EncodeArgsEVM(lang.CtorMethodName, compiled.Program.Ctor.Params,
			[]lang.Value{lang.BytesValue([]byte(areaCode(i)))})
		if err != nil {
			return nil, err
		}
		txs[i] = &eth.Tx{
			From: addr, Nonce: uint64(i), Value: big.NewInt(0),
			Data: eth.PackDeployData(compiled.EVMCode, ctor), GasLimit: gasLimit,
			MaxFee: maxFee, MaxTip: tip,
		}
		txs[i].Sign(deployer)
		targets[i] = chain.ContractAddress(addr, uint64(i))
	}
	if _, errs := c.SubmitBatch(txs); firstErr(errs) != nil {
		return nil, fmt.Errorf("deploy: %w", firstErr(errs))
	}
	for i := 0; i < areas+10 && c.PendingCount() > 0; i++ {
		c.Step()
	}
	for i, a := range targets {
		if _, ok := c.ContractCode(a); !ok {
			return nil, fmt.Errorf("deployment of area %d did not land", i)
		}
	}
	return targets, nil
}

// timeEmptySteps times Step on an idle chain: the per-block consensus
// cost with no transactions to execute.
func timeEmptySteps(r *repeat, backend string, step func()) {
	for i := 0; i < emptySteps; i++ {
		t := time.Now()
		step()
		r.emptySteps[backend] = append(r.emptySteps[backend], time.Since(t))
	}
}

// dirBytes is the total size of the files directly under dir.
func dirBytes(dir string) int64 {
	entries, _ := os.ReadDir(dir) // an unreadable dir sizes as empty
	var n int64
	for _, e := range entries {
		if info, err := e.Info(); err == nil && !info.IsDir() {
			n += info.Size()
		}
	}
	return n
}

func firstErr(errs []error) error {
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

type shardCounts struct {
	txs      []uint64
	parallel uint64
}

func shardSnapshot(st *chain.ShardStats) shardCounts {
	if st == nil {
		return shardCounts{}
	}
	return shardCounts{txs: append([]uint64(nil), st.Txs...), parallel: st.ParallelBatches}
}

// shardLayers records the timed window's share of blocks that fanned out
// to several shards and the least-used shard's share of the window's
// transactions relative to an even split (1 is perfectly balanced).
func shardLayers(r *repeat, before shardCounts, st *chain.ShardStats) {
	after := shardSnapshot(st)
	if len(after.txs) == 0 {
		return
	}
	r.layers["chain.parallel_batch_frac"] = ratio(float64(after.parallel-before.parallel), float64(r.blocks))
	var total uint64
	delta := make([]uint64, len(after.txs))
	for i := range after.txs {
		delta[i] = after.txs[i]
		if i < len(before.txs) {
			delta[i] -= before.txs[i]
		}
		total += delta[i]
	}
	least := delta[0]
	for _, d := range delta {
		least = min(least, d)
	}
	if total > 0 {
		r.layers["chain.shard_util_min"] = float64(least) * float64(len(delta)) / float64(total)
	}
}

// reopens is how many times a repeat restores its chain; the repeat keeps
// the median restore time. Restoring from disk rereads every segment, so
// the durable soak does it fewer times.
const (
	reopens        = 7
	durableReopens = 3
)

// timeReopens restores a chain n times and adds the median restore time to
// r.reopen. open restores once and reports how long the restore took and
// the restored chain's root and digest, which must equal the live chain's.
func timeReopens(r *repeat, n int, root, digest chain.Hash32, open func() (time.Duration, chain.Hash32, chain.Hash32, error)) bool {
	ds := make([]float64, 0, n)
	for i := 0; i < n; i++ {
		runtime.GC() // so no collection of earlier garbage lands inside the timing
		d, gotRoot, gotDigest, err := open()
		if err != nil {
			r.fail("reopen: %v", err)
			return false
		}
		if gotRoot != root || gotDigest != digest {
			r.fail("reopened chain diverged: root %x digest %x, want %x %x", gotRoot, gotDigest, root, digest)
			return false
		}
		ds = append(ds, d.Seconds())
	}
	r.reopen += time.Duration(median(ds) * float64(time.Second))
	return true
}

// reopenEVM restores an in-memory chain from its committed state: the
// state goes into an in-memory node store, then eth.Open loads it back,
// timed until the restored chain's root is read.
func reopenEVM(r *repeat, sc *obs.Scope, c *eth.Chain, seed uint64) *eth.Chain {
	ck, err := c.Checkpoint()
	if err != nil {
		r.fail("checkpoint: %v", err)
		return nil
	}
	store := mstate.NewMemStore()
	committed, err := c.CommitState(store)
	if err != nil {
		r.fail("commit state: %v", err)
		return nil
	}
	var c2 *eth.Chain
	ok := timeReopens(r, reopens, c.StateRoot(), c.Digest(), func() (time.Duration, chain.Hash32, chain.Hash32, error) {
		t := time.Now()
		sp := sc.Start("eth.open")
		c2, err = eth.Open(eth.Options{Config: c.Config(), Seed: seed, Store: store, Root: committed, Checkpoint: ck})
		sp.End()
		if err != nil {
			return 0, chain.Hash32{}, chain.Hash32{}, err
		}
		root := c2.StateRoot()
		return time.Since(t), root, c2.Digest(), nil
	})
	if !ok {
		return nil
	}
	return c2
}

// reopenDurable closes the store and recovers the chain from disk:
// diskstore.Open, then eth.Open from the committed root and checkpoint,
// timed until the chain's root is read back.
func reopenDurable(r *repeat, sc *obs.Scope, d *durableState, c *eth.Chain, seed uint64) *eth.Chain {
	var c2 *eth.Chain
	ok := timeReopens(r, durableReopens, c.StateRoot(), c.Digest(), func() (time.Duration, chain.Hash32, chain.Hash32, error) {
		var none chain.Hash32
		if err := d.store.Close(); err != nil {
			return 0, none, none, fmt.Errorf("close store: %w", err)
		}
		t := time.Now()
		sp := sc.Start("diskstore.open")
		store, err := diskstore.Open(d.dir, diskstore.Options{})
		sp.End()
		if err != nil {
			return 0, none, none, err
		}
		d.store = store
		committed, _ := store.Root()
		var ck eth.Checkpoint
		if err := json.Unmarshal(store.Meta(), &ck); err != nil {
			return 0, none, none, fmt.Errorf("decode checkpoint: %w", err)
		}
		sp = sc.Start("eth.open")
		c2, err = eth.Open(eth.Options{Config: c.Config(), Seed: seed, Store: store, Root: committed, Checkpoint: &ck})
		sp.End()
		if err != nil {
			return 0, none, none, err
		}
		root := c2.StateRoot()
		return time.Since(t), root, c2.Digest(), nil
	})
	if !ok {
		return nil
	}
	return c2
}

func runSoakAVM(e env, sc *obs.Scope, sz soakSize) *repeat {
	r := newRepeat()
	t0 := time.Now()
	cfg := algorand.Testnet()
	c := algorand.NewChain(cfg, e.seed)
	c.SetShards(runtime.GOMAXPROCS(0))
	c.SetRetention(retention)
	compiled, err := core.CompileCheckin()
	if err != nil {
		r.fail("compile: %v", err)
		return r
	}
	keys := keyStream(e.seed)
	kp, addr := newKey(keys)
	c.Fund(addr, 100_000_000+uint64(sz.areas)*2*algorand.MinFee)
	apps, err := deployAVM(c, compiled, sz.areas, &algorand.Account{Key: kp, Address: addr})
	if err != nil {
		r.fail("%v", err)
		return r
	}
	users := make([]*algorand.Account, sz.accounts)
	for i := range users {
		kp, addr := newKey(keys)
		users[i] = &algorand.Account{Key: kp, Address: addr}
		c.Fund(addr, 10_000_000)
	}
	r.setup = time.Since(t0)

	api := compiled.Program.FindAPI("checkin")
	stats0 := shardSnapshot(c.ShardStats())
	b := &soakBackend[algorand.Group]{
		name: "algorand", submit: c.SubmitBatch, step: func() { c.Step() },
		receipt: c.Receipt, pending: c.PendingCount,
	}
	for round := 0; round < sz.rounds; round++ {
		batch, err := clientRound(r, sc, sz, round,
			func(ui int) ([][]byte, error) {
				return lang.EncodeArgsTEAL("checkin", api.Params, []lang.Value{
					lang.Uint64Value(uint64(ui)), lang.Uint64Value(uint64(round) + 1),
				})
			},
			func(ui int, args [][]byte) algorand.Group {
				call := &algorand.Tx{
					Type: algorand.TxAppCall, Sender: users[ui].Address,
					Fee: algorand.MinFee, AppID: apps[ui%len(apps)], Args: args,
				}
				call.Sign(users[ui])
				return algorand.Group{call}
			},
			func(g algorand.Group) algorand.Group {
				bad := *g[0]
				bad.Sig = forge(bad.Sig)
				return algorand.Group{&bad}
			})
		if err != nil {
			r.fail("round %d: encode: %v", round, err)
			return r
		}
		if !runRound(r, sc, b, round, sz.forged, batch) {
			return r
		}
	}
	if sc != nil {
		shardLayers(r, stats0, c.ShardStats())
	}
	digest, root := c.Digest(), c.StateRoot()
	r.fingerprint["digest"] = fmt.Sprintf("%x", digest[:])
	r.fingerprint["state_root"] = fmt.Sprintf("%x", root[:])
	r.heapBytes = liveHeap()
	runtime.KeepAlive(c)

	reopened := reopenAlgorand(r, sc, c, e.seed)
	if sc != nil && reopened != nil {
		timeEmptySteps(r, "algorand", func() { reopened.Step() })
	}
	return r
}

// deployAVM creates one check-in application per area through the batched
// submission path and returns the application ids.
func deployAVM(c *algorand.Chain, compiled *lang.Compiled, areas int, deployer *algorand.Account) ([]uint64, error) {
	groups := make([]algorand.Group, areas)
	for i := range groups {
		args, err := lang.EncodeArgsTEAL("", compiled.Program.Ctor.Params,
			[]lang.Value{lang.BytesValue([]byte(areaCode(i)))})
		if err != nil {
			return nil, err
		}
		tx := &algorand.Tx{Type: algorand.TxAppCreate, Sender: deployer.Address, Fee: algorand.MinFee,
			Source: compiled.TEALSource, Args: args}
		tx.Sign(deployer)
		groups[i] = algorand.Group{tx}
	}
	hashes, errs := c.SubmitBatch(groups)
	if err := firstErr(errs); err != nil {
		return nil, fmt.Errorf("deploy: %w", err)
	}
	for i := 0; i < areas+10 && c.PendingCount() > 0; i++ {
		c.Step()
	}
	apps := make([]uint64, areas)
	for i, h := range hashes {
		rc, ok := c.Receipt(h)
		if !ok || rc.Reverted {
			return nil, fmt.Errorf("deployment of area %d did not land", i)
		}
		id, err := avm.Btoi(rc.ReturnValue)
		if err != nil {
			return nil, fmt.Errorf("deployment of area %d: %w", i, err)
		}
		apps[i] = id
	}
	return apps, nil
}

// reopenAlgorand is reopenEVM for the Algorand backend.
func reopenAlgorand(r *repeat, sc *obs.Scope, c *algorand.Chain, seed uint64) *algorand.Chain {
	ck, err := c.Checkpoint()
	if err != nil {
		r.fail("checkpoint: %v", err)
		return nil
	}
	store := mstate.NewMemStore()
	committed, err := c.CommitState(store)
	if err != nil {
		r.fail("commit state: %v", err)
		return nil
	}
	var c2 *algorand.Chain
	ok := timeReopens(r, reopens, c.StateRoot(), c.Digest(), func() (time.Duration, chain.Hash32, chain.Hash32, error) {
		t := time.Now()
		sp := sc.Start("algorand.open")
		c2, err = algorand.Open(algorand.Options{Config: c.Config(), Seed: seed, Store: store, Root: committed, Checkpoint: ck})
		sp.End()
		if err != nil {
			return 0, chain.Hash32{}, chain.Hash32{}, err
		}
		root := c2.StateRoot()
		return time.Since(t), root, c2.Digest(), nil
	})
	if !ok {
		return nil
	}
	return c2
}
