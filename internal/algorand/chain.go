package algorand

import (
	"crypto/ed25519"
	"encoding/binary"
	"errors"
	"fmt"
	"time"

	"agnopol/internal/avm"
	"agnopol/internal/chain"
	"agnopol/internal/faults"
	"agnopol/internal/obs"
	"agnopol/internal/polcrypto"
)

// TxType discriminates transaction kinds.
type TxType int

// Transaction kinds.
const (
	TxPay TxType = iota
	TxAppCreate
	TxAppCall
	TxAssetCreate
	TxAssetOptIn
	TxAssetTransfer
)

// Tx is one Algorand transaction.
type Tx struct {
	Type   TxType
	Sender chain.Address
	Fee    uint64

	// Payment fields.
	Receiver chain.Address
	Amount   uint64

	// Application fields.
	AppID        uint64 // 0 for create
	Source       string // TEAL source, for create
	Args         [][]byte
	OnCompletion uint64

	// Asset fields (ASA extension, §2.8). Amount doubles as the asset
	// amount for transfers and the total supply for creation.
	AssetID       uint64
	AssetName     string
	AssetUnit     string
	AssetDecimals uint32

	PubKey ed25519.PublicKey
	Sig    []byte
}

func (tx *Tx) sigMessage() []byte {
	var buf []byte
	buf = append(buf, byte(tx.Type))
	buf = append(buf, tx.Sender[:]...)
	var n [8]byte
	binary.BigEndian.PutUint64(n[:], tx.Fee)
	buf = append(buf, n[:]...)
	buf = append(buf, tx.Receiver[:]...)
	binary.BigEndian.PutUint64(n[:], tx.Amount)
	buf = append(buf, n[:]...)
	binary.BigEndian.PutUint64(n[:], tx.AppID)
	buf = append(buf, n[:]...)
	binary.BigEndian.PutUint64(n[:], tx.AssetID)
	buf = append(buf, n[:]...)
	buf = append(buf, tx.AssetName...)
	buf = append(buf, tx.AssetUnit...)
	binary.BigEndian.PutUint64(n[:], uint64(tx.AssetDecimals))
	buf = append(buf, n[:]...)
	buf = append(buf, tx.Source...)
	for _, a := range tx.Args {
		buf = append(buf, a...)
	}
	h := polcrypto.Hash(buf)
	return h[:]
}

// Sign attaches the sender's signature.
func (tx *Tx) Sign(acct *Account) {
	tx.PubKey = acct.Key.Public
	tx.Sig = acct.Key.Sign(tx.sigMessage())
}

// Verify checks the signature.
func (tx *Tx) Verify() error {
	if chain.AddressFromPublicKey(tx.PubKey) != tx.Sender {
		return errors.New("algorand: sender does not match public key")
	}
	if !polcrypto.Verify(tx.PubKey, tx.sigMessage(), tx.Sig) {
		return polcrypto.ErrBadSignature
	}
	return nil
}

// Group is an atomic transaction group.
type Group []*Tx

// verify checks every member's signature.
func (g Group) verify() error {
	for _, tx := range g {
		if err := tx.Verify(); err != nil {
			return err
		}
	}
	return nil
}

// Hash identifies the group.
func (g Group) Hash() chain.Hash32 {
	var buf []byte
	for _, tx := range g {
		buf = append(buf, tx.sigMessage()...)
		buf = append(buf, tx.Sig...)
	}
	return chain.Hash32(polcrypto.Hash(buf))
}

// Block is one certified round.
type Block struct {
	Round    uint64
	Time     time.Duration
	Seed     chain.Hash32
	PrevSeed chain.Hash32
	Proposer Credential
	Cert     *Certificate
	Groups   []chain.Hash32
	// StateRoot is the ledger's Merkle root after this round executed —
	// part of the block hash, so a single state divergence anywhere in
	// the world makes every subsequent block hash differ.
	StateRoot chain.Hash32
	Hash      chain.Hash32
}

type pendingGroup struct {
	group     Group
	submitted time.Duration
	// delayed marks a group whose propagation was pushed back by an
	// injected tx_delay fault; inclusion counts as the recovery.
	delayed bool
}

// Chain is the simulated Algorand network.
type Chain struct {
	cfg   Config
	clock *chain.Clock
	rng   *chain.Rand
	led   *ledger

	participants []*Participant
	partsByAddr  map[chain.Address]*Participant
	totalStake   uint64

	blocks   []*Block
	pending  []*pendingGroup
	receipts map[chain.Hash32]*chain.Receipt
	feeSink  chain.Address

	// rcpts folds every included receipt in round order; Digest includes
	// it so pruned receipts still count.
	rcpts chain.ReceiptAcc
	// retention bounds how many certified rounds (and their receipts)
	// stay resident; <=0 keeps everything.
	retention int

	// obs holds the chain's instrumentation; nil when uninstrumented.
	obs *chainObs

	// flt injects deterministic faults at the pending pool; nil when
	// fault injection is off.
	flt *faults.Injector

	// Sharding is the execution fan-out Step may use and its tallies.
	chain.Sharding

	// clientRng is the pre-forked stream clients draw their simulated
	// RPC/indexer latencies from; see newChain for why it is not forked
	// lazily. Every client attached to the chain shares it.
	clientRng *chain.Rand
}

// NewChain builds a network from a preset and seed. It is a thin
// wrapper over Open's in-memory path; chains that should restart from a
// committed state root go through Open directly.
func NewChain(cfg Config, seed uint64) *Chain {
	c, err := Open(Options{Config: cfg, Seed: seed})
	if err != nil {
		// Unreachable: the in-memory path has no failure modes.
		panic("algorand: " + err.Error())
	}
	return c
}

func newChain(cfg Config, seed uint64) *Chain {
	c := &Chain{
		cfg:         cfg,
		clock:       chain.NewClock(),
		rng:         chain.NewRand(seed).Fork("algorand:" + cfg.Name),
		led:         newLedger(),
		partsByAddr: make(map[chain.Address]*Participant),
		receipts:    make(map[chain.Hash32]*chain.Receipt),
		feeSink:     chain.AddressFromBytes([]byte("algorand-fee-sink")),
	}
	// Pre-fork the client stream at a fixed point in construction:
	// forking consumes a draw from the chain rng, and a lazy fork in
	// NewClient would make the chain's stream position depend on whether
	// — and when — a client is attached. A chain reopened from a
	// checkpoint re-forks this stream at the same point, so attaching a
	// client never perturbs the restored rng state.
	c.clientRng = c.rng.Fork("client")
	keyRng := c.rng.Fork("participants")
	stakeRng := c.rng.Fork("stakes")
	for i := 0; i < cfg.ParticipantCount; i++ {
		kp := polcrypto.MustGenerateKeyPair(keyRng)
		p := &Participant{
			Key:     kp,
			Address: chain.AddressFromPublicKey(kp.Public),
			// Pure PoS: no minimum stake; spread stakes over an order of
			// magnitude.
			Stake: 1000 + stakeRng.Uint64n(9000),
		}
		c.participants = append(c.participants, p)
		c.partsByAddr[p.Address] = p
		c.totalStake += p.Stake
	}
	genesis := &Block{Round: 0, Time: 0}
	genesis.Seed = chain.Hash32(polcrypto.Hash([]byte("algorand-genesis:" + cfg.Name)))
	genesis.Hash = genesis.Seed
	c.blocks = append(c.blocks, genesis)
	return c
}

// Config returns the network configuration.
func (c *Chain) Config() Config { return c.cfg }

// SetFaults attaches a fault injector to the pending pool.
func (c *Chain) SetFaults(inj *faults.Injector) { c.flt = inj }

// Faults returns the attached fault injector, nil when off.
func (c *Chain) Faults() *faults.Injector { return c.flt }

// Now returns current simulated time.
func (c *Chain) Now() time.Duration { return c.clock.Now() }

// Head returns the latest certified block.
func (c *Chain) Head() *Block { return c.blocks[len(c.blocks)-1] }

// NewAccount creates and funds an account. Funding zero is a no-op —
// it must not create a phantom zero-balance ledger entry.
func (c *Chain) NewAccount(microAlgos uint64) *Account {
	kp := polcrypto.MustGenerateKeyPair(c.rng.Fork("account"))
	addr := chain.AddressFromPublicKey(kp.Public)
	c.led.credit(addr, microAlgos)
	return &Account{Key: kp, Address: addr}
}

// Balance returns an account balance as an Amount.
func (c *Chain) Balance(addr chain.Address) chain.Amount {
	return chain.NewAmount(microToBig(c.led.Balance(addr)), c.cfg.Unit)
}

// StateRoot returns the current Merkle root of the ledger.
func (c *Chain) StateRoot() chain.Hash32 { return c.led.root() }

// SetRetention bounds how many certified rounds (blocks plus their
// receipts) stay resident; n <= 0 keeps everything. Digest is unaffected:
// receipts fold into a rolling accumulator at inclusion time and the
// world state enters through the Merkle root.
func (c *Chain) SetRetention(n int) { c.retention = n }

// AppAddress returns the escrow address of an application.
func (c *Chain) AppAddress(appID uint64) chain.Address { return c.led.AppAddress(appID) }

// AppGlobal reads one global state entry of an application.
func (c *Chain) AppGlobal(appID uint64, key string) (avm.Value, bool) {
	return c.led.GlobalGet(appID, key)
}

// App returns a deployed application.
func (c *Chain) App(appID uint64) (*App, bool) {
	a := c.led.app(appID)
	if a == nil {
		return nil, false
	}
	return a, true
}

// Submit queues a signed group for the next round.
func (c *Chain) Submit(g Group) (chain.Hash32, error) {
	if err := g.verify(); err != nil {
		return chain.Hash32{}, err
	}
	return c.submitVerified(g)
}

// submitVerified runs the admission checks past signature verification and
// queues the group. SubmitBatch calls it after verifying signatures
// concurrently; the checks and fault draws here must stay serial, in
// submission order, so batched and one-by-one submission build the same
// pending pool and consume the same fault streams.
func (c *Chain) submitVerified(g Group) (chain.Hash32, error) {
	if len(g) == 0 {
		return chain.Hash32{}, errors.New("algorand: empty group")
	}
	for _, tx := range g {
		if tx.Fee < MinFee {
			return chain.Hash32{}, fmt.Errorf("algorand: fee %d below min fee %d", tx.Fee, MinFee)
		}
	}
	if err := c.flt.Try(faults.ClassTxDrop, "algorand.pending"); err != nil {
		// The node accepted the RPC but the group never propagates; the
		// submitter's retry layer recovers by resubmitting.
		return chain.Hash32{}, err
	}
	p := &pendingGroup{group: g, submitted: c.clock.Now()}
	if hit, mag := c.flt.Draw(faults.ClassTxDelay, "algorand.pending"); hit {
		// Propagation stalls for up to three rounds; inclusion is the
		// recovery.
		stall := time.Duration(mag * float64(3*c.cfg.RoundDuration))
		p.submitted += stall
		p.delayed = true
		if c.obs != nil {
			c.obs.faultDelay.ObserveDuration(stall)
		}
	}
	c.pending = append(c.pending, p)
	if c.obs != nil {
		c.obs.groupsSubmitted.Inc()
		c.obs.pendingDepth.Set(float64(len(c.pending)))
	}
	return g.Hash(), nil
}

// Receipt returns the receipt of a processed group.
func (c *Chain) Receipt(h chain.Hash32) (*chain.Receipt, bool) {
	r, ok := c.receipts[h]
	return r, ok
}

// Step runs one consensus round: sortition selects the proposer and
// committee, the proposer assembles the block from all propagated groups
// (capacity is never the bottleneck at our scale), the committee certifies,
// and the block is final immediately.
func (c *Chain) Step() *Block {
	roundNum := c.Head().Round + 1
	roundTime := time.Duration(roundNum) * c.cfg.RoundDuration
	c.clock.AdvanceTo(roundTime)
	prev := c.Head()

	// Leader selection by VRF sortition; lowest sub-user priority wins.
	propSeed := sortitionSeed(prev.Seed, roundNum, "propose")
	candidates := runSortition(c.participants, c.totalStake, propSeed, c.cfg.ExpectedProposers)
	if len(candidates) == 0 {
		// No proposer selected this round (possible with small expected
		// sizes): empty round, seed still advances.
		candidates = runSortition(c.participants, c.totalStake, propSeed, float64(len(c.participants)))
	}
	leader := candidates[0]
	best := proposalPriority(leader)
	for _, cand := range candidates[1:] {
		if p := proposalPriority(cand); lessBytes(p[:], best[:]) {
			leader, best = cand, p
		}
	}

	c.led.round = roundNum
	c.led.time = uint64(roundTime / time.Second)

	blk := &Block{
		Round:    roundNum,
		Time:     roundTime,
		PrevSeed: prev.Seed,
		Proposer: leader,
	}
	blk.Seed = chain.Hash32(polcrypto.Hash(prev.Seed[:], leader.Output[:]))

	// Selection: every propagated group is included (capacity is never the
	// bottleneck at our scale); execution fans out across shards when the
	// round allows it, then the merge applies deferred effects in
	// canonical order.
	var remaining, sel []*pendingGroup
	for _, p := range c.pending {
		if p.submitted >= roundTime {
			remaining = append(remaining, p)
			continue
		}
		sel = append(sel, p)
	}
	c.pending = remaining

	receipts, effects := c.applyRound(sel, blk)
	for i, p := range sel {
		rcpt := receipts[i]
		rcpt.Submitted = p.submitted
		c.receipts[p.group.Hash()] = rcpt
		c.rcpts.Fold(p.group.Hash(), rcpt, (*bigInt).Bytes)
		blk.Groups = append(blk.Groups, p.group.Hash())
		// Deferred globals from executeGroup, applied in round order.
		c.led.credit(c.feeSink, effects[i].feeSink)
		if c.obs != nil && effects[i].fees > 0 {
			c.obs.fees.Add(effects[i].fees)
		}
		if p.delayed {
			c.flt.Recover(faults.ClassTxDelay)
		}
		if c.obs != nil {
			c.obs.groupsIncluded.Inc()
			c.obs.inclusionLatency.Observe((blk.Time - p.submitted).Seconds())
			c.obs.inclusionSketch.Observe((blk.Time - p.submitted).Seconds())
			if rcpt.Reverted {
				c.obs.groupsRejected.Inc()
				c.obs.log.Warn("group rejected", "chain", c.cfg.Name,
					"round", blk.Round, "reason", rcpt.RevertMsg)
			}
		}
	}

	blk.StateRoot = c.led.root()
	blk.Hash = chain.Hash32(polcrypto.Hash(blk.Seed[:], hashGroups(blk.Groups), blk.StateRoot[:]))

	// Committee certification: BA voting steps run until the accumulated
	// sortition weight reaches the certification threshold.
	cert := &Certificate{BlockHash: blk.Hash}
	need := uint64(c.cfg.CertThreshold * c.cfg.ExpectedCommittee)
	weight := uint64(0)
	for step := uint64(0); weight < need && step < 16; step++ {
		comSeed := committeeSeed(prev.Seed, roundNum, step)
		committee := runSortition(c.participants, c.totalStake, comSeed, c.cfg.ExpectedCommittee)
		for _, cred := range committee {
			p := c.partsByAddr[cred.Participant]
			msg := append(append([]byte("vote:"), blk.Hash[:]...), comSeed...)
			cert.Votes = append(cert.Votes, Vote{
				Credential: cred,
				BlockHash:  blk.Hash,
				Step:       step,
				Signature:  p.Key.Sign(msg),
			})
			weight += cred.SubUsers
		}
	}
	blk.Cert = cert
	c.blocks = append(c.blocks, blk)
	c.pruneRetention()
	if c.obs != nil {
		c.obs.roundsCertified.Inc()
		c.obs.certVotes.Add(uint64(len(cert.Votes)))
		c.obs.pendingDepth.Set(float64(len(c.pending)))
		if c.obs.log.Enabled(obs.LevelDebug) {
			c.obs.log.Debug("round certified", "chain", c.cfg.Name,
				"round", blk.Round, "groups", len(blk.Groups), "votes", len(cert.Votes))
		}
	}
	return blk
}

// pruneRetention drops certified rounds (and their receipts) beyond the
// retention window. The ledger itself is untouched — live state is in the
// trie — so memory is bounded by live accounts and app state, not by how
// long the chain has run.
func (c *Chain) pruneRetention() {
	if c.retention <= 0 || len(c.blocks) <= c.retention {
		return
	}
	drop := len(c.blocks) - c.retention
	for _, blk := range c.blocks[:drop] {
		for _, h := range blk.Groups {
			delete(c.receipts, h)
		}
	}
	kept := make([]*Block, c.retention)
	copy(kept, c.blocks[drop:])
	c.blocks = kept
}

func hashGroups(hs []chain.Hash32) []byte {
	var buf []byte
	for _, h := range hs {
		buf = append(buf, h[:]...)
	}
	sum := polcrypto.Hash(buf)
	return sum[:]
}

// executeGroup applies one atomic group on top of parent — the canonical
// ledger on the serial path, a shard's overlay on the sharded one. The
// group runs on an overlay forked over parent, so on any failure the
// whole group rolls back by discarding it; fees are then charged from a
// fresh fork where the pre-group balance allows (the network did the
// work). A rolled-back creation also rewinds the app/asset sequence
// counters and prunes the ledger caches, so the next creation reuses the
// ID. The fee-sink credit and fee counter are returned as effects for
// Step's canonical merge. Creation and asset groups only reach here in
// serial rounds (see applyRound).
func (c *Chain) executeGroup(parent ledgerView, g Group, blk *Block) (*chain.Receipt, groupEffects) {
	rcpt := &chain.Receipt{
		TxHash:      g.Hash(),
		BlockNumber: blk.Round,
		Included:    blk.Time,
	}
	var eff groupEffects

	totalFee := uint64(0)
	for _, tx := range g {
		totalFee += tx.Fee
	}

	o := parent.fork()

	// Fees first; insufficient fee balance fails the group outright.
	for _, tx := range g {
		bal := o.Balance(tx.Sender)
		if bal < tx.Fee {
			rcpt.Reverted = true
			rcpt.RevertMsg = "insufficient balance for fee"
			rcpt.Fee = chain.NewAmount(microToBig(0), c.cfg.Unit)
			return rcpt, eff
		}
		o.setBalance(tx.Sender, bal-tx.Fee)
	}
	eff.fees = totalFee

	// The group's payment (if any) feeds `gtxn 0 Amount`.
	payAmount := uint64(0)

	var prof obs.Profiler
	if c.obs != nil {
		prof = c.obs.prof
	}

	appSeq, assetSeq := c.led.appSeq, c.led.assetSeq
	err := func() error {
		for _, tx := range g {
			switch tx.Type {
			case TxPay:
				if err := o.Pay(tx.Sender, tx.Receiver, tx.Amount); err != nil {
					return err
				}
				payAmount = tx.Amount
			case TxAppCreate:
				prog, err := avm.Parse(tx.Source)
				if err != nil {
					return fmt.Errorf("algorand: approval program: %w", err)
				}
				id := o.createApp(tx.Sender, tx.Source, prog, blk.Round)
				res := avm.Execute(prog, o, avm.TxContext{
					Sender: tx.Sender, AppID: id, CreateMode: true,
					Args: tx.Args, PayAmount: payAmount, Fee: tx.Fee,
					BudgetTxns: len(g), Profiler: prof,
				})
				rcpt.GasUsed += res.Cost
				rcpt.Logs = append(rcpt.Logs, res.Logs...)
				if !res.Approved {
					return fmt.Errorf("algorand: creation rejected: %w", errOf(res))
				}
				rcpt.ReturnValue = appIDBytes(id)
			case TxAssetCreate:
				a := o.assetCreate(tx.Sender, tx.AssetName, tx.AssetUnit, tx.Amount, tx.AssetDecimals, blk.Round)
				rcpt.ReturnValue = avm.Itob(a.ID)
			case TxAssetOptIn:
				if !o.assetExists(tx.AssetID) {
					return fmt.Errorf("%w: %d", ErrAssetNotFound, tx.AssetID)
				}
				if o.assetOptedIn(tx.Sender, tx.AssetID) {
					return fmt.Errorf("%w: %s / asset %d", ErrAlreadyOptedIn, tx.Sender, tx.AssetID)
				}
				o.assetOptIn(tx.Sender, tx.AssetID)
			case TxAssetTransfer:
				if err := o.assetTransfer(tx.AssetID, tx.Sender, tx.Receiver, tx.Amount); err != nil {
					return err
				}
			case TxAppCall:
				app := o.app(tx.AppID)
				if app == nil {
					return fmt.Errorf("algorand: no application %d", tx.AppID)
				}
				res := avm.Execute(app.Program, o, avm.TxContext{
					Sender: tx.Sender, AppID: tx.AppID,
					Args: tx.Args, OnCompletion: tx.OnCompletion,
					PayAmount: payAmount, Fee: tx.Fee,
					BudgetTxns: len(g), Profiler: prof,
				})
				rcpt.GasUsed += res.Cost
				rcpt.Logs = append(rcpt.Logs, res.Logs...)
				if !res.Approved {
					return fmt.Errorf("algorand: call rejected: %w", errOf(res))
				}
				if res.Return != nil {
					rcpt.ReturnValue = res.Return
				}
			}
		}
		return nil
	}()

	if err != nil {
		// Discard the group's overlay and any creations it made —
		// everything except the fees rolls back — then re-charge fees
		// where the pre-group balance allows. Shard workers never create,
		// so the sequence check keeps them read-only on the ledger.
		if c.led.appSeq != appSeq || c.led.assetSeq != assetSeq {
			c.led.rollbackCreations(appSeq, assetSeq)
		}
		fees := make(map[chain.Address]uint64)
		for _, tx := range g {
			fees[tx.Sender] += tx.Fee
		}
		o = parent.fork()
		for addr, fee := range fees {
			if bal := o.Balance(addr); bal >= fee {
				o.setBalance(addr, bal-fee)
				eff.feeSink += fee
			}
		}
		rcpt.Reverted = true
		rcpt.RevertMsg = err.Error()
	} else {
		eff.feeSink = totalFee
	}
	parent.adopt(o)
	rcpt.Fee = chain.NewAmount(microToBig(totalFee), c.cfg.Unit)
	return rcpt, eff
}

func errOf(res avm.Result) error {
	if res.Err != nil {
		return res.Err
	}
	return avm.ErrRejected
}

func appIDBytes(id uint64) []byte {
	return avm.Itob(id)
}

func microToBig(v uint64) *bigInt { return newBigInt(v) }
