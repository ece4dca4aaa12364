package eth

import (
	"crypto/ed25519"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"math/big"
	"sort"
	"time"

	"agnopol/internal/chain"
	"agnopol/internal/evm"
	"agnopol/internal/faults"
	"agnopol/internal/obs"
	"agnopol/internal/polcrypto"
)

// Tx is an EIP-1559-style transaction.
type Tx struct {
	From     chain.Address
	Nonce    uint64
	To       *chain.Address // nil deploys a contract
	Value    *big.Int
	Data     []byte
	GasLimit uint64
	MaxFee   *big.Int // max total fee per gas
	MaxTip   *big.Int // max priority fee per gas
	PubKey   ed25519.PublicKey
	Sig      []byte
}

// Hash returns the transaction hash.
func (tx *Tx) Hash() chain.Hash32 {
	return chain.Hash32(polcrypto.Hash(tx.sigMessage(), tx.Sig))
}

func (tx *Tx) sigMessage() []byte {
	var buf []byte
	buf = append(buf, tx.From[:]...)
	var n [8]byte
	binary.BigEndian.PutUint64(n[:], tx.Nonce)
	buf = append(buf, n[:]...)
	if tx.To != nil {
		buf = append(buf, tx.To[:]...)
	}
	buf = append(buf, tx.Value.Bytes()...)
	buf = append(buf, tx.Data...)
	binary.BigEndian.PutUint64(n[:], tx.GasLimit)
	buf = append(buf, n[:]...)
	buf = append(buf, tx.MaxFee.Bytes()...)
	buf = append(buf, tx.MaxTip.Bytes()...)
	h := polcrypto.Hash(buf)
	return h[:]
}

// Sign attaches the account's signature and public key.
func (tx *Tx) Sign(acct *Account) {
	tx.PubKey = acct.Key.Public
	tx.Sig = acct.Key.Sign(tx.sigMessage())
}

// Verify checks the signature and that the sender address matches the key.
func (tx *Tx) Verify() error {
	if chain.AddressFromPublicKey(tx.PubKey) != tx.From {
		return errors.New("eth: sender address does not match public key")
	}
	if !polcrypto.Verify(tx.PubKey, tx.sigMessage(), tx.Sig) {
		return polcrypto.ErrBadSignature
	}
	return nil
}

// Attestation is a committee member's vote on a block.
type Attestation struct {
	Validator chain.Address
	Signature []byte
}

// Block is a produced block.
type Block struct {
	Number     uint64
	Time       time.Duration
	ParentHash chain.Hash32
	Hash       chain.Hash32
	Proposer   chain.Address
	BaseFee    *big.Int
	GasUsed    uint64
	// StateRoot is the Merkle root of the world state after executing
	// this block; it is part of the block hash.
	StateRoot    chain.Hash32
	TxHashes     []chain.Hash32
	Attestations []Attestation
}

// Validator is a staked consensus participant.
type Validator struct {
	Key     *polcrypto.KeyPair
	Address chain.Address
	Stake   uint64
}

type pendingTx struct {
	tx        *Tx
	submitted time.Duration
	// delayed marks a transaction whose propagation was pushed back by an
	// injected tx_delay fault; inclusion counts as the recovery.
	delayed bool
}

// Chain is one simulated Ethereum-family network.
type Chain struct {
	cfg        Config
	clock      *chain.Clock
	rng        *chain.Rand
	st         *state
	blocks     []*Block
	mempool    []*pendingTx
	receipts   map[chain.Hash32]*chain.Receipt
	validators []*Validator
	baseFee    *big.Int

	justified uint64
	finalized uint64

	// spikeBlocksLeft tracks the remaining blocks of an ongoing
	// congestion episode.
	spikeBlocksLeft int
	// faultSpike marks the current episode as fault-injected; its end is
	// the recovery.
	faultSpike bool

	// flt injects deterministic faults at the mempool and demand model;
	// nil when fault injection is off.
	flt *faults.Injector

	// history is the explorer's transaction log (Fig. 3.1).
	history []TxRecord

	burned *big.Int
	tipped *big.Int

	// rcpts folds every included receipt in canonical block order.
	rcpts chain.ReceiptAcc

	// retention caps how many recent blocks keep their receipts and
	// explorer rows; <= 0 retains everything.
	retention int

	// Sharding is the execution fan-out Step may use and its tallies.
	chain.Sharding

	// clientRng is the pre-forked stream clients draw their simulated
	// RPC/API latencies from; see newChain for why it is not forked
	// lazily. Every client attached to the chain shares it.
	clientRng *chain.Rand

	// obs holds the chain's instrumentation; nil when uninstrumented.
	obs *chainObs
}

// NewChain creates a network from a preset and a deterministic seed. It
// is a thin wrapper over Open's in-memory path; chains that should
// restart from a committed state root go through Open directly.
func NewChain(cfg Config, seed uint64) *Chain {
	c, err := Open(Options{Config: cfg, Seed: seed})
	if err != nil {
		// Unreachable: the in-memory path has no failure modes.
		panic("eth: " + err.Error())
	}
	return c
}

func newChain(cfg Config, seed uint64) *Chain {
	c := &Chain{
		cfg:      cfg,
		clock:    chain.NewClock(),
		rng:      chain.NewRand(seed).Fork("eth:" + cfg.Name),
		st:       newState(),
		receipts: make(map[chain.Hash32]*chain.Receipt),
		baseFee:  new(big.Int).Set(cfg.InitialBaseFee),
		burned:   new(big.Int),
		tipped:   new(big.Int),
	}
	// The client stream is forked here, at a fixed point in construction,
	// rather than lazily in NewClient: forking consumes a draw from the
	// chain rng, and a lazy fork would make the chain's stream position
	// depend on whether — and when — a client is attached. A chain
	// reopened from a checkpoint re-forks this stream at the same point,
	// so attaching a client to it never perturbs the restored rng state.
	c.clientRng = c.rng.Fork("client")
	keyRng := c.rng.Fork("validators")
	for i := 0; i < cfg.ValidatorCount; i++ {
		kp := polcrypto.MustGenerateKeyPair(keyRng)
		c.validators = append(c.validators, &Validator{
			Key:     kp,
			Address: chain.AddressFromPublicKey(kp.Public),
			Stake:   32, // every validator stakes exactly 32 ETH
		})
	}
	genesis := &Block{Number: 0, Time: 0, BaseFee: new(big.Int).Set(cfg.InitialBaseFee)}
	genesis.Hash = chain.Hash32(polcrypto.Hash([]byte("genesis:" + cfg.Name)))
	c.blocks = append(c.blocks, genesis)
	return c
}

// Config returns the network configuration.
func (c *Chain) Config() Config { return c.cfg }

// SetFaults attaches a fault injector to the mempool and demand model.
func (c *Chain) SetFaults(inj *faults.Injector) { c.flt = inj }

// Faults returns the attached fault injector, nil when off.
func (c *Chain) Faults() *faults.Injector { return c.flt }

// Now returns the current simulated time.
func (c *Chain) Now() time.Duration { return c.clock.Now() }

// BaseFee returns the current base fee per gas in wei.
func (c *Chain) BaseFee() *big.Int { return new(big.Int).Set(c.baseFee) }

// Head returns the latest block.
func (c *Chain) Head() *Block { return c.blocks[len(c.blocks)-1] }

// FinalizedBlock returns the number of the last finalized checkpoint block.
func (c *Chain) FinalizedBlock() uint64 { return c.finalized }

// BurnedAndTipped reports the cumulative burned base fees and proposer tips.
func (c *Chain) BurnedAndTipped() (burned, tipped *big.Int) {
	return new(big.Int).Set(c.burned), new(big.Int).Set(c.tipped)
}

// NewAccount creates and funds an externally-owned account.
func (c *Chain) NewAccount(balance *big.Int) *Account {
	kp := polcrypto.MustGenerateKeyPair(c.rng.Fork("account"))
	addr := chain.AddressFromPublicKey(kp.Public)
	if balance != nil && balance.Sign() > 0 {
		c.st.AddBalance(addr, balance)
	}
	return &Account{Key: kp, Address: addr}
}

// Balance returns an address's balance as an Amount in the chain's unit.
func (c *Chain) Balance(addr chain.Address) chain.Amount {
	return chain.NewAmount(c.st.GetBalance(addr), c.cfg.Unit)
}

// StorageAt reads one raw storage word of a contract — the eth_getStorageAt
// facility connectors use for free state reads.
func (c *Chain) StorageAt(addr chain.Address, key chain.Hash32) chain.Hash32 {
	return c.st.GetStorage(addr, key)
}

// ContractCode returns the deployed code at an address, if any.
func (c *Chain) ContractCode(addr chain.Address) ([]byte, bool) {
	return c.st.Code(addr)
}

// StateRoot returns the Merkle root of the current world state.
func (c *Chain) StateRoot() chain.Hash32 { return c.st.Root() }

// SetRetention keeps receipts, explorer history and block bodies only for
// the most recent n blocks; n <= 0 (the default) retains everything.
// Long soaks set a small window so memory is bounded by live state, not
// by rounds: the digest is unaffected because receipts fold into the
// rolling accumulator at inclusion time.
func (c *Chain) SetRetention(n int) { c.retention = n }

// Submit errors.
var (
	ErrUnderpriced      = errors.New("eth: max fee below base fee floor")
	ErrInsufficientEth  = errors.New("eth: insufficient balance for gas + value")
	ErrNonceTooLow      = errors.New("eth: nonce too low")
	ErrGasLimitTooLow   = errors.New("eth: gas limit below intrinsic cost")
	ErrGasAboveBlockCap = errors.New("eth: gas limit exceeds block gas limit")
)

// Submit validates a signed transaction and queues it. The returned hash
// identifies the eventual receipt.
func (c *Chain) Submit(tx *Tx) (chain.Hash32, error) {
	if err := tx.Verify(); err != nil {
		return chain.Hash32{}, err
	}
	return c.submitVerified(tx)
}

// submitVerified runs the admission checks past signature verification and
// queues the transaction. SubmitBatch calls it after verifying signatures
// concurrently; the checks and fault draws here must stay serial, in
// submission order, so batched and one-by-one submission build the same
// mempool and consume the same fault streams.
func (c *Chain) submitVerified(tx *Tx) (chain.Hash32, error) {
	if tx.GasLimit > c.cfg.BlockGasLimit {
		return chain.Hash32{}, ErrGasAboveBlockCap
	}
	intrinsic := evm.IntrinsicGas(tx.Data, tx.To == nil)
	if tx.GasLimit < intrinsic {
		return chain.Hash32{}, fmt.Errorf("%w: limit %d < intrinsic %d", ErrGasLimitTooLow, tx.GasLimit, intrinsic)
	}
	if tx.MaxFee.Cmp(c.cfg.MinBaseFee) < 0 {
		return chain.Hash32{}, ErrUnderpriced
	}
	if n := c.st.Nonce(tx.From); tx.Nonce < n {
		return chain.Hash32{}, fmt.Errorf("%w: %d < %d", ErrNonceTooLow, tx.Nonce, n)
	}
	upfront := new(big.Int).Mul(tx.MaxFee, new(big.Int).SetUint64(tx.GasLimit))
	upfront.Add(upfront, tx.Value)
	if c.st.GetBalance(tx.From).Cmp(upfront) < 0 {
		return chain.Hash32{}, ErrInsufficientEth
	}
	if err := c.flt.Try(faults.ClassTxDrop, "eth.mempool"); err != nil {
		// The node accepted the RPC but the transaction never propagates;
		// the submitter's retry layer recovers by resubmitting.
		return chain.Hash32{}, err
	}
	p := &pendingTx{tx: tx, submitted: c.clock.Now()}
	if hit, mag := c.flt.Draw(faults.ClassTxDelay, "eth.mempool"); hit {
		// Propagation stalls for up to three slots before the transaction
		// becomes includable; inclusion is the recovery.
		stall := time.Duration(mag * float64(3*c.cfg.SlotDuration))
		p.submitted += stall
		p.delayed = true
		if c.obs != nil {
			c.obs.faultDelay.ObserveDuration(stall)
		}
	}
	c.mempool = append(c.mempool, p)
	if c.obs != nil {
		c.obs.txsSubmitted.Inc()
		c.obs.mempoolDepth.Set(float64(len(c.mempool)))
	}
	return tx.Hash(), nil
}

// PendingNonce is the next usable nonce for an account: the state nonce,
// advanced past any transactions already queued in the mempool.
func (c *Chain) PendingNonce(addr chain.Address) uint64 {
	n := c.st.Nonce(addr)
	for _, p := range c.mempool {
		if p.tx.From == addr && p.tx.Nonce >= n {
			n = p.tx.Nonce + 1
		}
	}
	return n
}

// Receipt returns the receipt for a transaction hash once included.
func (c *Chain) Receipt(h chain.Hash32) (*chain.Receipt, bool) {
	r, ok := c.receipts[h]
	return r, ok
}

// nextSlotTime is the production time of the next block.
func (c *Chain) nextSlotTime() time.Duration {
	return time.Duration(c.Head().Number+1) * c.cfg.SlotDuration
}

// Step produces the next block: selects the proposer, fills the block with
// background demand plus the queued client transactions that outbid it,
// executes them, collects committee attestations and updates the base fee.
func (c *Chain) Step() *Block {
	blockTime := c.nextSlotTime()
	c.clock.AdvanceTo(blockTime)
	parent := c.Head()

	proposer := c.pickProposer(parent.Hash, parent.Number+1)
	demand := c.backgroundDemand()

	blk := &Block{
		Number:     parent.Number + 1,
		Time:       blockTime,
		ParentHash: parent.Hash,
		Proposer:   proposer.Address,
		BaseFee:    new(big.Int).Set(c.baseFee),
	}

	// Highest tips first; FIFO within equal tips; nonces must be in order
	// per sender.
	sort.SliceStable(c.mempool, func(i, j int) bool {
		ti := effectiveTip(c.mempool[i].tx, c.baseFee)
		tj := effectiveTip(c.mempool[j].tx, c.baseFee)
		if cmp := ti.Cmp(tj); cmp != 0 {
			return cmp > 0
		}
		return c.mempool[i].submitted < c.mempool[j].submitted
	})
	// Selection pass: decide the block's transaction set before executing
	// anything. Capacity is reserved by gas limit, not actual usage, so
	// selection never depends on execution results and the set is the same
	// whether execution later runs serially or sharded. selNonces tracks
	// nonces consumed by earlier selections in this block; selSpend tracks
	// each sender's reserved upfront cost (maxFee·gasLimit + value) so a
	// sender whose balance shrank since admission — or who queued more
	// transactions than the balance covers — is deferred instead of being
	// executed into an overdraft.
	var (
		sel       []*pendingTx
		remaining []*pendingTx
		reserved  uint64
		selNonces map[chain.Address]uint64
		selSpend  map[chain.Address]*big.Int
	)
	nextNonce := func(a chain.Address) uint64 {
		if n, ok := selNonces[a]; ok {
			return n
		}
		return c.st.Nonce(a)
	}
	covered := func(tx *Tx) (*big.Int, bool) {
		upfront := new(big.Int).Mul(tx.MaxFee, new(big.Int).SetUint64(tx.GasLimit))
		upfront.Add(upfront, tx.Value)
		if prior, ok := selSpend[tx.From]; ok {
			upfront.Add(upfront, prior)
		}
		return upfront, upfront.Cmp(c.st.GetBalance(tx.From)) <= 0
	}
	for _, p := range c.mempool {
		tx := p.tx
		spend, affordable := covered(tx)
		switch {
		case p.submitted >= blockTime:
			// Not yet propagated when the block was built.
		case tx.MaxFee.Cmp(c.baseFee) < 0:
			// Base fee above the cap: wait for it to drop.
		case tx.Nonce != nextNonce(tx.From):
			// Nonce gap: wait for the earlier transaction.
		case !affordable:
			// The sender's balance no longer covers every selected
			// transaction's worst case; defer rather than overdraw.
		default:
			tip := effectiveTip(tx, c.baseFee)
			outbid := demand * math.Exp(-bigToFloat(tip)/bigToFloat(c.cfg.TipScale))
			if uint64(outbid)+reserved+tx.GasLimit <= c.cfg.BlockGasLimit {
				if selNonces == nil {
					selNonces = make(map[chain.Address]uint64)
					selSpend = make(map[chain.Address]*big.Int)
				}
				selNonces[tx.From] = tx.Nonce + 1
				selSpend[tx.From] = spend
				reserved += tx.GasLimit
				sel = append(sel, p)
				continue
			}
		}
		if c.obs != nil && p.submitted < blockTime {
			// Propagated but priced out (or nonce-gapped) this block.
			c.obs.txsDeferred.Inc()
		}
		remaining = append(remaining, p)
	}
	c.mempool = remaining

	// Execution (serial or sharded — applyBatch decides), then the
	// serialized merge in canonical order: receipts, proposer tip, burn
	// tally and explorer rows are applied exactly as the serial path would.
	receipts, effects := c.applyBatch(sel, blk)
	userGas := uint64(0)
	for i, p := range sel {
		tx := p.tx
		rcpt := receipts[i]
		rcpt.Submitted = p.submitted
		c.receipts[tx.Hash()] = rcpt
		c.rcpts.Fold(tx.Hash(), rcpt, encodeBalance)
		blk.TxHashes = append(blk.TxHashes, tx.Hash())
		userGas += rcpt.GasUsed
		eff := effects[i]
		c.st.AddBalance(blk.Proposer, eff.tip)
		c.burned.Add(c.burned, eff.burn)
		c.tipped.Add(c.tipped, eff.tip)
		if eff.record {
			c.recordTx(tx, rcpt, eff.target, eff.isCreate)
		}
		if p.delayed {
			c.flt.Recover(faults.ClassTxDelay)
		}
		if c.obs != nil {
			c.obs.txsIncluded.Inc()
			c.obs.inclusionLatency.Observe((blk.Time - p.submitted).Seconds())
		}
	}

	bg := uint64(demand)
	if bg+userGas > c.cfg.BlockGasLimit {
		bg = c.cfg.BlockGasLimit - userGas
	}
	blk.GasUsed = bg + userGas

	blk.StateRoot = c.st.Root()
	blk.Hash = blockHash(blk)
	blk.Attestations = c.attest(blk)
	c.blocks = append(c.blocks, blk)
	c.updateBaseFee(blk)
	c.updateFinality()
	c.pruneRetention()
	if c.obs != nil {
		c.obs.blocksProduced.Inc()
		c.obs.blockGasUsed.Add(blk.GasUsed)
		bf, _ := new(big.Float).SetInt(c.baseFee).Float64()
		c.obs.baseFee.Set(bf)
		c.obs.mempoolDepth.Set(float64(len(c.mempool)))
	}
	return blk
}

// effectiveTip is min(maxTip, maxFee - baseFee), the EIP-1559 priority fee
// the proposer actually receives.
func effectiveTip(tx *Tx, baseFee *big.Int) *big.Int {
	headroom := new(big.Int).Sub(tx.MaxFee, baseFee)
	if headroom.Sign() < 0 {
		return new(big.Int)
	}
	if headroom.Cmp(tx.MaxTip) > 0 {
		return new(big.Int).Set(tx.MaxTip)
	}
	return headroom
}

func bigToFloat(v *big.Int) float64 {
	f, _ := new(big.Float).SetInt(v).Float64()
	if f <= 0 {
		return 1
	}
	return f
}

// backgroundDemand samples the gas demanded by the rest of the network for
// the next block. Demand is lognormal around the configured mean; spike
// episodes multiply it for a geometric number of blocks.
func (c *Chain) backgroundDemand() float64 {
	mean := c.cfg.CongestionMeanGas
	if c.cfg.CongestionElasticity > 0 {
		ratio := bigToFloat(c.cfg.InitialBaseFee) / bigToFloat(c.baseFee)
		mean *= math.Pow(ratio, c.cfg.CongestionElasticity)
	}
	d := mean * math.Exp(c.cfg.CongestionSigma*c.rng.NormFloat64()-c.cfg.CongestionSigma*c.cfg.CongestionSigma/2)
	if c.spikeBlocksLeft == 0 {
		if hit, mag := c.flt.Draw(faults.ClassCongestion, "eth.demand"); hit {
			// Injected storm: blocks fill for one to five blocks; the
			// episode's end is the recovery.
			c.spikeBlocksLeft = 1 + int(mag*4)
			c.faultSpike = true
			if c.obs != nil {
				c.obs.congestionSpikes.Inc()
			}
		}
	}
	if c.spikeBlocksLeft > 0 {
		c.spikeBlocksLeft--
		if c.spikeBlocksLeft == 0 && c.faultSpike {
			c.faultSpike = false
			c.flt.Recover(faults.ClassCongestion)
		}
		return d * c.cfg.SpikeFactor
	}
	if c.rng.Float64() < c.cfg.SpikeProb {
		mean := c.cfg.SpikeBlocksMean
		if mean < 1 {
			mean = 1
		}
		c.spikeBlocksLeft = 1 + int(c.rng.ExpFloat64()*(mean-1)+0.5)
		c.spikeBlocksLeft--
		if c.obs != nil {
			c.obs.congestionSpikes.Inc()
		}
		return d * c.cfg.SpikeFactor
	}
	return d
}

// pickProposer performs the stake-weighted RANDAO-style proposer selection
// for a slot.
func (c *Chain) pickProposer(parentHash chain.Hash32, slot uint64) *Validator {
	var buf [8]byte
	binary.BigEndian.PutUint64(buf[:], slot)
	h := polcrypto.Hash(parentHash[:], buf[:])
	seed := binary.BigEndian.Uint64(h[:8])
	total := uint64(0)
	for _, v := range c.validators {
		total += v.Stake
	}
	target := seed % total
	acc := uint64(0)
	for _, v := range c.validators {
		acc += v.Stake
		if target < acc {
			return v
		}
	}
	return c.validators[len(c.validators)-1]
}

// attest collects the slot committee's signatures over the block hash. The
// simulator's validators are honest, so a supermajority always attests; the
// signatures are real and verified by VerifyBlock.
func (c *Chain) attest(blk *Block) []Attestation {
	committee := c.committee(blk.ParentHash, blk.Number)
	out := make([]Attestation, 0, len(committee))
	for _, v := range committee {
		out = append(out, Attestation{
			Validator: v.Address,
			Signature: v.Key.Sign(blk.Hash[:]),
		})
	}
	return out
}

func (c *Chain) committee(parentHash chain.Hash32, slot uint64) []*Validator {
	var buf [8]byte
	binary.BigEndian.PutUint64(buf[:], slot)
	h := polcrypto.Hash([]byte("committee"), parentHash[:], buf[:])
	rng := chain.NewRand(binary.BigEndian.Uint64(h[:8]))
	idx := make([]int, len(c.validators))
	for i := range idx {
		idx[i] = i
	}
	rng.Shuffle(len(idx), func(i, j int) { idx[i], idx[j] = idx[j], idx[i] })
	n := c.cfg.CommitteeSize
	if n > len(idx) {
		n = len(idx)
	}
	out := make([]*Validator, 0, n)
	for _, i := range idx[:n] {
		out = append(out, c.validators[i])
	}
	return out
}

// VerifyBlock checks a block's attestations: at least 2/3 of its slot
// committee must have signed its hash.
func (c *Chain) VerifyBlock(blk *Block) error {
	committee := c.committee(blk.ParentHash, blk.Number)
	byAddr := make(map[chain.Address]*Validator, len(committee))
	for _, v := range committee {
		byAddr[v.Address] = v
	}
	valid := 0
	for _, at := range blk.Attestations {
		v, ok := byAddr[at.Validator]
		if !ok {
			return fmt.Errorf("eth: attestation from non-committee validator %s", at.Validator)
		}
		if !polcrypto.Verify(v.Key.Public, blk.Hash[:], at.Signature) {
			return fmt.Errorf("eth: bad attestation from %s: %w", at.Validator, polcrypto.ErrBadSignature)
		}
		valid++
	}
	if valid*3 < len(committee)*2 {
		return fmt.Errorf("eth: only %d/%d committee attestations", valid, len(committee))
	}
	return nil
}

func blockHash(b *Block) chain.Hash32 {
	var buf []byte
	var n [8]byte
	binary.BigEndian.PutUint64(n[:], b.Number)
	buf = append(buf, n[:]...)
	buf = append(buf, b.ParentHash[:]...)
	buf = append(buf, b.Proposer[:]...)
	buf = append(buf, b.BaseFee.Bytes()...)
	buf = append(buf, b.StateRoot[:]...)
	for _, h := range b.TxHashes {
		buf = append(buf, h[:]...)
	}
	return chain.Hash32(polcrypto.Hash(buf))
}

// pruneRetention drops receipts, explorer rows and block bodies older
// than the retention window. Everything digest-relevant already lives in
// the rolling accumulators, so pruning never changes Digest.
func (c *Chain) pruneRetention() {
	if c.retention <= 0 || len(c.blocks) <= c.retention {
		return
	}
	for _, old := range c.blocks[:len(c.blocks)-c.retention] {
		for _, h := range old.TxHashes {
			delete(c.receipts, h)
		}
	}
	kept := make([]*Block, c.retention)
	copy(kept, c.blocks[len(c.blocks)-c.retention:])
	c.blocks = kept
	cutoff := c.Head().Number + 1 - uint64(c.retention)
	first := sort.Search(len(c.history), func(i int) bool {
		return c.history[i].Block >= cutoff
	})
	if first > 0 {
		c.history = append([]TxRecord(nil), c.history[first:]...)
	}
}

// updateBaseFee applies the EIP-1559 adjustment: ±1/8 of the deviation from
// the gas target per block, at most 12.5%.
func (c *Chain) updateBaseFee(blk *Block) {
	target := c.cfg.BlockGasLimit / 2
	used := blk.GasUsed
	delta := new(big.Int).Set(c.baseFee)
	if used > target {
		diff := used - target
		delta.Mul(delta, new(big.Int).SetUint64(diff))
		delta.Div(delta, new(big.Int).SetUint64(target*8))
		c.baseFee.Add(c.baseFee, delta)
	} else {
		diff := target - used
		delta.Mul(delta, new(big.Int).SetUint64(diff))
		delta.Div(delta, new(big.Int).SetUint64(target*8))
		c.baseFee.Sub(c.baseFee, delta)
	}
	if c.baseFee.Cmp(c.cfg.MinBaseFee) < 0 {
		c.baseFee.Set(c.cfg.MinBaseFee)
	}
}

// updateFinality advances the justified/finalized checkpoints at epoch
// boundaries (simplified Casper FFG: with an honest supermajority every
// epoch justifies, and the previous justified checkpoint finalizes).
func (c *Chain) updateFinality() {
	head := c.Head().Number
	epoch := uint64(c.cfg.SlotsPerEpoch)
	if epoch == 0 || head%epoch != 0 {
		return
	}
	c.finalized = c.justified
	c.justified = head
}

// txEffects carries a transaction's serialized side effects out of
// executeOn: shard workers must not touch the proposer balance, the chain's
// burn/tip tallies or the explorer log, so those are returned and applied
// by Step in canonical order after every shard finishes.
type txEffects struct {
	burn     *big.Int
	tip      *big.Int
	target   chain.Address
	isCreate bool
	// record is false for executions the explorer does not log (deploys
	// that die on the code deposit before reaching the EVM).
	record bool
}

// executeOn runs a transaction against st — the canonical state on the
// serial path, a shard overlay on the parallel one — and builds its
// receipt. State changes of reverted executions are undone inside the EVM;
// fees are charged regardless, as on the real network. The sender is
// debited on st; the burn/tip split is returned for the caller to apply.
func (c *Chain) executeOn(st execState, tx *Tx, blk *Block) (*chain.Receipt, txEffects) {
	tip := effectiveTip(tx, blk.BaseFee)
	price := new(big.Int).Add(blk.BaseFee, tip)

	rcpt := &chain.Receipt{
		TxHash:      tx.Hash(),
		BlockNumber: blk.Number,
		Included:    blk.Time,
	}

	isCreate := tx.To == nil
	intrinsic := evm.IntrinsicGas(tx.Data, isCreate)
	var target chain.Address
	if isCreate {
		target = chain.ContractAddress(tx.From, tx.Nonce)
	} else {
		target = *tx.To
	}
	eff := txEffects{target: target, isCreate: isCreate}
	st.SetNonce(tx.From, tx.Nonce+1)

	depositGas := uint64(0)
	code, _ := st.Code(target)
	callData := tx.Data
	if isCreate {
		// Our compiler produces runtime code directly; deployment stores
		// it and runs the constructor calldata against it, charging the
		// per-byte code deposit. The connector frames the payload as
		// code||ctorData — see PackDeployData.
		code, callData = SplitDeployData(tx.Data)
		depositGas = uint64(len(code)) * evm.GasCodeDeposit
	}

	gasBudget := tx.GasLimit - intrinsic
	if depositGas > gasBudget {
		// Cannot afford the code deposit: the deployment fails consuming
		// everything.
		rcpt.GasUsed = tx.GasLimit
		rcpt.Reverted = true
		rcpt.RevertMsg = "out of gas: code deposit"
		eff.burn, eff.tip = chargeFeeOn(st, tx, rcpt.GasUsed, price, blk.BaseFee)
		rcpt.Fee = chain.NewAmount(new(big.Int).Mul(price, new(big.Int).SetUint64(rcpt.GasUsed)), c.cfg.Unit)
		return rcpt, eff
	}
	gasBudget -= depositGas

	// Credit the call value before execution; undo if it fails.
	valueMoved := false
	if tx.Value.Sign() > 0 {
		st.SubBalance(tx.From, tx.Value)
		st.AddBalance(target, tx.Value)
		valueMoved = true
	}
	if isCreate {
		st.SetCode(target, code)
	}

	var prof obs.Profiler
	if c.obs != nil {
		prof = c.obs.prof
	}
	res := evm.Execute(evm.Context{
		State:       st,
		Caller:      tx.From,
		Address:     target,
		Value:       tx.Value,
		CallData:    callData,
		GasLimit:    gasBudget,
		BlockNumber: blk.Number,
		Timestamp:   uint64(blk.Time / time.Second),
		Profiler:    prof,
	}, code)

	gasUsed := intrinsic + depositGas + res.GasUsed
	if res.Err == nil && !res.Reverted {
		// EIP-3529: refunds capped at gasUsed/5.
		refund := res.Refund
		if cap := gasUsed / 5; refund > cap {
			refund = cap
		}
		gasUsed -= refund
	} else {
		if valueMoved {
			st.AddBalance(tx.From, tx.Value)
			st.SubBalance(target, tx.Value)
		}
		if isCreate {
			st.DeleteCode(target)
		}
	}

	rcpt.GasUsed = gasUsed
	rcpt.Reverted = res.Reverted || res.Err != nil
	if res.Err != nil {
		rcpt.RevertMsg = res.Err.Error()
	} else {
		rcpt.RevertMsg = res.RevertMsg
	}
	rcpt.ReturnValue = res.ReturnData
	for _, l := range res.Logs {
		rcpt.Logs = append(rcpt.Logs, string(l.Data))
	}
	eff.burn, eff.tip = chargeFeeOn(st, tx, gasUsed, price, blk.BaseFee)
	rcpt.Fee = chain.NewAmount(new(big.Int).Mul(price, new(big.Int).SetUint64(gasUsed)), c.cfg.Unit)
	eff.record = true
	return rcpt, eff
}

// chargeFeeOn debits the sender's full fee on st and returns the
// burn/tip split. The proposer credit and the chain-wide tallies are the
// caller's to apply: they are shared across shards, so they must happen in
// canonical order during the merge, not inside a shard worker.
func chargeFeeOn(st execState, tx *Tx, gasUsed uint64, price, baseFee *big.Int) (burn, tipAmt *big.Int) {
	gas := new(big.Int).SetUint64(gasUsed)
	fee := new(big.Int).Mul(price, gas)
	st.SubBalance(tx.From, fee)
	burn = new(big.Int).Mul(baseFee, gas)
	tipAmt = new(big.Int).Sub(fee, burn)
	return burn, tipAmt
}

// deployPrefix frames code||ctorData in deployment calldata.
const deployPrefixLen = 4

// PackDeployData frames runtime code and constructor calldata into a single
// deployment payload.
func PackDeployData(code, ctorData []byte) []byte {
	out := make([]byte, deployPrefixLen, deployPrefixLen+len(code)+len(ctorData))
	binary.BigEndian.PutUint32(out, uint32(len(code)))
	out = append(out, code...)
	return append(out, ctorData...)
}

// SplitDeployData splits a deployment payload back into code and
// constructor calldata.
func SplitDeployData(data []byte) (code, ctorData []byte) {
	if len(data) < deployPrefixLen {
		return nil, nil
	}
	n := binary.BigEndian.Uint32(data)
	if int(n) > len(data)-deployPrefixLen {
		return data[deployPrefixLen:], nil
	}
	return data[deployPrefixLen : deployPrefixLen+int(n)], data[deployPrefixLen+int(n):]
}
