package eth

import (
	"errors"
	"fmt"
	"math/big"
	"time"

	"agnopol/internal/chain"
	"agnopol/internal/mstate"
)

// Options configures Open. Config and Seed behave exactly as in
// NewChain; Store/Root/Checkpoint select the restart-from-root path.
type Options struct {
	Config Config
	Seed   uint64
	// Store supplies committed trie nodes (e.g. a diskstore.Store). Nil
	// means the purely in-memory path: Open degenerates to NewChain.
	Store mstate.NodeStore
	// Root is the committed state root to load from Store. The zero
	// root loads an empty state.
	Root mstate.Hash
	// Checkpoint restores the non-state chain position (head block, fee
	// accounting, clock, rng, mempool) captured by Chain.Checkpoint. Nil
	// opens a fresh chain over the loaded state.
	Checkpoint *Checkpoint
}

// PendingTx is one mempool entry inside a Checkpoint.
type PendingTx struct {
	Tx        *Tx
	Submitted time.Duration
	Delayed   bool
}

// Checkpoint is everything besides the world state a chain needs to
// continue bit-identically after a restart: restoring it next to the
// state trie makes Step produce the same blocks, and Digest the same
// value, as a process that never stopped. It is JSON-serializable so
// callers can park it in a diskstore manifest's meta blob.
type Checkpoint struct {
	Name        string
	HeadNumber  uint64
	HeadHash    chain.Hash32
	HeadTime    time.Duration
	HeadBaseFee []byte
	StateRoot   chain.Hash32
	BaseFee     []byte
	Burned      []byte
	Tipped      []byte
	Justified   uint64
	Finalized   uint64
	// SpikeBlocksLeft carries an in-flight congestion episode across the
	// restart; the demand model continues it instead of resampling.
	SpikeBlocksLeft int
	RcptAcc         chain.Hash32
	RcptCount       uint64
	Clock           time.Duration
	// Rng is the chain PRNG's stream position (chain.Rand.State).
	Rng       uint64
	Retention int
	Mempool   []PendingTx
}

// Checkpoint captures the chain's restart point. The world state is not
// included — commit it separately with CommitState — and the snapshot
// borrows the live mempool transactions, so serialize it before
// mutating the chain further. Chains with a fault injector attached
// refuse to checkpoint: injector stream positions are not captured, so
// a resumed run could not replay identically.
func (c *Chain) Checkpoint() (*Checkpoint, error) {
	if c.flt != nil {
		return nil, errors.New("eth: cannot checkpoint with fault injection attached")
	}
	head := c.Head()
	ck := &Checkpoint{
		Name:            c.cfg.Name,
		HeadNumber:      head.Number,
		HeadHash:        head.Hash,
		HeadTime:        head.Time,
		HeadBaseFee:     head.BaseFee.Bytes(),
		StateRoot:       c.st.Root(),
		BaseFee:         c.baseFee.Bytes(),
		Burned:          c.burned.Bytes(),
		Tipped:          c.tipped.Bytes(),
		Justified:       c.justified,
		Finalized:       c.finalized,
		SpikeBlocksLeft: c.spikeBlocksLeft,
		RcptAcc:         c.rcpts.Acc,
		RcptCount:       c.rcpts.Count,
		Clock:           c.clock.Now(),
		Rng:             c.rng.State(),
		Retention:       c.retention,
	}
	for _, p := range c.mempool {
		ck.Mempool = append(ck.Mempool, PendingTx{Tx: p.tx, Submitted: p.submitted, Delayed: p.delayed})
	}
	return ck, nil
}

// CommitState writes the world state's trie nodes into store and
// returns the state root. Pair it with Checkpoint, then make both
// durable (e.g. diskstore.Store.Commit with the serialized checkpoint
// as the manifest meta).
func (c *Chain) CommitState(store mstate.NodeStore) (mstate.Hash, error) {
	return c.st.t.Commit(store)
}

// Open builds a chain per Options. With no Store it is exactly
// NewChain: a fresh in-memory chain (NewChain itself is a thin wrapper
// over this path). With a Store it reconstructs the world state from
// the committed Root instead of replaying blocks, and — when a
// Checkpoint is given — repositions the chain so the next Step
// continues the interrupted run bit-identically.
func Open(o Options) (*Chain, error) {
	c := newChain(o.Config, o.Seed)
	if o.Store == nil {
		if o.Root != (mstate.Hash{}) || o.Checkpoint != nil {
			return nil, errors.New("eth: Open with a root or checkpoint requires a store")
		}
		return c, nil
	}
	t, err := mstate.Load(o.Store, o.Root)
	if err != nil {
		return nil, fmt.Errorf("eth: load state %x: %w", o.Root[:8], err)
	}
	c.st = &state{stateView: stateView{kv: t}, t: t}
	if o.Checkpoint != nil {
		if err := c.restore(o.Checkpoint); err != nil {
			return nil, err
		}
	}
	return c, nil
}

func (c *Chain) restore(ck *Checkpoint) error {
	if ck.Name != c.cfg.Name {
		return fmt.Errorf("eth: checkpoint is for chain %q, config says %q", ck.Name, c.cfg.Name)
	}
	if got := c.st.Root(); got != ck.StateRoot {
		return fmt.Errorf("eth: loaded state root %x does not match checkpoint %x", got[:8], ck.StateRoot[:8])
	}
	head := &Block{
		Number:    ck.HeadNumber,
		Time:      ck.HeadTime,
		Hash:      ck.HeadHash,
		BaseFee:   new(big.Int).SetBytes(ck.HeadBaseFee),
		StateRoot: ck.StateRoot,
	}
	c.blocks = []*Block{head}
	c.baseFee = new(big.Int).SetBytes(ck.BaseFee)
	c.burned = new(big.Int).SetBytes(ck.Burned)
	c.tipped = new(big.Int).SetBytes(ck.Tipped)
	c.justified = ck.Justified
	c.finalized = ck.Finalized
	c.spikeBlocksLeft = ck.SpikeBlocksLeft
	c.rcpts.Acc = ck.RcptAcc
	c.rcpts.Count = ck.RcptCount
	c.clock.AdvanceTo(ck.Clock)
	c.rng.SetState(ck.Rng)
	c.retention = ck.Retention
	c.mempool = nil
	for i := range ck.Mempool {
		p := &ck.Mempool[i]
		c.mempool = append(c.mempool, &pendingTx{tx: p.Tx, submitted: p.Submitted, delayed: p.Delayed})
	}
	return nil
}

// Fund credits addr out of thin air, like a genesis allocation. Soak
// harnesses use it with keys they derive themselves, so account setup
// never consumes the chain's own rng stream — which a resumed run could
// not replay.
func (c *Chain) Fund(addr chain.Address, amount *big.Int) {
	if amount != nil && amount.Sign() > 0 {
		c.st.AddBalance(addr, amount)
	}
}
