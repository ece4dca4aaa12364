package algorand

import (
	"errors"
	"fmt"
	"time"

	"agnopol/internal/avm"
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
	// Root is the committed ledger root to load from Store. The zero
	// root loads an empty ledger.
	Root mstate.Hash
	// Checkpoint restores the non-state chain position captured by
	// Chain.Checkpoint. Nil opens a fresh chain over the loaded ledger.
	Checkpoint *Checkpoint
}

// PendingGroup is one pending-pool entry inside a Checkpoint.
type PendingGroup struct {
	Group     Group
	Submitted time.Duration
	Delayed   bool
}

// Checkpoint is everything besides the ledger trie a chain needs to
// continue bit-identically after a restart. JSON-serializable so
// callers can park it in a diskstore manifest's meta blob.
type Checkpoint struct {
	Name      string
	HeadRound uint64
	HeadHash  chain.Hash32
	HeadTime  time.Duration
	// HeadSeed feeds the next round's sortition (Step reads prev.Seed).
	HeadSeed  chain.Hash32
	StateRoot chain.Hash32
	AppSeq    uint64
	AssetSeq  uint64
	RcptAcc   chain.Hash32
	RcptCount uint64
	Clock     time.Duration
	// Rng is the chain PRNG's stream position (chain.Rand.State).
	Rng       uint64
	Retention int
	Pending   []PendingGroup
}

// Checkpoint captures the chain's restart point. The ledger trie is not
// included — commit it separately with CommitState — and the snapshot
// borrows the live pending groups, so serialize it before mutating the
// chain further. Chains with a fault injector attached refuse to
// checkpoint: injector stream positions are not captured, so a resumed
// run could not replay identically.
func (c *Chain) Checkpoint() (*Checkpoint, error) {
	if c.flt != nil {
		return nil, errors.New("algorand: cannot checkpoint with fault injection attached")
	}
	head := c.Head()
	ck := &Checkpoint{
		Name:      c.cfg.Name,
		HeadRound: head.Round,
		HeadHash:  head.Hash,
		HeadTime:  head.Time,
		HeadSeed:  head.Seed,
		StateRoot: c.led.root(),
		AppSeq:    c.led.appSeq,
		AssetSeq:  c.led.assetSeq,
		RcptAcc:   c.rcpts.Acc,
		RcptCount: c.rcpts.Count,
		Clock:     c.clock.Now(),
		Rng:       c.rng.State(),
		Retention: c.retention,
	}
	for _, p := range c.pending {
		ck.Pending = append(ck.Pending, PendingGroup{Group: p.group, Submitted: p.submitted, Delayed: p.delayed})
	}
	return ck, nil
}

// CommitState writes the ledger's trie nodes into store and returns the
// state root. Pair it with Checkpoint, then make both durable (e.g.
// diskstore.Store.Commit with the serialized checkpoint as meta).
func (c *Chain) CommitState(store mstate.NodeStore) (mstate.Hash, error) {
	return c.led.t.Commit(store)
}

// Open builds a chain per Options. With no Store it is exactly
// NewChain: a fresh in-memory chain (NewChain itself is a thin wrapper
// over this path). With a Store it reconstructs the ledger from the
// committed Root instead of replaying rounds, and — when a Checkpoint
// is given — repositions the chain so the next Step continues the
// interrupted run bit-identically. Program and asset caches are warmed
// from the loaded trie (the trie stores TEAL source; parsed programs
// are a pure function of it).
func Open(o Options) (*Chain, error) {
	c := newChain(o.Config, o.Seed)
	if o.Store == nil {
		if o.Root != (mstate.Hash{}) || o.Checkpoint != nil {
			return nil, errors.New("algorand: Open with a root or checkpoint requires a store")
		}
		return c, nil
	}
	t, err := mstate.Load(o.Store, o.Root)
	if err != nil {
		return nil, fmt.Errorf("algorand: load state %x: %w", o.Root[:8], err)
	}
	c.led.t = t
	c.led.kv = t
	if o.Checkpoint != nil {
		if err := c.restore(o.Checkpoint); err != nil {
			return nil, err
		}
	}
	return c, nil
}

func (c *Chain) restore(ck *Checkpoint) error {
	if ck.Name != c.cfg.Name {
		return fmt.Errorf("algorand: checkpoint is for chain %q, config says %q", ck.Name, c.cfg.Name)
	}
	if got := c.led.root(); got != ck.StateRoot {
		return fmt.Errorf("algorand: loaded state root %x does not match checkpoint %x", got[:8], ck.StateRoot[:8])
	}
	head := &Block{
		Round:     ck.HeadRound,
		Time:      ck.HeadTime,
		Seed:      ck.HeadSeed,
		Hash:      ck.HeadHash,
		StateRoot: ck.StateRoot,
	}
	c.blocks = []*Block{head}
	c.led.appSeq = ck.AppSeq
	c.led.assetSeq = ck.AssetSeq
	c.led.round = ck.HeadRound
	c.led.time = uint64(ck.HeadTime / time.Second)
	c.rcpts.Acc = ck.RcptAcc
	c.rcpts.Count = ck.RcptCount
	c.clock.AdvanceTo(ck.Clock)
	c.rng.SetState(ck.Rng)
	c.retention = ck.Retention
	c.pending = nil
	for i := range ck.Pending {
		p := &ck.Pending[i]
		c.pending = append(c.pending, &pendingGroup{group: p.Group, submitted: p.Submitted, delayed: p.Delayed})
	}
	// Warm the program and asset caches so post-restart app calls do
	// not re-parse TEAL on every execution (ledgerKV.app's fallback is
	// correct but parses per call).
	for id := uint64(1); id <= c.led.appSeq; id++ {
		enc, ok := c.led.kv.Get(appMetaKey(id))
		if !ok || enc[0] == 1 {
			continue
		}
		a := decodeAppMeta(id, enc)
		prog, err := avm.Parse(a.Source)
		if err != nil {
			return fmt.Errorf("algorand: reparse app %d from state: %w", id, err)
		}
		a.Program = prog
		c.led.progs[id] = a
	}
	for id := uint64(1); id <= c.led.assetSeq; id++ {
		enc, ok := c.led.kv.Get(assetMetaKey(id))
		if !ok {
			continue
		}
		c.led.assets[id] = decodeAssetMeta(id, enc)
	}
	return nil
}

// Fund credits addr out of thin air, like a genesis allocation. Soak
// harnesses use it with keys they derive themselves, so account setup
// never consumes the chain's own rng stream — which a resumed run could
// not replay. A zero amount is a no-op (no phantom entries).
func (c *Chain) Fund(addr chain.Address, microAlgos uint64) {
	c.led.credit(addr, microAlgos)
}
