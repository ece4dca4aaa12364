package eth

import (
	"agnopol/internal/chain"
	"agnopol/internal/evm"
	"agnopol/internal/mstate"
)

// Sharded block application. Selected transactions are partitioned into
// conflict components (chain.Partition over each transaction's
// ConflictKeys), components are packed onto shards, and each shard executes
// its components serially against a copy-on-write overlay of the world
// state while shards run concurrently. Overlays touch disjoint state by
// construction, so committing them and then applying the serialized
// effects (proposer tip, burn tally, explorer rows) in canonical order
// yields a block bit-identical to the serial path at any shard count —
// TestShardedBlockBitIdentity is the gate.

// ConflictKeys names the state a transaction may touch: its sender's
// account (nonce + balance), the target's account (value credit) and the
// target contract's code and storage. For deployments the target is the
// deterministic contract address. Beneficiaries named only in calldata
// (e.g. a wallet argument the contract pays out to) are not derivable
// without executing, so they carry no key; in the PoL workloads such
// payouts always come from the area contract already in the component, and
// the bit-identity tests verify the assumption.
func (tx *Tx) ConflictKeys() []chain.ConflictKey {
	var target chain.Address
	if tx.To == nil {
		target = chain.ContractAddress(tx.From, tx.Nonce)
	} else {
		target = *tx.To
	}
	return []chain.ConflictKey{
		chain.AccountKey(tx.From),
		chain.AccountKey(target),
		chain.ContractKey(target),
	}
}

// execState is the world-state surface transaction execution needs: the
// EVM's StateDB plus nonce and code management. Both the canonical state
// and the per-shard overlays implement it.
type execState interface {
	evm.StateDB
	Nonce(chain.Address) uint64
	SetNonce(chain.Address, uint64)
	Code(chain.Address) ([]byte, bool)
	SetCode(chain.Address, []byte)
	DeleteCode(chain.Address)
}

var (
	_ execState = (*state)(nil)
	_ execState = (*shardState)(nil)
)

// shardState is a copy-on-write overlay over the canonical state: a
// private trie fork absorbs reads and writes, and a journal of final key
// values replays onto the canonical trie at commit. All state semantics
// (delete-on-zero storage, phantom-account and negative-balance
// invariants, code copying) come from the shared stateView, so the
// overlay cannot drift from the serial path.
type shardState struct {
	stateView
	ov   *mstate.Overlay
	base *state
}

func newShardState(base *state) *shardState {
	ov := mstate.NewOverlay(base.t)
	return &shardState{stateView: stateView{kv: ov}, ov: ov, base: base}
}

// commit replays the overlay's journal onto the base trie. Overlays from
// different shards hold disjoint key sets, so commit order across shards
// does not matter; within an overlay every key holds its final value, so
// replay order does not matter either.
func (s *shardState) commit() {
	s.ov.CommitTo(s.base.t)
}

// applyBatch executes one block's selected transactions and returns their
// receipts plus the serialized effects (fee burn, proposer tip, explorer
// row) the caller applies in canonical order; chain.Execute decides
// between the serial path on the canonical state and the sharded fan-out
// over shardState overlays.
func (c *Chain) applyBatch(sel []*pendingTx, blk *Block) ([]*chain.Receipt, []txEffects) {
	receipts := make([]*chain.Receipt, len(sel))
	effects := make([]txEffects, len(sel))
	chain.Execute(&c.Sharding, chain.Batch[execState]{
		N:         len(sel),
		Keys:      func(i int) []chain.ConflictKey { return sel[i].tx.ConflictKeys() },
		Weight:    func(i int) uint64 { return sel[i].tx.GasLimit },
		Canonical: c.st,
		Fork: func() (execState, func()) {
			ss := newShardState(c.st)
			return ss, ss.commit
		},
		Exec: func(st execState, i int) uint64 {
			receipts[i], effects[i] = c.executeOn(st, sel[i].tx, blk)
			return receipts[i].GasUsed
		},
	})
	return receipts, effects
}

// SubmitBatch validates and queues a batch of signed transactions in one
// call: signatures verify concurrently when sharding is configured, and
// admission (fee, nonce and balance checks, fault draws, mempool append)
// stays serial in slice order (see chain.SubmitBatch). Result slot i is
// the hash or error for txs[i].
func (c *Chain) SubmitBatch(txs []*Tx) ([]chain.Hash32, []error) {
	return chain.SubmitBatch(&c.Sharding, txs, (*Tx).Verify, c.submitVerified)
}

// PendingCount reports the mempool depth.
func (c *Chain) PendingCount() int { return len(c.mempool) }

// Digest hashes the chain's externally observable end state — head block,
// fee accounting, the world-state Merkle root and the rolling receipt
// accumulator — into one value (see chain.ReceiptAcc.Digest). The world
// state enters through the state root and receipts through the
// accumulator, so Digest is O(1) and independent of how much pruned
// history (SetRetention) is still held. Fee components carry an explicit
// sign byte (encodeBalance) in the receipt fold, so a sign flip can never
// digest identically.
func (c *Chain) Digest() chain.Hash32 {
	head := c.Head()
	return c.rcpts.Digest(head.Hash, head.Number, func(f *chain.Frame) {
		f.Bytes(c.baseFee.Bytes())
		f.Bytes(c.burned.Bytes())
		f.Bytes(c.tipped.Bytes())
	}, c.st.Root())
}
