package algorand

import (
	"slices"

	"agnopol/internal/avm"
	"agnopol/internal/chain"
	"agnopol/internal/mstate"
)

// Sharded round application. Groups touching disjoint state — determined by
// conflict keys over senders, payment receivers and called applications —
// execute concurrently on copy-on-write ledger overlays. Every group, on
// either path, gets its atomic rollback from an overlay forked over its
// parent view (the canonical ledger or a shard's overlay), which is
// discarded on failure — far cheaper than snapshotting the world. Rounds
// containing application or asset creation (which advance chain-global
// sequence counters) fall back to the serial path wholesale, so creation
// order is always canonical.

// ConflictKeys names the state an atomic group may touch. Application calls
// carry the app's key and its escrow account (inner payments debit it);
// beneficiary wallets named only in call arguments are paid from the
// escrow, which is already in the component, so they need no key of their
// own — the bit-identity tests verify the assumption on the PoL workloads.
func (g Group) ConflictKeys() []chain.ConflictKey {
	keys := make([]chain.ConflictKey, 0, 2*len(g))
	for _, tx := range g {
		keys = append(keys, chain.AccountKey(tx.Sender))
		switch tx.Type {
		case TxPay:
			keys = append(keys, chain.AccountKey(tx.Receiver))
		case TxAppCall:
			keys = append(keys,
				chain.AppKey(tx.AppID),
				chain.AccountKey(appEscrowAddress(tx.AppID)))
		case TxAppCreate, TxAssetCreate:
			keys = append(keys, chain.GlobalKey())
		case TxAssetOptIn:
			keys = append(keys, chain.AssetKey(tx.AssetID))
		case TxAssetTransfer:
			keys = append(keys,
				chain.AssetKey(tx.AssetID),
				chain.AccountKey(tx.Receiver))
		}
	}
	return keys
}

// shardable reports whether a group may run on the concurrent path:
// payments and application calls only. Creation and asset traffic advances
// global sequences, so any such group serializes the whole round.
func (g Group) shardable() bool {
	for _, tx := range g {
		if tx.Type != TxPay && tx.Type != TxAppCall {
			return false
		}
	}
	return true
}

// ledgerView is the surface group execution needs from its backing state:
// the AVM's Ledger plus app lookup, raw balance writes, and overlay
// forking. Both the canonical ledger and overlays implement it, so
// overlays stack — a shard overlay over the ledger, a per-group rollback
// overlay over the shard's.
type ledgerView interface {
	avm.Ledger
	app(id uint64) *App
	setBalance(addr chain.Address, v uint64)
	fork() *ledgerOverlay
	adopt(*ledgerOverlay)
}

var (
	_ ledgerView = (*ledger)(nil)
	_ ledgerView = (*ledgerOverlay)(nil)
)

// ledgerOverlay is a copy-on-write view over the ledger or another
// overlay: an mstate.Overlay absorbs reads and writes against a private
// trie fork, and every ledger semantic — value encodings, opt-in
// markers, pay errors — comes from the shared ledgerKV accessor layer,
// so the overlay cannot drift from the serial path.
type ledgerOverlay struct {
	ledgerKV
	ov *mstate.Overlay
}

// fork opens a copy-on-write overlay over the canonical ledger.
func (l *ledger) fork() *ledgerOverlay {
	ov := mstate.NewOverlay(l.t)
	return &ledgerOverlay{ledgerKV{kv: ov, led: l}, ov}
}

// adopt replays an overlay's journal onto the canonical trie. Overlays
// from different shards hold disjoint key sets, so commit order across
// shards does not matter; within an overlay every key holds its final
// value, so replay order does not matter either.
func (l *ledger) adopt(child *ledgerOverlay) { child.ov.CommitTo(l.t) }

// fork opens a nested overlay (per-group atomic rollback inside a shard).
func (o *ledgerOverlay) fork() *ledgerOverlay {
	ov := o.ov.Fork()
	return &ledgerOverlay{ledgerKV{kv: ov, led: o.led}, ov}
}

// adopt folds a nested overlay's writes into this one.
func (o *ledgerOverlay) adopt(child *ledgerOverlay) { o.ov.Adopt(child.ov) }

// groupEffects carries a group's deferred globals out of executeGroup:
// the fee-sink credit and the fee-counter increment touch state shared by
// every shard, so Step applies them at merge time in canonical order — on
// the serial path too, so both paths share one executor.
type groupEffects struct {
	// feeSink is the µAlgo credit owed to the fee sink (the fees actually
	// collected — on a revert, only from senders who could still pay).
	feeSink uint64
	// fees is the group's total fee for the obs counter; zero when the
	// initial fee debit failed and nothing was charged.
	fees uint64
}

// applyRound executes one round's propagated groups and returns their
// receipts plus the deferred effects Step merges in canonical order.
// Rounds of payments and app calls may fan out across conflict
// components (chain.Execute); a round holding any creation or asset group
// runs serially on the canonical ledger, so creation order — and with it
// every app and asset ID — is canonical.
func (c *Chain) applyRound(sel []*pendingGroup, blk *Block) ([]*chain.Receipt, []groupEffects) {
	receipts := make([]*chain.Receipt, len(sel))
	effects := make([]groupEffects, len(sel))
	chain.Execute(&c.Sharding, chain.Batch[ledgerView]{
		N: len(sel),
		Serial: slices.ContainsFunc(sel, func(p *pendingGroup) bool {
			return !p.group.shardable()
		}),
		Keys:      func(i int) []chain.ConflictKey { return sel[i].group.ConflictKeys() },
		Weight:    func(i int) uint64 { return uint64(len(sel[i].group)) },
		Canonical: c.led,
		Fork: func() (ledgerView, func()) {
			o := c.led.fork()
			return o, func() { c.led.adopt(o) }
		},
		Exec: func(v ledgerView, i int) uint64 {
			receipts[i], effects[i] = c.executeGroup(v, sel[i].group, blk)
			return receipts[i].GasUsed
		},
	})
	return receipts, effects
}

// SubmitBatch validates and queues a batch of signed groups in one call:
// signatures verify concurrently when sharding is configured, and
// admission (fee floor, fault draws, pending append) stays serial in slice
// order (see chain.SubmitBatch). Result slot i is the hash or error for
// gs[i].
func (c *Chain) SubmitBatch(gs []Group) ([]chain.Hash32, []error) {
	return chain.SubmitBatch(&c.Sharding, gs, Group.verify, c.submitVerified)
}

// PendingCount reports the pending-pool depth.
func (c *Chain) PendingCount() int { return len(c.pending) }

// Digest hashes the chain's externally observable end state — head block,
// sequence counters, the ledger's Merkle root and the rolling receipt
// accumulator — into one value (see chain.ReceiptAcc.Digest). The whole
// ledger (balances, app key/value state, assets, holdings) enters through
// the state root and receipts through the accumulator, so Digest is O(1)
// and independent of how much pruned history (SetRetention) is still
// held. Algorand amounts are uint64, so fees fold as raw magnitudes
// (contrast eth's encodeBalance).
func (c *Chain) Digest() chain.Hash32 {
	head := c.Head()
	return c.rcpts.Digest(head.Hash, head.Round, func(f *chain.Frame) {
		f.U64(c.led.appSeq)
		f.U64(c.led.assetSeq)
	}, c.led.root())
}
