package chain

import (
	"encoding/binary"
	"math/big"
	"runtime"
	"sync"
	"sync/atomic"

	"agnopol/internal/polcrypto"
)

// The block lifecycle both chain backends share: the shard setting and
// its tallies, batched admission with concurrent signature verification,
// the partition → assign → fork → execute → commit fan-out, and the
// digest framing with its rolling receipt accumulator. A backend supplies
// only what differs — its conflict keys, how one transaction executes on
// an overlay, its canonical-order merge of deferred effects, and its own
// consensus step.

// Sharding is a chain's execution fan-out setting plus the per-shard
// tallies its blocks accumulate. Backends embed it; the zero value is the
// serial, untallied configuration.
type Sharding struct {
	n     int
	stats *ShardStats
}

// SetShards configures how many execution shards a block may fan out to;
// n <= 1 keeps the serial path. The setting changes scheduling only —
// block contents are identical at every value. It also resets the
// tallies.
func (s *Sharding) SetShards(n int) {
	if n < 1 {
		n = 1
	}
	s.n = n
	s.stats = NewShardStats(n)
}

// Shards returns the configured shard count.
func (s *Sharding) Shards() int {
	if s.n < 1 {
		return 1
	}
	return s.n
}

// ShardStats returns a copy of the per-shard execution tallies accumulated
// since SetShards, or nil when sharding was never configured.
func (s *Sharding) ShardStats() *ShardStats {
	if s.stats == nil {
		return nil
	}
	cp := NewShardStats(len(s.stats.Txs))
	copy(cp.Txs, s.stats.Txs)
	copy(cp.Gas, s.stats.Gas)
	cp.ParallelBatches = s.stats.ParallelBatches
	return cp
}

// SubmitBatch validates and queues a batch in one call. Signature
// verification — the dominant per-item cost — runs on up to Shards()
// workers (bounded by GOMAXPROCS); admission runs serially in slice order
// afterwards, so the pending pool and every fault stream it draws from are
// identical to len(items) one-by-one submissions. Result slot i is the
// hash or error for items[i]; an item that fails verification is never
// admitted.
func SubmitBatch[T any](s *Sharding, items []T, verify func(T) error, admit func(T) (Hash32, error)) ([]Hash32, []error) {
	hashes := make([]Hash32, len(items))
	errs := make([]error, len(items))
	workers := min(s.Shards(), runtime.GOMAXPROCS(0), len(items))
	if workers > 1 {
		var next atomic.Int64
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for {
					i := int(next.Add(1)) - 1
					if i >= len(items) {
						return
					}
					errs[i] = verify(items[i])
				}
			}()
		}
		wg.Wait()
	} else {
		for i, it := range items {
			errs[i] = verify(it)
		}
	}
	for i, it := range items {
		if errs[i] == nil {
			hashes[i], errs[i] = admit(it)
		}
	}
	return hashes, errs
}

// Batch is one block's selected items, in canonical order, and the
// backend callbacks Execute needs to run them. V is the backend's
// execution view: the canonical state and every overlay implement it.
type Batch[V any] struct {
	// N is the number of items.
	N int
	// Serial forces the serial path — for blocks whose items advance
	// chain-global state that overlays cannot isolate.
	Serial bool
	// Keys names the state item i may touch (see Partition).
	Keys func(i int) []ConflictKey
	// Weight is item i's load for shard balancing (see Assign).
	Weight func(i int) uint64
	// Canonical is the view the serial path executes on directly.
	Canonical V
	// Fork opens a copy-on-write overlay over Canonical and returns it
	// with the function that commits its writes back.
	Fork func() (V, func())
	// Exec executes item i on v, stores its outcome at slot i of the
	// backend's own result slices, and returns the gas (or opcode cost) it
	// used for the shard tallies.
	Exec func(v V, i int) uint64
}

// Execute runs a block's items. With more than one shard configured, not
// Serial, and at least two conflict components among the items, the
// components are packed onto shards, every shard executes its components
// in canonical member order on its own overlay concurrently, and the
// overlays are committed once all shards finish. Overlays touch disjoint
// state by construction, so commit order does not matter and the result is
// bit-identical to the serial path, which runs every item in order on
// Canonical. Effects shared across items (fees, tallies, receipts) are the
// caller's to merge afterwards in canonical order.
func Execute[V any](s *Sharding, b Batch[V]) {
	if b.N == 0 {
		return
	}
	serial := func() {
		var gas uint64
		for i := 0; i < b.N; i++ {
			gas += b.Exec(b.Canonical, i)
		}
		s.stats.Record(0, uint64(b.N), gas)
	}
	if b.Serial || s.n <= 1 || b.N < 2 {
		serial()
		return
	}
	comps := Partition(b.N, b.Keys)
	if len(comps) < 2 {
		serial()
		return
	}
	nshards := min(s.n, len(comps))
	bins := Assign(comps, nshards, b.Weight)
	commits := make([]func(), nshards)
	txs := make([]uint64, nshards)
	gas := make([]uint64, nshards)
	var wg sync.WaitGroup
	for si := range bins {
		var v V
		v, commits[si] = b.Fork()
		wg.Add(1)
		go func() {
			defer wg.Done()
			for _, comp := range bins[si] {
				for _, i := range comp {
					gas[si] += b.Exec(v, i)
					txs[si]++
				}
			}
		}()
	}
	wg.Wait()
	for si, commit := range commits {
		commit()
		s.stats.Record(si, txs[si], gas[si])
	}
	if s.stats != nil {
		s.stats.ParallelBatches++
	}
}

// Frame is the length-prefixed encoding the digests hash: every byte
// string carries an 8-byte big-endian length, every integer is 8 bytes
// big-endian, so no two different field sequences frame identically.
type Frame struct{ buf []byte }

// Bytes appends a length-prefixed byte string.
func (f *Frame) Bytes(b []byte) {
	f.U64(uint64(len(b)))
	f.buf = append(f.buf, b...)
}

// U64 appends a fixed-width integer.
func (f *Frame) U64(v uint64) {
	f.buf = binary.BigEndian.AppendUint64(f.buf, v)
}

// Sum hashes the framed bytes.
func (f *Frame) Sum() Hash32 { return Hash32(polcrypto.Hash(f.buf)) }

// ReceiptAcc is the rolling hash of every receipt a chain ever included,
// folded in canonical block order, and their count. With the state root
// it lets a digest stay O(1) and lets retention pruning drop old receipts
// without changing the digest.
type ReceiptAcc struct {
	Acc   Hash32
	Count uint64
}

// Fold absorbs one included receipt. fee encodes the receipt's fee
// amount; backends whose fees may be negative must encode the sign.
func (a *ReceiptAcc) Fold(h Hash32, r *Receipt, fee func(*big.Int) []byte) {
	var f Frame
	f.Bytes(a.Acc[:])
	f.Bytes(h[:])
	f.U64(r.BlockNumber)
	f.U64(r.GasUsed)
	f.U64(uint64(r.Submitted))
	f.U64(uint64(r.Included))
	if r.Reverted {
		f.U64(1)
	} else {
		f.U64(0)
	}
	f.Bytes([]byte(r.RevertMsg))
	f.Bytes(r.ReturnValue)
	if r.Fee.Base != nil {
		f.Bytes(fee(r.Fee.Base))
	}
	a.Acc = f.Sum()
	a.Count++
}

// Digest hashes a chain's externally observable end state: the head
// block's hash and height, the backend's own fields (framed by fields),
// the world-state root and the receipt accumulator. The determinism gates
// compare digests across shard counts and GOMAXPROCS settings: equal
// digests mean bit-identical blocks and state.
func (a *ReceiptAcc) Digest(head Hash32, height uint64, fields func(*Frame), root Hash32) Hash32 {
	var f Frame
	f.Bytes(head[:])
	f.U64(height)
	fields(&f)
	f.Bytes(root[:])
	f.Bytes(a.Acc[:])
	f.U64(a.Count)
	return f.Sum()
}
