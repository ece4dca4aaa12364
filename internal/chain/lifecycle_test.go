package chain

import (
	"errors"
	"fmt"
	"math/big"
	"reflect"
	"sync/atomic"
	"testing"
)

// testView is an execution view for Execute: the canonical state (id -1)
// or one forked overlay. Each view is driven by at most one goroutine.
type testView struct {
	id        int
	ran       []int
	committed int
}

func TestExecuteTable(t *testing.T) {
	// item keys: each item touches its own account, plus a shared
	// contract key when it names one; items sharing a contract conflict.
	disjoint := func(n int) [][]ConflictKey {
		keys := make([][]ConflictKey, n)
		for i := range keys {
			keys[i] = []ConflictKey{AccountKey(addr(byte(i)))}
		}
		return keys
	}
	oneComponent := func(n int) [][]ConflictKey {
		keys := disjoint(n)
		for i := range keys {
			keys[i] = append(keys[i], ContractKey(addr(200)))
		}
		return keys
	}
	twoAreas := func(n int) [][]ConflictKey {
		keys := disjoint(n)
		for i := range keys {
			keys[i] = append(keys[i], ContractKey(addr(byte(200+i%2))))
		}
		return keys
	}
	cases := []struct {
		name     string
		keys     [][]ConflictKey
		shards   int
		serial   bool
		parallel bool // the fan-out must engage
	}{
		{name: "empty block", keys: nil, shards: 4},
		{name: "sharding never configured", keys: disjoint(6), shards: 0},
		{name: "one shard", keys: disjoint(6), shards: 1},
		{name: "single item", keys: disjoint(1), shards: 4},
		{name: "one component", keys: oneComponent(6), shards: 4},
		{name: "forced serial", keys: disjoint(6), shards: 4, serial: true},
		{name: "two components on four shards", keys: twoAreas(7), shards: 4, parallel: true},
		{name: "disjoint items on two shards", keys: disjoint(9), shards: 2, parallel: true},
		{name: "more shards than components", keys: disjoint(3), shards: 8, parallel: true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			n := len(tc.keys)
			var s Sharding
			if tc.shards > 0 {
				s.SetShards(tc.shards)
			}
			canonical := &testView{id: -1}
			var forks []*testView
			runs := make([]atomic.Int32, n)
			Execute(&s, Batch[*testView]{
				N:         n,
				Serial:    tc.serial,
				Keys:      func(i int) []ConflictKey { return tc.keys[i] },
				Weight:    func(int) uint64 { return 1 },
				Canonical: canonical,
				Fork: func() (*testView, func()) {
					v := &testView{id: len(forks)}
					forks = append(forks, v)
					return v, func() { v.committed++ }
				},
				Exec: func(v *testView, i int) uint64 {
					runs[i].Add(1)
					v.ran = append(v.ran, i)
					return uint64(10 + i)
				},
			})

			// Every index runs exactly once, on exactly one view.
			seen := make(map[int]int)
			for _, v := range append([]*testView{canonical}, forks...) {
				for _, i := range v.ran {
					seen[i]++
				}
			}
			for i := 0; i < n; i++ {
				if runs[i].Load() != 1 || seen[i] != 1 {
					t.Fatalf("item %d ran %d times on %d views", i, runs[i].Load(), seen[i])
				}
			}

			var wantGas uint64
			for i := 0; i < n; i++ {
				wantGas += uint64(10 + i)
			}
			st := s.ShardStats()
			if tc.parallel {
				if len(canonical.ran) != 0 {
					t.Fatalf("fan-out executed %v on the canonical view", canonical.ran)
				}
				if len(forks) < 2 || len(forks) > tc.shards {
					t.Fatalf("%d overlays for %d shards", len(forks), tc.shards)
				}
				for _, v := range forks {
					if v.committed != 1 {
						t.Fatalf("overlay %d committed %d times", v.id, v.committed)
					}
					if len(v.ran) == 0 {
						t.Fatalf("overlay %d ran nothing", v.id)
					}
				}
				if st.ParallelBatches != 1 {
					t.Fatalf("ParallelBatches = %d, want 1", st.ParallelBatches)
				}
			} else {
				if len(forks) != 0 {
					t.Fatalf("serial path forked %d overlays", len(forks))
				}
				want := make([]int, n)
				for i := range want {
					want[i] = i
				}
				if n > 0 && !reflect.DeepEqual(canonical.ran, want) {
					t.Fatalf("serial order %v, want %v", canonical.ran, want)
				}
				if st != nil && st.ParallelBatches != 0 {
					t.Fatal("serial path counted a parallel batch")
				}
			}

			// The tallies see every item and all its gas.
			if tc.shards == 0 {
				if st != nil {
					t.Fatal("stats exist although sharding was never configured")
				}
				return
			}
			var txs, gas uint64
			for si := range st.Txs {
				txs += st.Txs[si]
				gas += st.Gas[si]
			}
			if txs != uint64(n) || gas != wantGas {
				t.Fatalf("stats recorded %d txs / %d gas, want %d / %d", txs, gas, n, wantGas)
			}
			if !tc.parallel && n > 0 && st.Txs[0] != uint64(n) {
				t.Fatalf("serial path recorded %v, want all on shard 0", st.Txs)
			}
		})
	}
}

func TestExecuteKeepsComponentOrder(t *testing.T) {
	// Members of one component run in canonical order on one overlay.
	var s Sharding
	s.SetShards(3)
	keys := []ConflictKey{ContractKey(addr(1)), ContractKey(addr(2)), ContractKey(addr(1)),
		ContractKey(addr(3)), ContractKey(addr(2)), ContractKey(addr(1))}
	var forks []*testView
	Execute(&s, Batch[*testView]{
		N:         len(keys),
		Keys:      func(i int) []ConflictKey { return keys[i : i+1] },
		Weight:    func(int) uint64 { return 1 },
		Canonical: &testView{id: -1},
		Fork: func() (*testView, func()) {
			v := &testView{id: len(forks)}
			forks = append(forks, v)
			return v, func() {}
		},
		Exec: func(v *testView, i int) uint64 {
			v.ran = append(v.ran, i)
			return 0
		},
	})
	owner := make(map[ConflictKey]*testView)
	for _, v := range forks {
		last := make(map[ConflictKey]int)
		for _, i := range v.ran {
			k := keys[i]
			if o, ok := owner[k]; ok && o != v {
				t.Fatalf("component %v split across overlays", k)
			}
			owner[k] = v
			if p, ok := last[k]; ok && p > i {
				t.Fatalf("component %v ran out of order: %v", k, v.ran)
			}
			last[k] = i
		}
	}
}

func TestSubmitBatchSlots(t *testing.T) {
	errBadSig := errors.New("bad signature")
	errFull := errors.New("pool full")
	cases := []struct {
		name    string
		shards  int
		badSig  map[int]bool
		refused map[int]bool
	}{
		{name: "all admitted serially", shards: 1},
		{name: "all admitted on the pool", shards: 4},
		{name: "signature failures keep their slots", shards: 4, badSig: map[int]bool{0: true, 5: true, 11: true}},
		{name: "admission failures keep their slots", shards: 2, refused: map[int]bool{3: true, 4: true}},
		{name: "both kinds mixed", shards: 8, badSig: map[int]bool{1: true, 7: true}, refused: map[int]bool{2: true, 9: true}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var s Sharding
			s.SetShards(tc.shards)
			items := make([]int, 12)
			for i := range items {
				items[i] = i
			}
			var admitted []int
			hashes, errs := SubmitBatch(&s, items,
				func(it int) error {
					if tc.badSig[it] {
						return fmt.Errorf("item %d: %w", it, errBadSig)
					}
					return nil
				},
				func(it int) (Hash32, error) {
					admitted = append(admitted, it)
					if tc.refused[it] {
						return Hash32{}, fmt.Errorf("item %d: %w", it, errFull)
					}
					return Hash32{byte(it + 1)}, nil
				})
			var wantAdmitted []int
			for i := range items {
				want := fmt.Sprintf("item %d: ", i)
				switch {
				case tc.badSig[i]:
					if !errors.Is(errs[i], errBadSig) || errs[i].Error()[:len(want)] != want {
						t.Fatalf("slot %d: err %v, want its own signature failure", i, errs[i])
					}
				case tc.refused[i]:
					wantAdmitted = append(wantAdmitted, i)
					if !errors.Is(errs[i], errFull) || errs[i].Error()[:len(want)] != want {
						t.Fatalf("slot %d: err %v, want its own admission failure", i, errs[i])
					}
				default:
					wantAdmitted = append(wantAdmitted, i)
					if errs[i] != nil || hashes[i] != (Hash32{byte(i + 1)}) {
						t.Fatalf("slot %d: hash %v err %v, want its own hash", i, hashes[i], errs[i])
					}
				}
			}
			if !reflect.DeepEqual(admitted, wantAdmitted) {
				t.Fatalf("admission order %v, want %v (verified items, in slice order)", admitted, wantAdmitted)
			}
		})
	}
}

func TestShardingSetAndCopy(t *testing.T) {
	var s Sharding
	if s.Shards() != 1 || s.ShardStats() != nil {
		t.Fatal("zero Sharding must be serial and untallied")
	}
	s.SetShards(-3)
	if s.Shards() != 1 {
		t.Fatalf("SetShards(-3) gave %d shards", s.Shards())
	}
	s.SetShards(4)
	s.stats.Record(2, 5, 50)
	cp := s.ShardStats()
	cp.Txs[2] = 99
	if s.ShardStats().Txs[2] != 5 {
		t.Fatal("ShardStats must return a copy")
	}
	s.SetShards(4)
	if s.ShardStats().Txs[2] != 0 {
		t.Fatal("SetShards must reset the tallies")
	}
}

func TestFrameAndReceiptAcc(t *testing.T) {
	// Length prefixes keep field boundaries: "ab"+"c" and "a"+"bc" differ.
	var f1, f2 Frame
	f1.Bytes([]byte("ab"))
	f1.Bytes([]byte("c"))
	f2.Bytes([]byte("a"))
	f2.Bytes([]byte("bc"))
	if f1.Sum() == f2.Sum() {
		t.Fatal("framing must separate fields")
	}

	raw := (*big.Int).Bytes
	r := &Receipt{BlockNumber: 3, GasUsed: 21000, Fee: AmountFromTokens(1, UnitALGO)}
	var a, b ReceiptAcc
	a.Fold(Hash32{1}, r, raw)
	b.Fold(Hash32{1}, r, raw)
	if a != b || a.Count != 1 {
		t.Fatal("fold must be deterministic and count receipts")
	}
	r2 := *r
	r2.Reverted = true
	b = ReceiptAcc{}
	b.Fold(Hash32{1}, &r2, raw)
	if a.Acc == b.Acc {
		t.Fatal("a revert flag must change the accumulator")
	}
	none := func(*Frame) {}
	if a.Digest(Hash32{9}, 1, none, Hash32{}) == a.Digest(Hash32{9}, 2, none, Hash32{}) {
		t.Fatal("digest must cover the head height")
	}
}
