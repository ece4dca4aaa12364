package algorand

import (
	"testing"

	"agnopol/internal/avm"
	"agnopol/internal/chain"
)

func TestGroupConflictKeysTable(t *testing.T) {
	sender := chain.AddressFromBytes([]byte("sender"))
	receiver := chain.AddressFromBytes([]byte("receiver"))
	cases := []struct {
		name string
		g    Group
		want []chain.ConflictKey
	}{
		{
			name: "payment keys sender and receiver accounts",
			g:    Group{{Type: TxPay, Sender: sender, Receiver: receiver}},
			want: []chain.ConflictKey{
				chain.AccountKey(sender),
				chain.AccountKey(receiver),
			},
		},
		{
			name: "app call keys the app and its escrow",
			g:    Group{{Type: TxAppCall, Sender: sender, AppID: 7}},
			want: []chain.ConflictKey{
				chain.AccountKey(sender),
				chain.AppKey(7),
				chain.AccountKey(appEscrowAddress(7)),
			},
		},
		{
			name: "creation carries the global key",
			g:    Group{{Type: TxAppCreate, Sender: sender}},
			want: []chain.ConflictKey{
				chain.AccountKey(sender),
				chain.GlobalKey(),
			},
		},
		{
			name: "asset transfer keys asset and receiver",
			g:    Group{{Type: TxAssetTransfer, Sender: sender, Receiver: receiver, AssetID: 3}},
			want: []chain.ConflictKey{
				chain.AccountKey(sender),
				chain.AssetKey(3),
				chain.AccountKey(receiver),
			},
		},
		{
			name: "group concatenates member keys",
			g: Group{
				{Type: TxPay, Sender: sender, Receiver: receiver},
				{Type: TxAppCall, Sender: sender, AppID: 2},
			},
			want: []chain.ConflictKey{
				chain.AccountKey(sender),
				chain.AccountKey(receiver),
				chain.AccountKey(sender),
				chain.AppKey(2),
				chain.AccountKey(appEscrowAddress(2)),
			},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got := tc.g.ConflictKeys()
			if len(got) != len(tc.want) {
				t.Fatalf("got %d keys, want %d: %+v", len(got), len(tc.want), got)
			}
			for i := range got {
				if got[i] != tc.want[i] {
					t.Fatalf("key[%d] = %+v, want %+v", i, got[i], tc.want[i])
				}
			}
		})
	}
}

func TestGroupShardable(t *testing.T) {
	pay := &Tx{Type: TxPay}
	call := &Tx{Type: TxAppCall}
	if !(Group{pay, call}).shardable() {
		t.Fatal("pay+call groups are shardable")
	}
	for _, tx := range []*Tx{
		{Type: TxAppCreate}, {Type: TxAssetCreate},
		{Type: TxAssetOptIn}, {Type: TxAssetTransfer},
	} {
		if (Group{pay, tx}).shardable() {
			t.Fatalf("type %d must force the serial path", tx.Type)
		}
	}
}

func TestLedgerOverlayCopyOnWrite(t *testing.T) {
	led := newLedger()
	alice := chain.AddressFromBytes([]byte("alice"))
	led.setBalance(alice, 100)
	led.createApp(chain.Address{}, "int 1", nil, 0)
	led.GlobalPut(1, "k", avm.Uint64Value(5))

	ov := led.fork()
	if ov.Balance(alice) != 100 {
		t.Fatal("overlay must read through")
	}
	ov.setBalance(alice, 60)
	ov.GlobalPut(1, "k", avm.Uint64Value(9))
	ov.LocalPut(1, alice, "seen", avm.Uint64Value(1))
	if led.Balance(alice) != 100 {
		t.Fatal("base balance changed before commit")
	}
	if v, _ := led.GlobalGet(1, "k"); v.Uint != 5 {
		t.Fatal("base app mutated before commit: copy-on-write broken")
	}
	if v, _ := ov.GlobalGet(1, "k"); v.Uint != 9 {
		t.Fatal("overlay must serve its own global write")
	}
	if !ov.OptedIn(1, alice) {
		t.Fatal("overlay local write must imply opt-in")
	}
	if led.OptedIn(1, alice) {
		t.Fatal("base opt-in leaked before commit")
	}

	// Nested overlay: rollback by discarding.
	sub := ov.fork()
	sub.GlobalPut(1, "k", avm.Uint64Value(77))
	sub.setBalance(alice, 1)
	if v, _ := ov.GlobalGet(1, "k"); v.Uint != 9 {
		t.Fatal("discarded nested overlay must not leak")
	}

	led.adopt(ov)
	if led.Balance(alice) != 60 {
		t.Fatal("commit must fold balances")
	}
	if v, _ := led.GlobalGet(1, "k"); v.Uint != 9 {
		t.Fatal("commit must fold app state")
	}
	if !led.OptedIn(1, alice) {
		t.Fatal("commit must fold locals")
	}
}

// runShardedRounds drives per-area app-call traffic plus peer payments and
// returns the chain for digest comparison.
func runShardedRounds(t *testing.T, shards int) *Chain {
	t.Helper()
	c := NewChain(Testnet(), 77)
	c.SetShards(shards)
	cl := NewClient(c)

	deployer := c.NewAccount(50_000_000)
	const areas = 4
	var apps []uint64
	for i := 0; i < areas; i++ {
		_, id, err := cl.CreateApp(deployer, counterApp, nil)
		if err != nil {
			t.Fatal(err)
		}
		apps = append(apps, id)
	}

	const users = 12
	accts := make([]*Account, users)
	for i := range accts {
		accts[i] = c.NewAccount(10_000_000)
	}

	for round := 0; round < 8; round++ {
		var groups []Group
		for ui, u := range accts {
			call := &Tx{
				Type: TxAppCall, Sender: u.Address, Fee: MinFee,
				AppID: apps[ui%areas], Args: [][]byte{[]byte("bump")},
			}
			call.Sign(u)
			groups = append(groups, Group{call})
			if round%2 == 1 {
				pay := &Tx{
					Type: TxPay, Sender: u.Address, Fee: MinFee,
					Receiver: accts[ui^1].Address, Amount: 1000,
				}
				pay.Sign(u)
				groups = append(groups, Group{pay})
			}
		}
		_, errs := c.SubmitBatch(groups)
		for i, err := range errs {
			if err != nil {
				t.Fatalf("round %d group %d: %v", round, i, err)
			}
		}
		c.Step()
	}
	for i := 0; i < 10 && c.PendingCount() > 0; i++ {
		c.Step()
	}
	if c.PendingCount() != 0 {
		t.Fatalf("%d groups never included", c.PendingCount())
	}
	return c
}

func TestShardedRoundBitIdentity(t *testing.T) {
	ref := runShardedRounds(t, 1)
	refDigest := ref.Digest()
	for _, shards := range []int{2, 3, 4, 8} {
		c := runShardedRounds(t, shards)
		if len(c.blocks) != len(ref.blocks) {
			t.Fatalf("shards=%d: %d rounds vs %d serial", shards, len(c.blocks), len(ref.blocks))
		}
		for i := range ref.blocks {
			if c.blocks[i].Hash != ref.blocks[i].Hash {
				t.Fatalf("shards=%d: round %d hash diverges", shards, i)
			}
		}
		if d := c.Digest(); d != refDigest {
			t.Fatalf("shards=%d: ledger digest diverges from serial run", shards)
		}
	}
}

func TestShardedRoundRecordsStats(t *testing.T) {
	c := runShardedRounds(t, 4)
	stats := c.ShardStats()
	if stats == nil || stats.ParallelBatches == 0 {
		t.Fatalf("disjoint-area rounds must fan out (stats=%+v)", stats)
	}
	busy := 0
	for _, n := range stats.Txs {
		if n > 0 {
			busy++
		}
	}
	if busy < 2 {
		t.Fatalf("only %d shards did work (txs=%v)", busy, stats.Txs)
	}
}

func TestCreationRoundFallsBackToSerial(t *testing.T) {
	c := NewChain(Testnet(), 5)
	c.SetShards(4)
	alice := c.NewAccount(10_000_000)
	bob := c.NewAccount(10_000_000)
	create := &Tx{Type: TxAppCreate, Sender: alice.Address, Fee: MinFee, Source: approveAll}
	create.Sign(alice)
	pay := &Tx{Type: TxPay, Sender: bob.Address, Fee: MinFee,
		Receiver: chain.AddressFromBytes([]byte("x")), Amount: 1}
	pay.Sign(bob)
	_, errs := c.SubmitBatch([]Group{{create}, {pay}})
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	c.Step()
	stats := c.ShardStats()
	if stats.ParallelBatches != 0 {
		t.Fatal("a round containing a creation must take the serial path")
	}
	if _, ok := c.App(1); !ok {
		t.Fatal("creation did not execute on the fallback path")
	}
}

func TestRejectedCallInShardedRoundChargesFees(t *testing.T) {
	// A rejected app call must roll back its writes and still charge the
	// fee — on the sharded path exactly as on the serial one.
	run := func(shards int) *Chain {
		c := NewChain(Testnet(), 9)
		c.SetShards(shards)
		cl := NewClient(c)
		deployer := c.NewAccount(50_000_000)
		_, appID, err := cl.CreateApp(deployer, counterApp, nil)
		if err != nil {
			t.Fatal(err)
		}
		alice := c.NewAccount(10_000_000)
		bob := c.NewAccount(10_000_000)
		// "boom" matches no branch, so the program errs and the call rolls
		// back; bob's independent payment keeps the round multi-component.
		bad := &Tx{Type: TxAppCall, Sender: alice.Address, Fee: MinFee,
			AppID: appID, Args: [][]byte{[]byte("boom")}}
		bad.Sign(alice)
		pay := &Tx{Type: TxPay, Sender: bob.Address, Fee: MinFee,
			Receiver: chain.AddressFromBytes([]byte("sink")), Amount: 5}
		pay.Sign(bob)
		_, errs := c.SubmitBatch([]Group{{bad}, {pay}})
		for _, err := range errs {
			if err != nil {
				t.Fatal(err)
			}
		}
		c.Step()
		return c
	}
	serial := run(1)
	sharded := run(4)
	if sharded.ShardStats().ParallelBatches == 0 {
		t.Fatal("expected the sharded path to engage")
	}
	if serial.Digest() != sharded.Digest() {
		t.Fatal("revert handling diverges between serial and sharded paths")
	}
}

func TestFailedCreationRollsBackAppIDInRound(t *testing.T) {
	// One round: a creation whose approval program rejects in create
	// mode, then a successful creation with different source. The failed
	// creation's ID and program-cache entry roll back, so the second
	// creation reuses the ID, while the first creation's fee is still
	// charged — identically at every shard count.
	const rejectAll = "int 0\nreturn"
	run := func(shards int) *Chain {
		c := NewChain(Testnet(), 11)
		c.SetShards(shards)
		alice := c.NewAccount(10_000_000)
		bob := c.NewAccount(10_000_000)
		bad := &Tx{Type: TxAppCreate, Sender: alice.Address, Fee: MinFee, Source: rejectAll}
		bad.Sign(alice)
		good := &Tx{Type: TxAppCreate, Sender: bob.Address, Fee: MinFee, Source: counterApp}
		good.Sign(bob)
		hashes, errs := c.SubmitBatch([]Group{{bad}, {good}})
		for _, err := range errs {
			if err != nil {
				t.Fatal(err)
			}
		}
		c.Step()
		badRcpt, ok := c.Receipt(hashes[0])
		if !ok || !badRcpt.Reverted {
			t.Fatalf("rejecting creation must revert (receipt %+v)", badRcpt)
		}
		goodRcpt, ok := c.Receipt(hashes[1])
		if !ok || goodRcpt.Reverted {
			t.Fatalf("second creation must succeed (receipt %+v)", goodRcpt)
		}
		id, err := avm.Btoi(goodRcpt.ReturnValue)
		if err != nil {
			t.Fatal(err)
		}
		if id != 1 {
			t.Fatalf("second creation got app %d, want the rolled-back ID 1", id)
		}
		app, ok := c.App(id)
		if !ok || app.Source != counterApp {
			t.Fatal("app 1 must carry the second creation's program")
		}
		if got := c.Balance(alice.Address).Base.Uint64(); got != 10_000_000-MinFee {
			t.Fatalf("failed creator balance %d, want the fee charged", got)
		}
		return c
	}
	serial, sharded := run(1), run(4)
	if serial.Digest() != sharded.Digest() {
		t.Fatal("failed-creation rollback diverges between shard counts")
	}
}
