package algorand

import (
	"encoding/binary"
	"fmt"

	"agnopol/internal/avm"
	"agnopol/internal/chain"
	"agnopol/internal/mstate"
	"agnopol/internal/polcrypto"
)

// Account is an Algorand account with its signing key.
type Account struct {
	Key     *polcrypto.KeyPair
	Address chain.Address
}

// App is a deployed stateful application's static description. Its
// key/value state — globals, locals, opt-in markers — lives in the state
// trie; the parsed Program is cached ledger-side so calls do not
// re-parse TEAL.
type App struct {
	ID       uint64
	Creator  chain.Address
	Program  *avm.Program
	Source   string
	Deleted  bool
	CreateAt uint64 // round
}

// Trie key derivation. Every logical ledger entry — a balance, an app's
// metadata, one global, one local, an opt-in marker, an asset holding —
// is one key in the Merkle trie, tagged by column family.
func u64b(v uint64) []byte {
	var b [8]byte
	binary.BigEndian.PutUint64(b[:], v)
	return b[:]
}

func balKey(addr chain.Address) mstate.Key { return mstate.KeyOf("algo/bal", addr[:]) }
func appMetaKey(id uint64) mstate.Key      { return mstate.KeyOf("algo/app", u64b(id)) }
func globalKey(id uint64, key string) mstate.Key {
	return mstate.KeyOf("algo/g", u64b(id), []byte(key))
}
func localKey(id uint64, addr chain.Address, key string) mstate.Key {
	return mstate.KeyOf("algo/l", u64b(id), addr[:], []byte(key))
}
func optinKey(id uint64, addr chain.Address) mstate.Key {
	return mstate.KeyOf("algo/optin", u64b(id), addr[:])
}
func assetMetaKey(id uint64) mstate.Key { return mstate.KeyOf("algo/asset", u64b(id)) }
func holdKey(addr chain.Address, id uint64) mstate.Key {
	return mstate.KeyOf("algo/hold", u64b(id), addr[:])
}

// encodeValue / decodeValue render an avm.Value as a trie entry.
func encodeValue(v avm.Value) []byte {
	if v.IsBytes {
		return append([]byte{1}, v.Bytes...)
	}
	return append([]byte{0}, u64b(v.Uint)...)
}

func decodeValue(enc []byte) avm.Value {
	if len(enc) == 0 {
		return avm.Value{}
	}
	if enc[0] == 1 {
		return avm.Value{IsBytes: true, Bytes: append([]byte(nil), enc[1:]...)}
	}
	return avm.Value{Uint: binary.BigEndian.Uint64(enc[1:])}
}

// encodeAppMeta renders an app's static description. The deleted flag
// leads so existence checks read one byte.
func encodeAppMeta(a *App) []byte {
	enc := make([]byte, 0, 1+20+8+len(a.Source))
	del := byte(0)
	if a.Deleted {
		del = 1
	}
	enc = append(enc, del)
	enc = append(enc, a.Creator[:]...)
	enc = append(enc, u64b(a.CreateAt)...)
	return append(enc, a.Source...)
}

func decodeAppMeta(id uint64, enc []byte) *App {
	a := &App{ID: id, Deleted: enc[0] == 1}
	copy(a.Creator[:], enc[1:21])
	a.CreateAt = binary.BigEndian.Uint64(enc[21:29])
	a.Source = string(enc[29:])
	return a
}

func encodeAssetMeta(a *Asset) []byte {
	enc := make([]byte, 0, 20+8+4+8+4+len(a.Name)+len(a.UnitName))
	enc = append(enc, a.Creator[:]...)
	enc = append(enc, u64b(a.Total)...)
	var dec [4]byte
	binary.BigEndian.PutUint32(dec[:], a.Decimals)
	enc = append(enc, dec[:]...)
	enc = append(enc, u64b(a.CreateAt)...)
	var nl [4]byte
	binary.BigEndian.PutUint32(nl[:], uint32(len(a.Name)))
	enc = append(enc, nl[:]...)
	enc = append(enc, a.Name...)
	return append(enc, a.UnitName...)
}

func decodeAssetMeta(id uint64, enc []byte) *Asset {
	a := &Asset{ID: id}
	copy(a.Creator[:], enc[:20])
	a.Total = binary.BigEndian.Uint64(enc[20:28])
	a.Decimals = binary.BigEndian.Uint32(enc[28:32])
	a.CreateAt = binary.BigEndian.Uint64(enc[32:40])
	nl := binary.BigEndian.Uint32(enc[40:44])
	a.Name = string(enc[44 : 44+nl])
	a.UnitName = string(enc[44+nl:])
	return a
}

// stateKV is the key/value surface the accessor layer runs on — the
// canonical trie and shard overlays both implement it, so the ledger
// semantics below exist exactly once.
type stateKV interface {
	Get(mstate.Key) ([]byte, bool)
	Put(mstate.Key, []byte)
	Delete(mstate.Key)
	Has(mstate.Key) bool
}

// ledgerKV implements the avm.Ledger surface (plus app and asset
// accessors) over any stateKV. The back-pointer to the canonical ledger
// serves the program/asset caches and the round clock — all of which
// shard workers only read during concurrent execution.
type ledgerKV struct {
	kv  stateKV
	led *ledger
}

// appExists reports whether the app is present and not deleted, without
// materializing the metadata.
func (v *ledgerKV) appExists(id uint64) bool {
	enc, ok := v.kv.Get(appMetaKey(id))
	return ok && enc[0] == 0
}

func (v *ledgerKV) app(id uint64) *App {
	enc, ok := v.kv.Get(appMetaKey(id))
	if !ok || enc[0] == 1 {
		return nil
	}
	if a, ok := v.led.progs[id]; ok {
		return a
	}
	// Cache miss: rebuild from the trie. Shard workers may run this
	// concurrently, so parse without touching the shared cache.
	a := decodeAppMeta(id, enc)
	prog, err := avm.Parse(a.Source)
	if err != nil {
		return nil
	}
	a.Program = prog
	return a
}

// GlobalGet implements avm.Ledger.
func (v *ledgerKV) GlobalGet(appID uint64, key string) (avm.Value, bool) {
	if !v.appExists(appID) {
		return avm.Value{}, false
	}
	enc, ok := v.kv.Get(globalKey(appID, key))
	if !ok {
		return avm.Value{}, false
	}
	return decodeValue(enc), true
}

// GlobalPut implements avm.Ledger.
func (v *ledgerKV) GlobalPut(appID uint64, key string, val avm.Value) {
	if !v.appExists(appID) {
		return
	}
	v.kv.Put(globalKey(appID, key), encodeValue(val))
}

// GlobalDel implements avm.Ledger.
func (v *ledgerKV) GlobalDel(appID uint64, key string) {
	if !v.appExists(appID) {
		return
	}
	v.kv.Delete(globalKey(appID, key))
}

// LocalGet implements avm.Ledger.
func (v *ledgerKV) LocalGet(appID uint64, addr chain.Address, key string) (avm.Value, bool) {
	if !v.appExists(appID) {
		return avm.Value{}, false
	}
	enc, ok := v.kv.Get(localKey(appID, addr, key))
	if !ok {
		return avm.Value{}, false
	}
	return decodeValue(enc), true
}

// LocalPut implements avm.Ledger. The first local write opts the account
// in (mirroring the map backend, where creating the per-address local
// map was what OptedIn tested); the marker survives deletes of
// individual keys.
func (v *ledgerKV) LocalPut(appID uint64, addr chain.Address, key string, val avm.Value) {
	if !v.appExists(appID) {
		return
	}
	mk := optinKey(appID, addr)
	if !v.kv.Has(mk) {
		v.kv.Put(mk, []byte{1})
	}
	v.kv.Put(localKey(appID, addr, key), encodeValue(val))
}

// LocalDel implements avm.Ledger.
func (v *ledgerKV) LocalDel(appID uint64, addr chain.Address, key string) {
	if !v.appExists(appID) {
		return
	}
	v.kv.Delete(localKey(appID, addr, key))
}

// OptedIn implements avm.Ledger.
func (v *ledgerKV) OptedIn(appID uint64, addr chain.Address) bool {
	if !v.appExists(appID) {
		return false
	}
	return v.kv.Has(optinKey(appID, addr))
}

// Balance implements avm.Ledger.
func (v *ledgerKV) Balance(addr chain.Address) uint64 {
	enc, ok := v.kv.Get(balKey(addr))
	if !ok {
		return 0
	}
	return binary.BigEndian.Uint64(enc)
}

// setBalance force-writes a balance; a zero write keeps an explicit
// entry, matching the map backend's semantics.
func (v *ledgerKV) setBalance(addr chain.Address, val uint64) {
	v.kv.Put(balKey(addr), u64b(val))
}

// credit adds to a balance. A zero credit of an absent account is a
// no-op: it must not conjure a phantom zero-balance entry into the
// state root.
func (v *ledgerKV) credit(addr chain.Address, val uint64) {
	if val == 0 {
		return
	}
	v.setBalance(addr, v.Balance(addr)+val)
}

// Pay implements avm.Ledger (used for inner transactions and payments).
func (v *ledgerKV) Pay(from, to chain.Address, amount uint64) error {
	if v.Balance(from) < amount {
		return fmt.Errorf("%w: %s has %d µALGO, needs %d",
			avm.ErrInsufficientBalance, from, v.Balance(from), amount)
	}
	v.setBalance(from, v.Balance(from)-amount)
	v.setBalance(to, v.Balance(to)+amount)
	return nil
}

// appEscrowAddress derives the escrow address of an application — a pure
// function of the ID, shared by the ledger and its shard overlays.
func appEscrowAddress(appID uint64) chain.Address {
	h := polcrypto.Hash([]byte(fmt.Sprintf("appID:%d", appID)))
	return chain.AddressFromBytes(h[:])
}

// AppAddress implements avm.Ledger: the application escrow address.
func (v *ledgerKV) AppAddress(appID uint64) chain.Address {
	return appEscrowAddress(appID)
}

// Round implements avm.Ledger.
func (v *ledgerKV) Round() uint64 { return v.led.round }

// LatestTimestamp implements avm.Ledger.
func (v *ledgerKV) LatestTimestamp() uint64 { return v.led.time }

// asset returns an asset's description, from the cache or the trie.
func (v *ledgerKV) asset(id uint64) *Asset {
	if a, ok := v.led.assets[id]; ok {
		return a
	}
	enc, ok := v.kv.Get(assetMetaKey(id))
	if !ok {
		return nil
	}
	return decodeAssetMeta(id, enc)
}

func (v *ledgerKV) assetExists(id uint64) bool {
	if _, ok := v.led.assets[id]; ok {
		return true
	}
	return v.kv.Has(assetMetaKey(id))
}

// holding returns addr's balance of an asset (0 when not opted in; use
// assetOptedIn to distinguish).
func (v *ledgerKV) holding(addr chain.Address, id uint64) uint64 {
	enc, ok := v.kv.Get(holdKey(addr, id))
	if !ok {
		return 0
	}
	return binary.BigEndian.Uint64(enc)
}

func (v *ledgerKV) setHolding(addr chain.Address, id, val uint64) {
	v.kv.Put(holdKey(addr, id), u64b(val))
}

func (v *ledgerKV) assetOptedIn(addr chain.Address, id uint64) bool {
	return v.kv.Has(holdKey(addr, id))
}

// assetOptIn records a zero holding — the opt-in marker.
func (v *ledgerKV) assetOptIn(addr chain.Address, id uint64) {
	if !v.assetOptedIn(addr, id) {
		v.setHolding(addr, id, 0)
	}
}

// assetTransfer moves ASA units. Error texts are part of the receipt
// stream, so they must stay stable across backends.
func (v *ledgerKV) assetTransfer(id uint64, from, to chain.Address, amount uint64) error {
	if !v.assetExists(id) {
		return fmt.Errorf("%w: %d", ErrAssetNotFound, id)
	}
	if !v.assetOptedIn(to, id) {
		return fmt.Errorf("%w: %s / asset %d", ErrNotOptedIn, to, id)
	}
	if have := v.holding(from, id); have < amount {
		return fmt.Errorf("%w: %s holds %d of asset %d, needs %d",
			ErrAssetShort, from, have, id, amount)
	}
	v.setHolding(from, id, v.holding(from, id)-amount)
	v.setHolding(to, id, v.holding(to, id)+amount)
	return nil
}

// ledger is the on-chain state: a Merkle trie over balances, application
// state and asset holdings, plus ledger-side caches of parsed programs
// and asset descriptions. It implements avm.Ledger.
type ledger struct {
	ledgerKV
	t *mstate.Trie
	// progs caches each live app's parsed Program (the trie metadata
	// stores only the source); assets caches ASA descriptions. Both
	// prune on restore so a rolled-back creation never leaves a stale
	// entry behind.
	progs  map[uint64]*App
	assets map[uint64]*Asset

	appSeq   uint64
	assetSeq uint64
	round    uint64
	time     uint64
}

func newLedger() *ledger {
	l := &ledger{
		t:      mstate.New(),
		progs:  make(map[uint64]*App),
		assets: make(map[uint64]*Asset),
	}
	l.ledgerKV = ledgerKV{kv: l.t, led: l}
	return l
}

var _ avm.Ledger = (*ledger)(nil)

// root is the Merkle root of the ledger state.
func (l *ledger) root() chain.Hash32 { return chain.Hash32(l.t.Root()) }

// createApp registers a new application and returns its ID. Creations
// run only in serial rounds, so the sequence counter and program cache
// on the canonical ledger are never written concurrently.
func (v *ledgerKV) createApp(creator chain.Address, source string, prog *avm.Program, round uint64) uint64 {
	l := v.led
	l.appSeq++
	a := &App{ID: l.appSeq, Creator: creator, Program: prog, Source: source, CreateAt: round}
	v.kv.Put(appMetaKey(a.ID), encodeAppMeta(a))
	l.progs[a.ID] = a
	return a.ID
}

// assetCreate mints a new asset; the creator holds the entire supply and
// is implicitly opted in.
func (v *ledgerKV) assetCreate(creator chain.Address, name, unit string, total uint64, decimals uint32, round uint64) *Asset {
	l := v.led
	l.assetSeq++
	a := &Asset{
		ID: l.assetSeq, Creator: creator, Name: name, UnitName: unit,
		Total: total, Decimals: decimals, CreateAt: round,
	}
	v.kv.Put(assetMetaKey(a.ID), encodeAssetMeta(a))
	l.assets[a.ID] = a
	v.setHolding(creator, a.ID, total)
	return a
}

// snapshot captures the ledger in O(1) — a trie fork plus the sequence
// counters — so a failed group can roll back atomically no matter how
// large the world is.
type snapshot struct {
	t        *mstate.Trie
	appSeq   uint64
	assetSeq uint64
}

func (l *ledger) snapshot() snapshot {
	return snapshot{t: l.t.Snapshot(), appSeq: l.appSeq, assetSeq: l.assetSeq}
}

func (l *ledger) restore(s snapshot) {
	l.t = s.t
	l.kv = l.t
	l.rollbackCreations(s.appSeq, s.assetSeq)
}

// rollbackCreations rewinds the sequence counters and drops cache entries
// for creations being rolled back: their trie entries are already gone
// (root swap or discarded overlay), and a later re-creation of the same
// ID may carry different source.
func (l *ledger) rollbackCreations(appSeq, assetSeq uint64) {
	for id := range l.progs {
		if id > appSeq {
			delete(l.progs, id)
		}
	}
	for id := range l.assets {
		if id > assetSeq {
			delete(l.assets, id)
		}
	}
	l.appSeq = appSeq
	l.assetSeq = assetSeq
}
