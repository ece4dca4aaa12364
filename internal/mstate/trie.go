// Package mstate is the Merkle snapshot state layer: an immutable
// copy-on-write trie over 32-byte hashed keys that gives every chain
// backend O(1) snapshots, an authenticated state root per block, and a
// disk-shaped persistence seam (NodeStore).
//
// The trie is a 16-ary radix tree over the nibbles of the (already
// hashed, uniformly distributed) key. Leaves store the full key and
// value, so lookups terminate as soon as the path is unambiguous;
// interior branch chains exist only along shared key prefixes. Every
// mutation copies the nodes on the touched path and shares the rest,
// which is what makes Snapshot a root-pointer copy and keeps forks
// cheap: two tries diverging by k keys share all but O(k·depth) nodes.
//
// The structure — and therefore the root hash — is a pure function of
// the key/value set, independent of insertion or deletion order:
// deletes collapse single-leaf branches back to the shape a fresh
// insertion of the surviving keys would build.
package mstate

import (
	"crypto/sha256"
	"sync/atomic"
)

// Key is a trie key: the caller hashes its logical key (address, slot,
// app id...) down to 32 uniformly distributed bytes via KeyOf.
type Key [32]byte

// Hash is a node or root hash.
type Hash [32]byte

// KeyOf derives a trie key from a domain tag and the logical key parts.
// The tag keeps different column families (balances, nonces, storage...)
// from colliding even when their raw parts coincide.
func KeyOf(tag string, parts ...[]byte) Key {
	h := sha256.New()
	h.Write([]byte(tag))
	h.Write([]byte{0})
	for _, p := range parts {
		h.Write(p)
	}
	var k Key
	h.Sum(k[:0])
	return k
}

// node is either a *leaf or a *branch. Nodes are immutable once linked
// into a trie; mutation always copies.
type node interface {
	hash() Hash
}

// leaf holds one key/value pair. The value slice is owned by the trie
// (Put copies), never mutated in place.
type leaf struct {
	key    Key
	val    []byte
	cached atomic.Pointer[Hash]
}

// branch fans out on one nibble of the key. children[i] covers keys
// whose nibble at this depth is i.
type branch struct {
	children [16]node
	cached   atomic.Pointer[Hash]
}

// Node-encoding tags, shared by hashing and persistence so that a
// node's hash is the hash of its stored encoding.
const (
	tagLeaf   = 0x4C // 'L'
	tagBranch = 0x42 // 'B'
)

func (l *leaf) hash() Hash {
	if h := l.cached.Load(); h != nil {
		return *h
	}
	hs := sha256.New()
	hs.Write([]byte{tagLeaf})
	hs.Write(l.key[:])
	hs.Write(l.val)
	var h Hash
	hs.Sum(h[:0])
	l.cached.Store(&h) // idempotent: concurrent stores write the same value
	return h
}

func (b *branch) hash() Hash {
	if h := b.cached.Load(); h != nil {
		return *h
	}
	hs := sha256.New()
	var hdr [3]byte
	hdr[0] = tagBranch
	mask := b.mask()
	hdr[1], hdr[2] = byte(mask>>8), byte(mask)
	hs.Write(hdr[:])
	for _, c := range b.children {
		if c != nil {
			ch := c.hash()
			hs.Write(ch[:])
		}
	}
	var h Hash
	hs.Sum(h[:0])
	b.cached.Store(&h)
	return h
}

// mask is the bitmap of occupied child slots, bit i for children[i].
func (b *branch) mask() uint16 {
	var m uint16
	for i, c := range b.children {
		if c != nil {
			m |= 1 << uint(i)
		}
	}
	return m
}

// clone returns a mutable copy of the branch with an unset hash cache.
func (b *branch) clone() *branch {
	nb := &branch{children: b.children}
	return nb
}

// nibble returns the depth-th nibble of k, high nibble first.
func nibble(k Key, depth int) int {
	by := k[depth/2]
	if depth%2 == 0 {
		return int(by >> 4)
	}
	return int(by & 0x0F)
}

// Trie is one version of the state. The zero value is not usable; call
// New. A Trie is not safe for concurrent mutation, but any number of
// snapshots may be read (and hashed) concurrently because all shared
// nodes are immutable.
type Trie struct {
	root  node
	count int
}

// New returns an empty trie.
func New() *Trie { return &Trie{} }

// Snapshot returns an independent fork sharing all nodes with t. Both
// sides may continue to mutate; neither observes the other. O(1).
func (t *Trie) Snapshot() *Trie { return &Trie{root: t.root, count: t.count} }

// Len is the number of live keys.
func (t *Trie) Len() int { return t.count }

// emptyRoot is the root hash of the empty trie.
var emptyRoot = Hash{}

// Root returns the Merkle root of the current contents. Hashing is
// memoized per node, so after the first call only newly written paths
// cost anything.
func (t *Trie) Root() Hash {
	if t.root == nil {
		return emptyRoot
	}
	return t.root.hash()
}

// Get returns the stored value and whether the key is present. The
// returned slice is owned by the trie: callers must not mutate it.
func (t *Trie) Get(k Key) ([]byte, bool) {
	n := t.root
	depth := 0
	for n != nil {
		switch v := n.(type) {
		case *leaf:
			if v.key == k {
				return v.val, true
			}
			return nil, false
		case *branch:
			n = v.children[nibble(k, depth)]
			depth++
		}
	}
	return nil, false
}

// Has reports whether k is present.
func (t *Trie) Has(k Key) bool {
	_, ok := t.Get(k)
	return ok
}

// Put stores v under k, copying v so later caller-side mutation cannot
// alias into the trie.
func (t *Trie) Put(k Key, v []byte) {
	cp := make([]byte, len(v))
	copy(cp, v)
	var added bool
	t.root, added = insert(t.root, k, 0, cp)
	if added {
		t.count++
	}
}

// insert returns the new subtree root and whether the key was newly
// added (vs overwritten).
func insert(n node, k Key, depth int, v []byte) (node, bool) {
	switch cur := n.(type) {
	case nil:
		return &leaf{key: k, val: v}, true
	case *leaf:
		if cur.key == k {
			return &leaf{key: k, val: v}, false
		}
		// Grow a branch chain down to the first diverging nibble.
		return splitLeaf(cur, &leaf{key: k, val: v}, depth), true
	case *branch:
		nb := cur.clone()
		idx := nibble(k, depth)
		child, added := insert(cur.children[idx], k, depth+1, v)
		nb.children[idx] = child
		return nb, added
	}
	panic("mstate: unknown node type")
}

// splitLeaf builds the branch chain separating two distinct keys that
// share a prefix from depth onward.
func splitLeaf(a, b *leaf, depth int) node {
	ia, ib := nibble(a.key, depth), nibble(b.key, depth)
	br := &branch{}
	if ia == ib {
		br.children[ia] = splitLeaf(a, b, depth+1)
	} else {
		br.children[ia] = a
		br.children[ib] = b
	}
	return br
}

// Delete removes k if present.
func (t *Trie) Delete(k Key) {
	root, removed := remove(t.root, k, 0)
	t.root = root
	if removed {
		t.count--
	}
}

// remove returns the new subtree root and whether a key was removed.
// Branches left with a single leaf child collapse to that leaf so the
// structure stays a pure function of the surviving key set.
func remove(n node, k Key, depth int) (node, bool) {
	switch cur := n.(type) {
	case nil:
		return nil, false
	case *leaf:
		if cur.key == k {
			return nil, true
		}
		return cur, false
	case *branch:
		idx := nibble(k, depth)
		child, removed := remove(cur.children[idx], k, depth+1)
		if !removed {
			return cur, false
		}
		nb := cur.clone()
		nb.children[idx] = child
		// Collapse: count survivors; a lone leaf replaces the branch.
		var only node
		cnt := 0
		for _, c := range nb.children {
			if c != nil {
				only = c
				cnt++
			}
		}
		switch {
		case cnt == 0:
			return nil, true
		case cnt == 1:
			if lf, ok := only.(*leaf); ok {
				return lf, true
			}
		}
		return nb, true
	}
	panic("mstate: unknown node type")
}
