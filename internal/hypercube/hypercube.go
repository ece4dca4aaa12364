// Package hypercube implements the DHT with hypercube topology the paper
// stores validated reports in (§1.3, §2.5; Zichichi et al.'s "hypfs").
//
// The network has 2^r logical nodes. Node IDs are r-bit strings; two nodes
// are neighbours exactly when their IDs differ in one bit, so greedy routing
// (flip the most significant differing bit) reaches any node in at most r
// hops. Each node is responsible for the keyword set whose dual encoding
// (package olc) maps to its ID, and stores the per-area content the verifier
// publishes after the garbage-in check: the contract ID, the Open Location
// Code, and the array of validated report CIDs (Fig. 2.9).
package hypercube

import (
	"encoding/json"
	"fmt"
	"math/bits"
	"sort"
	"sync"

	"agnopol/internal/faults"
)

// Entry is the content of a hypercube node for one keyword (one area),
// matching Fig. 2.9 of the thesis.
type Entry struct {
	ContractID string   `json:"contractId"`
	OLC        string   `json:"olc"`
	CIDs       []string `json:"cids"`
}

// Clone returns a deep copy so callers cannot mutate stored state.
func (e *Entry) Clone() *Entry {
	if e == nil {
		return nil
	}
	cp := &Entry{ContractID: e.ContractID, OLC: e.OLC}
	cp.CIDs = append(cp.CIDs, e.CIDs...)
	return cp
}

// JSON renders the entry as the JSON document a real node serves (the
// format in Fig. 2.9).
func (e *Entry) JSON() ([]byte, error) {
	return json.Marshal(e)
}

// Node is one logical hypercube vertex.
type Node struct {
	id      uint64
	entries map[string]*Entry // keyword (OLC) -> content

	// Stats.
	forwarded uint64
}

// ID returns the node's integer identifier (its r-bit string).
func (n *Node) ID() uint64 { return n.id }

// Network is the complete r-dimensional hypercube.
type Network struct {
	mu    sync.RWMutex
	r     int
	nodes []*Node

	totalHops    uint64
	totalLookups uint64
	rerouted     uint64

	// flt injects node failures on routing paths; nil when fault
	// injection is off.
	flt *faults.Injector
}

// SetFaults attaches a fault injector to the routing layer.
func (h *Network) SetFaults(inj *faults.Injector) {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.flt = inj
}

// New creates an r-dimensional hypercube with all 2^r logical nodes. r must
// be in 1..20 (the paper uses small r; 2^20 nodes is already a million).
func New(r int) (*Network, error) {
	if r < 1 || r > 20 {
		return nil, fmt.Errorf("hypercube: dimension r=%d out of range (1..20)", r)
	}
	n := &Network{r: r, nodes: make([]*Node, 1<<uint(r))}
	for i := range n.nodes {
		n.nodes[i] = &Node{id: uint64(i), entries: make(map[string]*Entry)}
	}
	return n, nil
}

// MustNew is New for static dimensions.
func MustNew(r int) *Network {
	n, err := New(r)
	if err != nil {
		panic(err)
	}
	return n
}

// Dimension returns r.
func (h *Network) Dimension() int { return h.r }

// Size returns the number of logical nodes, 2^r.
func (h *Network) Size() int { return len(h.nodes) }

// Neighbors returns the IDs adjacent to id (differing in exactly one bit).
func (h *Network) Neighbors(id uint64) []uint64 {
	out := make([]uint64, 0, h.r)
	for b := h.r - 1; b >= 0; b-- {
		out = append(out, id^(1<<uint(b)))
	}
	return out
}

// Route walks greedily from 'from' to 'to', flipping the most significant
// differing bit at each hop, and returns the path including both endpoints.
// Path length is the Hamming distance, hence at most r.
func (h *Network) Route(from, to uint64) []uint64 {
	path := []uint64{from}
	cur := from
	for cur != to {
		diff := cur ^ to
		b := bits.Len64(diff) - 1
		cur ^= 1 << uint(b)
		path = append(path, cur)
	}
	return path
}

// routeResilient walks greedily from 'from' to 'to' like Route, but
// consults the fault injector at every intermediate hop: when the greedy
// next-hop node is down, the walk detours via the least significant
// differing bit instead. Any differing bit closes the Hamming distance, so
// reroutes never lengthen the path and the r-hop bound survives failures.
// The endpoints never fail — the requester is alive and the responsible
// node must serve, matching the paper's assumption that content
// responsibility is re-homed out of band.
func (h *Network) routeResilient(from, to uint64) (path []uint64, rerouted int) {
	path = []uint64{from}
	cur := from
	for cur != to {
		diff := cur ^ to
		next := cur ^ (1 << uint(bits.Len64(diff)-1))
		if next != to && h.flt.Hit(faults.ClassCubeNodeDown, "cube.route") {
			next = cur ^ (1 << uint(bits.TrailingZeros64(diff)))
			rerouted++
		}
		cur = next
		path = append(path, cur)
	}
	return path, rerouted
}

// finishRoute records a completed fault-aware route: every reroute that
// still delivered the request counts as a recovery.
func (h *Network) finishRoute(rerouted int) {
	h.rerouted += uint64(rerouted)
	h.flt.RecoverN(faults.ClassCubeNodeDown, rerouted)
}

// Hops returns the routing distance between two node IDs.
func (h *Network) Hops(from, to uint64) int {
	return bits.OnesCount64(from ^ to)
}

func (h *Network) checkID(id uint64) error {
	if id >= uint64(len(h.nodes)) {
		return fmt.Errorf("hypercube: node id %d out of range for r=%d", id, h.r)
	}
	return nil
}

// Put routes from entry node 'via' to the node responsible for keyword
// (target node targetID) and stores the entry there. It returns the number
// of hops the request travelled.
func (h *Network) Put(via, targetID uint64, keyword string, entry *Entry) (int, error) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if err := h.checkID(via); err != nil {
		return 0, err
	}
	if err := h.checkID(targetID); err != nil {
		return 0, err
	}
	path, rerouted := h.routeResilient(via, targetID)
	for _, nid := range path[:len(path)-1] {
		h.nodes[nid].forwarded++
	}
	node := h.nodes[targetID]
	node.entries[keyword] = entry.Clone()
	h.totalHops += uint64(len(path) - 1)
	h.totalLookups++
	h.finishRoute(rerouted)
	return len(path) - 1, nil
}

// Get routes from 'via' to the responsible node and returns the entry for
// keyword, the hop count, and whether it was found.
func (h *Network) Get(via, targetID uint64, keyword string) (*Entry, int, bool, error) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if err := h.checkID(via); err != nil {
		return nil, 0, false, err
	}
	if err := h.checkID(targetID); err != nil {
		return nil, 0, false, err
	}
	path, rerouted := h.routeResilient(via, targetID)
	for _, nid := range path[:len(path)-1] {
		h.nodes[nid].forwarded++
	}
	node := h.nodes[targetID]
	h.totalHops += uint64(len(path) - 1)
	h.totalLookups++
	h.finishRoute(rerouted)
	e, ok := node.entries[keyword]
	return e.Clone(), len(path) - 1, ok, nil
}

// AppendCID appends a validated report CID to the entry for keyword,
// creating the entry when absent. This is the verifier's garbage-in write
// path.
func (h *Network) AppendCID(via, targetID uint64, keyword, contractID, cid string) (int, error) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if err := h.checkID(via); err != nil {
		return 0, err
	}
	if err := h.checkID(targetID); err != nil {
		return 0, err
	}
	path, rerouted := h.routeResilient(via, targetID)
	node := h.nodes[targetID]
	e, ok := node.entries[keyword]
	if !ok {
		e = &Entry{ContractID: contractID, OLC: keyword}
		node.entries[keyword] = e
	}
	e.CIDs = append(e.CIDs, cid)
	h.totalHops += uint64(len(path) - 1)
	h.totalLookups++
	h.finishRoute(rerouted)
	return len(path) - 1, nil
}

// RangeQuery implements the "complex query" of §1.3: collect every entry
// stored within maxHops of the target node (a Hamming ball), the mechanism
// that lets the application fetch reports for an area and its surroundings
// with a bounded number of hops.
func (h *Network) RangeQuery(targetID uint64, maxHops int) ([]*Entry, error) {
	h.mu.RLock()
	defer h.mu.RUnlock()
	if err := h.checkID(targetID); err != nil {
		return nil, err
	}
	var out []*Entry
	for _, n := range h.nodes {
		if bits.OnesCount64(n.id^targetID) <= maxHops {
			keys := make([]string, 0, len(n.entries))
			for k := range n.entries {
				keys = append(keys, k)
			}
			sort.Strings(keys)
			for _, k := range keys {
				out = append(out, n.entries[k].Clone())
			}
		}
	}
	return out, nil
}

// Stats summarizes routing behaviour for the ablation benchmarks.
type Stats struct {
	Lookups uint64
	AvgHops float64
	MaxHops int
	// Rerouted counts hops detoured around injected node failures.
	Rerouted uint64
}

// Stats returns aggregate routing statistics. MaxHops is the theoretical
// bound r (greedy routing can never exceed it).
func (h *Network) Stats() Stats {
	h.mu.RLock()
	defer h.mu.RUnlock()
	s := Stats{Lookups: h.totalLookups, MaxHops: h.r, Rerouted: h.rerouted}
	if h.totalLookups > 0 {
		s.AvgHops = float64(h.totalHops) / float64(h.totalLookups)
	}
	return s
}
