package sim

import (
	"fmt"
	"sync"
	"time"

	"agnopol/internal/chain"
	"agnopol/internal/core"
	"agnopol/internal/obs"
	"agnopol/internal/olc"
)

// Cross-chain soak — the agnosticism claim under sustained mixed load. A
// single-chain soak exercises one Connector at a time, so "the same
// contracts run unchanged over EVM and Algorand" is only ever tested
// serially. RunMultiSoak spreads one workload across several backends at
// once: areas are assigned round-robin, each backend runs its share of the
// load as an independent seed-forked soak, and all backends' SubmitBatch
// loops execute concurrently in one process. Because every per-backend
// stream derives from the multi-soak seed by a domain-tagged fork — never
// from shared mutable state — the per-backend digests are bit-identical
// whether the backends run concurrently or one after another, at any
// GOMAXPROCS. That interleaving-independence is the determinism contract
// polbench re-checks and benchgate gates.

// MultiSoakSpec describes one soak spread across several chain backends.
type MultiSoakSpec struct {
	// Chains lists the backends; at least two distinct presets. Area i is
	// served by Chains[i % len(Chains)].
	Chains []ChainName
	// Areas (M) is the global area count, partitioned round-robin over the
	// backends; must be >= len(Chains) so every backend serves load.
	Areas int
	// Users (K) is the global user count. Each user's home area is
	// (user % Areas), so users follow their area to its backend.
	Users int
	// Rounds (T) is the sustained-load duration, per backend.
	Rounds int
	// Shards partitions each backend's block execution; 1 is serial.
	Shards int
	// Seed drives every stream of the run. Backend b's sub-soak seed is
	// NewRand(Seed).Fork("multisoak:"+chain) — a pure function of (Seed,
	// chain name), independent of backend order and of the other backends.
	Seed uint64
	// Obs and Telemetry are shared by all backends; both are safe under
	// concurrent use.
	Obs       *obs.Obs
	Telemetry *obs.Telemetry
	// Sequential runs the backends one after another instead of
	// concurrently. Results must be bit-identical either way — polbench
	// runs both and errors on divergence.
	Sequential bool
	// DiscoveryShards is the shard count of the DHT discovery phase; zero
	// defaults to Shards. Discovery routes every area's contract lookup
	// through the hypercube twice — flat (OLC dual encoding) and sharded
	// (ShardOf-affine neighborhoods) — and the report asserts both modes
	// resolved identical handles.
	DiscoveryShards int
}

// BackendResult is one backend's share of a multi-soak.
type BackendResult struct {
	Chain ChainName
	// Areas and Users are this backend's partition sizes.
	Areas int
	Users int
	// Seed is the backend's forked sub-soak seed.
	Seed uint64
	Soak *SoakResult
}

// DiscoveryReport summarizes the DHT discovery phase: every user resolved
// their home area's contract through the hypercube in both flat and
// sharded mode before load started.
type DiscoveryReport struct {
	// Shards is the discovery shard count; R the hypercube dimension.
	Shards int
	R      int
	// Lookups counts sharded-mode resolutions (one per user);
	// PerShardLookups splits them by AreaRegistry.ShardOf. The sum of the
	// split equals Lookups — the gate checks it.
	Lookups         uint64
	PerShardLookups []uint64
	// MaxHops is the longest route any lookup took, over both modes; the
	// hypercube bound guarantees MaxHops <= R.
	MaxHops int
	// FlatEquivalent is true when every sharded lookup returned the same
	// handle as the flat lookup for the same area — the determinism
	// contract of sharded discovery.
	FlatEquivalent bool
}

// MultiSoakResult aggregates one cross-chain soak.
type MultiSoakResult struct {
	Chains []ChainName
	Areas  int
	Users  int
	Rounds int
	Shards int
	Seed   uint64

	Backends  []BackendResult
	Discovery DiscoveryReport

	// Wall is the host wall-clock time of the backend pass — the span from
	// starting the first backend to the last one finishing. Sequential
	// runs accumulate; concurrent runs overlap.
	Wall time.Duration
	// TotalIncluded sums included user transactions over all backends.
	TotalIncluded uint64
	// AggregateTps is TotalIncluded per Wall second — the cross-chain
	// headline. SlowestTps is the slowest backend's own wall throughput;
	// SpeedupVsSlowest is their ratio, the gain from running the backends
	// side by side instead of being bound by the slowest one.
	AggregateTps     float64
	SlowestTps       float64
	SpeedupVsSlowest float64
}

// multiSoakAreaCode synthesizes the i-th global area's full Open Location
// Code by spelling i in base 20 over the second digit quad — unlike the
// single-chain soak's internal labels these are valid OLC, because the
// discovery phase routes them through the cube's OLC dual encoding.
func multiSoakAreaCode(i int) string {
	a := olc.Alphabet
	n := len(a)
	return fmt.Sprintf("7H36%c%c%c%c+Q2",
		a[(i/(n*n*n))%n], a[(i/(n*n))%n], a[(i/n)%n], a[i%n])
}

// multiSoakSeed derives backend b's sub-soak seed — a pure function of the
// multi-soak seed and the chain name, so it does not depend on backend
// order or count.
func multiSoakSeed(seed uint64, name ChainName) uint64 {
	return chain.NewRand(seed).Fork("multisoak:" + string(name)).Uint64()
}

// runMultiDiscovery is the pre-load discovery phase: publish every area's
// handle into one hypercube in both flat and sharded placement, then have
// every user resolve their home area in both modes and check the handles
// agree. Per-shard lookup tallies feed the report (and, through Obs, the
// core_dht_discovery_total counters).
func runMultiDiscovery(spec MultiSoakSpec, seeds []uint64) (DiscoveryReport, error) {
	sys, err := core.NewSystem(spec.Seed)
	if err != nil {
		return DiscoveryReport{}, err
	}
	shards := spec.DiscoveryShards
	if shards < 1 {
		shards = spec.Shards
	}
	reg := core.NewAreaRegistry(shards)
	flat := core.NewDHTDiscovery(sys, reg, false, spec.Obs)
	sharded := core.NewDHTDiscovery(sys, reg, true, spec.Obs)

	rep := DiscoveryReport{
		Shards:          shards,
		R:               sys.R,
		PerShardLookups: make([]uint64, shards),
		FlatEquivalent:  true,
	}
	mask := uint64(1)<<uint(sys.R) - 1
	handles := make([]func(int) *core.Handle, len(spec.Chains))
	for b, name := range spec.Chains {
		if handles[b], err = soakHandles(name, seeds[b]); err != nil {
			return rep, err
		}
	}
	codes := make([]string, spec.Areas)
	for i := 0; i < spec.Areas; i++ {
		b := i % len(spec.Chains)
		h := handles[b](i / len(spec.Chains))
		codes[i] = multiSoakAreaCode(i)
		if err := reg.Register(codes[i], h); err != nil {
			return rep, err
		}
		via := uint64(i) & mask
		if _, err := flat.Publish(via, codes[i], h); err != nil {
			return rep, err
		}
		if _, err := sharded.Publish(via, codes[i], h); err != nil {
			return rep, err
		}
	}
	for u := 0; u < spec.Users; u++ {
		code := codes[u%spec.Areas]
		via := uint64(u) & mask
		hf, hopsF, ok, err := flat.Lookup(via, code)
		if err != nil || !ok {
			return rep, fmt.Errorf("sim: flat discovery of area %s failed (found=%v): %w", code, ok, err)
		}
		hs, hopsS, ok, err := sharded.Lookup(via, code)
		if err != nil || !ok {
			return rep, fmt.Errorf("sim: sharded discovery of area %s failed (found=%v): %w", code, ok, err)
		}
		if hf.ID() != hs.ID() {
			rep.FlatEquivalent = false
		}
		if hopsF > rep.MaxHops {
			rep.MaxHops = hopsF
		}
		if hopsS > rep.MaxHops {
			rep.MaxHops = hopsS
		}
		rep.Lookups++
		rep.PerShardLookups[reg.ShardOf(code)]++
	}
	return rep, nil
}

// multiSoakPartition counts each backend's share of areas and users under
// the round-robin assignment. Backend b serves the areas {i : i mod B ==
// b} and the users whose home area (u mod Areas) lands there.
func multiSoakPartition(spec MultiSoakSpec) (areasOf, usersOf []int) {
	b := len(spec.Chains)
	areasOf = make([]int, b)
	usersOf = make([]int, b)
	for i := 0; i < spec.Areas; i++ {
		areasOf[i%b]++
	}
	for u := 0; u < spec.Users; u++ {
		usersOf[(u%spec.Areas)%b]++
	}
	return areasOf, usersOf
}

// RunMultiSoak drives one soak across several chain backends: a DHT
// discovery phase resolves every user's area contract through the
// hypercube (flat and sharded, checked equivalent), then each backend runs
// its partition of the workload as an independent seed-forked soak — all
// backends concurrently unless spec.Sequential. Per-backend digests and
// state roots come from the sub-soaks and are invariant to the
// interleaving.
func RunMultiSoak(spec MultiSoakSpec) (*MultiSoakResult, error) {
	if len(spec.Chains) < 2 {
		return nil, fmt.Errorf("sim: multi-soak needs at least 2 backends (got %d)", len(spec.Chains))
	}
	seen := make(map[ChainName]bool, len(spec.Chains))
	for _, name := range spec.Chains {
		switch name {
		case ChainRopsten, ChainGoerli, ChainPolygon, ChainAlgorand:
		default:
			return nil, fmt.Errorf("sim: unknown chain %q", name)
		}
		if seen[name] {
			return nil, fmt.Errorf("sim: duplicate backend %q", name)
		}
		seen[name] = true
	}
	if spec.Areas < len(spec.Chains) {
		return nil, fmt.Errorf("sim: %d areas cannot cover %d backends", spec.Areas, len(spec.Chains))
	}
	if spec.Users < spec.Areas {
		return nil, fmt.Errorf("sim: %d users cannot populate %d areas", spec.Users, spec.Areas)
	}
	if spec.Rounds < 1 {
		return nil, fmt.Errorf("sim: multi-soak needs rounds >= 1 (got %d)", spec.Rounds)
	}
	if spec.Shards < 1 {
		spec.Shards = 1
	}

	seeds := make([]uint64, len(spec.Chains))
	for b, name := range spec.Chains {
		seeds[b] = multiSoakSeed(spec.Seed, name)
	}
	discovery, err := runMultiDiscovery(spec, seeds)
	if err != nil {
		return nil, err
	}
	if !discovery.FlatEquivalent {
		return nil, fmt.Errorf("sim: sharded DHT discovery resolved different handles than flat discovery")
	}

	areasOf, usersOf := multiSoakPartition(spec)
	res := &MultiSoakResult{
		Chains: append([]ChainName(nil), spec.Chains...),
		Areas:  spec.Areas, Users: spec.Users, Rounds: spec.Rounds,
		Shards: spec.Shards, Seed: spec.Seed,
		Backends:  make([]BackendResult, len(spec.Chains)),
		Discovery: discovery,
	}
	errs := make([]error, len(spec.Chains))
	start := time.Now()
	var wg sync.WaitGroup
	for b, name := range spec.Chains {
		res.Backends[b] = BackendResult{
			Chain: name, Areas: areasOf[b], Users: usersOf[b], Seed: seeds[b],
		}
		sub := SoakSpec{
			Chain: name, Areas: areasOf[b], Users: usersOf[b],
			Rounds: spec.Rounds, Shards: spec.Shards, Seed: seeds[b],
			Obs: spec.Obs, Telemetry: spec.Telemetry,
		}
		run := func(b int) {
			res.Backends[b].Soak, errs[b] = RunSoak(sub)
		}
		if spec.Sequential {
			run(b)
		} else {
			wg.Add(1)
			go func(b int) {
				defer wg.Done()
				run(b)
			}(b)
		}
	}
	wg.Wait()
	res.Wall = time.Since(start)
	for b, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("sim: backend %s: %w", spec.Chains[b], err)
		}
	}

	for b := range res.Backends {
		soak := res.Backends[b].Soak
		res.TotalIncluded += soak.Included
		tps := soak.TxsPerSecWall()
		if b == 0 || tps < res.SlowestTps {
			res.SlowestTps = tps
		}
	}
	if res.Wall > 0 {
		res.AggregateTps = float64(res.TotalIncluded) / res.Wall.Seconds()
	}
	if res.SlowestTps > 0 {
		res.SpeedupVsSlowest = res.AggregateTps / res.SlowestTps
	}
	return res, nil
}
