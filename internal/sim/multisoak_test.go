package sim

import (
	"strconv"
	"testing"

	"agnopol/internal/chain"
	"agnopol/internal/obs"
	"agnopol/internal/olc"
)

func multiSmokeSpec() MultiSoakSpec {
	return MultiSoakSpec{
		Chains: AllChains, // goerli + polygon + algorand
		Areas:  6, Users: 12, Rounds: 4, Shards: 2, Seed: 42,
	}
}

// TestMultiSoakInterleavingInvariance is the tentpole determinism test:
// the same spec run with all backends concurrent and with all backends
// sequential must produce bit-identical per-backend digests and state
// roots — scheduling must never reach chain state.
func TestMultiSoakInterleavingInvariance(t *testing.T) {
	spec := multiSmokeSpec()
	conc, err := RunMultiSoak(spec)
	if err != nil {
		t.Fatal(err)
	}
	spec.Sequential = true
	seq, err := RunMultiSoak(spec)
	if err != nil {
		t.Fatal(err)
	}
	if len(conc.Backends) != len(seq.Backends) {
		t.Fatalf("backend counts diverge: %d vs %d", len(conc.Backends), len(seq.Backends))
	}
	for b := range conc.Backends {
		c, s := conc.Backends[b], seq.Backends[b]
		if c.Chain != s.Chain {
			t.Fatalf("backend %d chain diverges: %s vs %s", b, c.Chain, s.Chain)
		}
		if c.Soak.Digest != s.Soak.Digest {
			t.Errorf("%s: concurrent digest %x != sequential digest %x", c.Chain, c.Soak.Digest, s.Soak.Digest)
		}
		if c.Soak.StateRoot != s.Soak.StateRoot {
			t.Errorf("%s: concurrent root %x != sequential root %x", c.Chain, c.Soak.StateRoot, s.Soak.StateRoot)
		}
		if c.Soak.Digest == (chain.Hash32{}) {
			t.Errorf("%s: digest is all-zero", c.Chain)
		}
		if c.Soak.Included != s.Soak.Included || c.Soak.Included == 0 {
			t.Errorf("%s: included diverges or is zero: %d vs %d", c.Chain, c.Soak.Included, s.Soak.Included)
		}
	}
}

// TestMultiSoakPartitionAndAggregates pins the deterministic area→backend
// assignment and the derived aggregate numbers.
func TestMultiSoakPartitionAndAggregates(t *testing.T) {
	res, err := RunMultiSoak(multiSmokeSpec())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Backends) != 3 {
		t.Fatalf("want 3 backends, got %d", len(res.Backends))
	}
	var areas, users int
	var included uint64
	for _, b := range res.Backends {
		// 6 areas round-robin over 3 backends = 2 each; users follow.
		if b.Areas != 2 {
			t.Errorf("%s: got %d areas, want 2", b.Chain, b.Areas)
		}
		if b.Users != 4 {
			t.Errorf("%s: got %d users, want 4", b.Chain, b.Users)
		}
		if b.Soak.Included != uint64(b.Users*res.Rounds) {
			t.Errorf("%s: included %d, want users*rounds=%d", b.Chain, b.Soak.Included, b.Users*res.Rounds)
		}
		if b.Soak.MeanFeeEuro <= 0 {
			t.Errorf("%s: mean fee %v not positive", b.Chain, b.Soak.MeanFeeEuro)
		}
		if b.Seed != multiSoakSeed(res.Seed, b.Chain) {
			t.Errorf("%s: seed %d is not the domain-tagged fork", b.Chain, b.Seed)
		}
		areas += b.Areas
		users += b.Users
		included += b.Soak.Included
	}
	if areas != res.Areas || users != res.Users {
		t.Fatalf("partition does not cover the spec: %d/%d areas, %d/%d users", areas, res.Areas, users, res.Users)
	}
	if res.TotalIncluded != included {
		t.Fatalf("TotalIncluded %d != backend sum %d", res.TotalIncluded, included)
	}
	if res.AggregateTps <= 0 || res.SlowestTps <= 0 {
		t.Fatalf("aggregate tps %v / slowest %v not positive", res.AggregateTps, res.SlowestTps)
	}
}

// TestMultiSoakDiscoveryReport pins the DHT discovery phase: valid OLC
// codes, one sharded lookup per user, a per-shard split that sums to the
// total, the hypercube hop bound, and flat/sharded handle equivalence.
func TestMultiSoakDiscoveryReport(t *testing.T) {
	spec := multiSmokeSpec()
	o := obs.New()
	spec.Obs = o
	spec.DiscoveryShards = 3
	res, err := RunMultiSoak(spec)
	if err != nil {
		t.Fatal(err)
	}
	d := res.Discovery
	if !d.FlatEquivalent {
		t.Fatal("sharded discovery diverged from flat discovery")
	}
	if d.Shards != 3 {
		t.Fatalf("discovery shards %d, want 3", d.Shards)
	}
	if d.Lookups != uint64(spec.Users) {
		t.Fatalf("lookups %d, want one per user (%d)", d.Lookups, spec.Users)
	}
	var sum uint64
	for _, n := range d.PerShardLookups {
		sum += n
	}
	if sum != d.Lookups {
		t.Fatalf("per-shard lookups sum to %d, want %d", sum, d.Lookups)
	}
	if d.MaxHops > d.R {
		t.Fatalf("max hops %d exceeds the r=%d bound", d.MaxHops, d.R)
	}
	// The sharded counters surfaced through obs must agree with the report.
	var counted uint64
	for s := 0; s < d.Shards; s++ {
		counted += o.Registry.Counter("core_dht_discovery_total",
			obs.L("mode", "sharded"), obs.L("shard", strconv.Itoa(s))).Value()
	}
	if counted != d.Lookups {
		t.Fatalf("obs counters sum to %d, want %d", counted, d.Lookups)
	}
}

// TestMultiSoakAreaCodesAreValidOLC pins the discovery keyword alphabet:
// every synthesized area code must pass full-OLC validation, because the
// flat mode routes through the OLC dual encoding.
func TestMultiSoakAreaCodesAreValidOLC(t *testing.T) {
	seen := make(map[string]bool)
	for i := 0; i < 500; i++ {
		code := multiSoakAreaCode(i)
		if err := olc.CheckFull(code); err != nil {
			t.Fatalf("area %d code %s: %v", i, code, err)
		}
		if seen[code] {
			t.Fatalf("area code %s repeats", code)
		}
		seen[code] = true
	}
}

// TestMultiSoakHandleMatchesDeployment pins the discovery/deploy identity
// contract: the handle the discovery phase derives for an area must be the
// handle the backend soak actually deploys (sequential EVM nonces,
// sequential Algorand app ids).
func TestMultiSoakHandleMatchesDeployment(t *testing.T) {
	seed := multiSoakSeed(42, ChainGoerli)
	evm, err := soakHandles(ChainGoerli, seed)
	if err != nil {
		t.Fatal(err)
	}
	deployer := soakAccountEVM(soakKeyStream(seed))
	if h, want := evm(3), chain.ContractAddress(deployer.Address, 3); h.EVMAddr != want {
		t.Fatalf("derived addr %x, deployment would use %x", h.EVMAddr, want)
	}
	algo, err := soakHandles(ChainAlgorand, seed)
	if err != nil {
		t.Fatal(err)
	}
	if ha := algo(3); ha.AppID != 4 {
		t.Fatalf("derived app id %d, sequential deployment would use 4", ha.AppID)
	}
	if _, err := soakHandles(ChainName("nope"), seed); err == nil {
		t.Fatal("unknown chain must not derive a handle")
	}
}

// TestMultiSoakSpecValidation table-tests the rejections.
func TestMultiSoakSpecValidation(t *testing.T) {
	cases := []struct {
		name string
		mut  func(*MultiSoakSpec)
	}{
		{"one backend", func(s *MultiSoakSpec) { s.Chains = []ChainName{ChainGoerli} }},
		{"duplicate backend", func(s *MultiSoakSpec) { s.Chains = []ChainName{ChainGoerli, ChainGoerli} }},
		{"unknown backend", func(s *MultiSoakSpec) { s.Chains = []ChainName{ChainGoerli, ChainName("base")} }},
		{"fewer areas than backends", func(s *MultiSoakSpec) { s.Areas = 2 }},
		{"fewer users than areas", func(s *MultiSoakSpec) { s.Users = 5 }},
		{"zero rounds", func(s *MultiSoakSpec) { s.Rounds = 0 }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			spec := multiSmokeSpec()
			tc.mut(&spec)
			if _, err := RunMultiSoak(spec); err == nil {
				t.Fatalf("%s: spec accepted, want error", tc.name)
			}
		})
	}
}

// TestSoakFeesPaid pins the fee identity on a single-chain soak: funding
// minus final balance, summed over users, divided by included.
func TestSoakFeesPaid(t *testing.T) {
	for _, name := range []ChainName{ChainGoerli, ChainAlgorand} {
		res, err := RunSoak(SoakSpec{Chain: name, Areas: 2, Users: 4, Rounds: 3, Seed: 7})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if res.FeesPaid.Base == nil || res.FeesPaid.Base.Sign() <= 0 {
			t.Fatalf("%s: fees paid %v not positive", name, res.FeesPaid)
		}
		if res.MeanFeeEuro <= 0 {
			t.Fatalf("%s: mean fee %v not positive", name, res.MeanFeeEuro)
		}
		wantUnit := map[ChainName]string{ChainGoerli: "ETH", ChainAlgorand: "ALGO"}[name]
		if res.FeesPaid.Unit.Name != wantUnit {
			t.Fatalf("%s: fee unit %q, want %q", name, res.FeesPaid.Unit.Name, wantUnit)
		}
	}
}
