package sim

import (
	"encoding/json"
	"fmt"
	"time"

	"agnopol/internal/algorand"
	"agnopol/internal/chain"
	"agnopol/internal/core"
	"agnopol/internal/eth"
	"agnopol/internal/lang"
	"agnopol/internal/mstate"
	"agnopol/internal/mstate/diskstore"
	"agnopol/internal/polcrypto"
)

// soakCheckpointVersion guards the manifest-meta layout; a resumed process
// refuses manifests written by an incompatible harness.
const soakCheckpointVersion = 1

// soakCheckpoint is the JSON blob a persisted soak parks in the diskstore
// manifest's meta field next to the committed state root: the spec that
// produced the run plus everything the load loop needs to continue from
// the recorded round — the chain-level checkpoint, how many rounds and
// submissions are already behind us, and the measurement baselines
// (block height and simulated clock at load start) so the resumed result
// reports totals for the whole run, not just its own slice.
type soakCheckpoint struct {
	Version int
	Chain   ChainName
	Areas   int
	Users   int
	Rounds  int
	Shards  int
	Seed    uint64

	// RoundsDone is how many load rounds the run had completed when the
	// checkpoint was taken; a resumed process continues at this round.
	RoundsDone int
	// Submitted is the user-transaction count across all completed rounds,
	// including transactions still pending in the chain checkpoint.
	Submitted uint64
	// BlocksAtLoadStart and SimStart anchor the Blocks/Simulated result
	// fields to the original load start across any number of restarts.
	BlocksAtLoadStart uint64
	SimStart          time.Duration
	// Drained marks the post-drain final checkpoint: the run is complete
	// and resuming it is a digest-preserving no-op.
	Drained bool

	// Exactly one of Eth/Algo is set, matching Chain.
	Eth  *eth.Checkpoint      `json:",omitempty"`
	Algo *algorand.Checkpoint `json:",omitempty"`
}

// soakPersist writes soak checkpoints into a diskstore: commit the trie
// nodes, capture the chain checkpoint, and publish both atomically via the
// store's manifest. meta carries the static spec fields; the per-commit
// progress fields are stamped on each write.
type soakPersist struct {
	store *diskstore.Store
	meta  soakCheckpoint
}

// commit captures the backend's chain checkpoint, commits its world
// state, and publishes both with the run's progress in one manifest
// write.
func (p *soakPersist) commit(b soakBackend, roundsDone int, submitted uint64, drained bool) error {
	root, err := b.checkpoint(&p.meta, p.store)
	if err != nil {
		return err
	}
	m := p.meta
	m.RoundsDone = roundsDone
	m.Submitted = submitted
	m.Drained = drained
	blob, err := json.Marshal(&m)
	if err != nil {
		return fmt.Errorf("sim: encode soak checkpoint: %w", err)
	}
	return p.store.Commit(root, blob)
}

// soakRun carries the restart position through RunSoak's setup into the
// load loops. The zero value is a fresh, non-persisted run.
type soakRun struct {
	persist *soakPersist

	resumed           bool
	startRound        int
	submitted0        uint64
	blocksAtLoadStart uint64
	simStart          time.Duration

	// store/root and the chain-level checkpoint feed eth.Open /
	// algorand.Open when resuming.
	store *diskstore.Store
	root  mstate.Hash
	eth   *eth.Checkpoint
	algo  *algorand.Checkpoint
}

// loadSoakManifest reads the committed soak checkpoint out of an opened
// store and reconciles it with the caller's spec: the manifest is
// authoritative for the workload shape (chain, areas, users, rounds,
// seed), and any non-zero caller value that contradicts it is an error
// rather than a silently different workload. Shards may be overridden —
// the digest is shard-invariant by construction.
func loadSoakManifest(store *diskstore.Store, spec SoakSpec) (SoakSpec, *soakRun, error) {
	root, ok := store.Root()
	if !ok {
		return spec, nil, fmt.Errorf("sim: %s holds no committed soak state to resume", spec.StateDir)
	}
	var ck soakCheckpoint
	if err := json.Unmarshal(store.Meta(), &ck); err != nil {
		return spec, nil, fmt.Errorf("sim: decode soak manifest in %s: %w", spec.StateDir, err)
	}
	if ck.Version != soakCheckpointVersion {
		return spec, nil, fmt.Errorf("sim: soak manifest version %d, this harness speaks %d", ck.Version, soakCheckpointVersion)
	}
	if spec.Chain != "" && spec.Chain != ck.Chain {
		return spec, nil, fmt.Errorf("sim: resume chain %q does not match manifest chain %q", spec.Chain, ck.Chain)
	}
	for _, f := range []struct {
		name      string
		got, want int
	}{
		{"areas", spec.Areas, ck.Areas},
		{"users", spec.Users, ck.Users},
		{"rounds", spec.Rounds, ck.Rounds},
	} {
		if f.got != 0 && f.got != f.want {
			return spec, nil, fmt.Errorf("sim: resume %s=%d does not match manifest %s=%d", f.name, f.got, f.name, f.want)
		}
	}
	if spec.Seed != 0 && spec.Seed != ck.Seed {
		return spec, nil, fmt.Errorf("sim: resume seed=%d does not match manifest seed=%d", spec.Seed, ck.Seed)
	}
	spec.Chain = ck.Chain
	spec.Areas, spec.Users, spec.Rounds = ck.Areas, ck.Users, ck.Rounds
	spec.Seed = ck.Seed
	if spec.Shards < 1 {
		spec.Shards = ck.Shards
	}
	run := &soakRun{
		resumed:           true,
		startRound:        ck.RoundsDone,
		submitted0:        ck.Submitted,
		blocksAtLoadStart: ck.BlocksAtLoadStart,
		simStart:          ck.SimStart,
		store:             store,
		root:              root,
		eth:               ck.Eth,
		algo:              ck.Algo,
	}
	return spec, run, nil
}

// soakKeyStream is the soak-owned key-derivation stream: forked from the
// spec seed, never from the chain's own rng, so a resumed process can
// re-derive the exact same accounts without replaying the chain's stream.
// Draw order is fixed — the deployer first, then one user per index.
func soakKeyStream(seed uint64) *chain.Rand { return chain.NewRand(seed).Fork("soak:keys") }

func soakAccountEVM(rng *chain.Rand) *eth.Account {
	kp := polcrypto.MustGenerateKeyPair(rng)
	return &eth.Account{Key: kp, Address: chain.AddressFromPublicKey(kp.Public)}
}

func soakAccountAlgorand(rng *chain.Rand) *algorand.Account {
	kp := polcrypto.MustGenerateKeyPair(rng)
	return &algorand.Account{Key: kp, Address: chain.AddressFromPublicKey(kp.Public)}
}

// soakHandles returns the derivation of the contract handle area i of a
// soak seeded with seed has on the named chain, without running the
// deployment: EVM contract addresses are a pure function of the deployer
// key (first draw of the soak key stream) and its sequential nonce, and
// Algorand app ids are pinned to 1..Areas by sequential creation. The
// single-chain soak registers these handles at deploy time and when it
// resumes; the multi-soak's discovery phase publishes them before the
// backend soaks deploy the real contracts at exactly these identities.
// The deployer key is derived once per call, not once per area.
func soakHandles(name ChainName, seed uint64) (func(i int) *core.Handle, error) {
	switch name {
	case ChainRopsten, ChainGoerli, ChainPolygon:
		deployer := soakAccountEVM(soakKeyStream(seed)).Address
		return func(i int) *core.Handle {
			return &core.Handle{Connector: string(name), EVMAddr: chain.ContractAddress(deployer, uint64(i))}
		}, nil
	case ChainAlgorand:
		return func(i int) *core.Handle {
			return &core.Handle{Connector: string(name), AppID: uint64(i) + 1}
		}, nil
	default:
		return nil, fmt.Errorf("sim: unknown chain %q", name)
	}
}

// rebuildSoakRegistry reconstructs the area→contract directory of a
// resumed run without replaying the deployment: every handle comes from
// soakHandles. A spot check verifies the derived handles actually exist in
// the loaded state.
func rebuildSoakRegistry(spec SoakSpec, conn core.Connector, reg *core.AreaRegistry, compiled *lang.Compiled) error {
	handle, err := soakHandles(spec.Chain, spec.Seed)
	if err != nil {
		return err
	}
	for i := 0; i < spec.Areas; i++ {
		h := handle(i)
		h.Compiled = compiled
		if err := reg.Register(soakAreaCode(i), h); err != nil {
			return err
		}
	}
	for _, i := range []int{0, spec.Areas - 1} {
		h, _ := reg.Lookup(soakAreaCode(i))
		switch c := conn.(type) {
		case *core.EVMConnector:
			if _, ok := c.Chain().ContractCode(h.EVMAddr); !ok {
				return fmt.Errorf("sim: resumed state holds no contract for area %s at %s", soakAreaCode(i), h.EVMAddr)
			}
		case *core.AlgorandConnector:
			if _, ok := c.Chain().App(h.AppID); !ok {
				return fmt.Errorf("sim: resumed state holds no app %d for area %s", h.AppID, soakAreaCode(i))
			}
		default:
			return fmt.Errorf("sim: soak resume does not support connector %T", conn)
		}
	}
	return nil
}
