package main

import (
	"fmt"
	"math/big"
	"runtime"
	"time"

	"agnopol/internal/algorand"
	"agnopol/internal/core"
	"agnopol/internal/eth"
	"agnopol/internal/geo"
	"agnopol/internal/lang"
	"agnopol/internal/obs"
	"agnopol/internal/olc"
)

var polCycle = &workload{
	name:       "pol-cycle",
	why:        "the paper's prover-witness-verifier cycle via the core actors on goerli, polygon and algorand: one tx per block, so per-block consensus dominates",
	pol:        true,
	tailPct:    95,
	minRepeats: 3,
	run: func(e env, sc *obs.Scope) *repeat {
		if e.smoke {
			return runPolCycle(e, sc, 2)
		}
		return runPolCycle(e, sc, len(polLocations))
	},
}

// polLocations are the eight Open Location Codes of the paper's
// evaluation; each area gets one witness and core.MaxUsers provers.
var polLocations = []string{
	"7H369F4W+Q8", "7H369F4W+Q9", "7H368FRV+FM", "7H368FWV+X6",
	"7H367FWH+9J", "7H368F5R+4V", "7H369FXP+FH", "7H369F2W+3R",
}

// polChains are the backends a pol-cycle repeat runs on, in order.
var polChains = []string{"goerli", "polygon", "algorand"}

// tracedConn times every call the actors make into the chain layer:
// deployments, API calls and the verifier's state reads.
type tracedConn struct {
	core.Connector
	sc *obs.Scope
}

func (t tracedConn) Deploy(acct *core.Account, compiled *lang.Compiled, args []lang.Value) (*core.Handle, *core.OpResult, error) {
	sp := t.sc.Start("chain.deploy")
	defer sp.End()
	return t.Connector.Deploy(acct, compiled, args)
}

func (t tracedConn) Invoke(acct *core.Account, h *core.Handle, api string, opts core.CallOpts, args ...lang.Value) (lang.Value, *core.OpResult, error) {
	sp := t.sc.Start("chain.invoke")
	defer sp.End()
	return t.Connector.Invoke(acct, h, api, opts, args...)
}

func (t tracedConn) ReadGlobal(h *core.Handle, name string) (lang.Value, error) {
	sp := t.sc.Start("chain.read")
	defer sp.End()
	return t.Connector.ReadGlobal(h, name)
}

func (t tracedConn) ReadMap(h *core.Handle, mapName string, key uint64) (lang.Value, bool, error) {
	sp := t.sc.Start("chain.read")
	defer sp.End()
	return t.Connector.ReadMap(h, mapName, key)
}

func runPolCycle(e env, sc *obs.Scope, areas int) *repeat {
	r := newRepeat()
	var live []any
	var after []func()
	for _, name := range polChains {
		keep, reopen, ok := polChain(r, e, sc, name, areas)
		if !ok {
			return r
		}
		live = append(live, keep)
		after = append(after, reopen)
	}
	r.heapBytes = liveHeap()
	runtime.KeepAlive(live)
	for _, f := range after {
		f()
	}
	return r
}

// polChain runs one chain's share of a pol-cycle repeat: set-up, then
// every prover's upload → proof → submit → fund → verify cycle. It
// returns what must stay live for the heap reading and the deferred
// reopen (plus, when traced, empty-step timing) of the chain.
func polChain(r *repeat, e env, sc *obs.Scope, name string, areas int) (any, func(), bool) {
	t0 := time.Now()
	var conn core.Connector
	var evm *eth.Chain
	var avm *algorand.Chain
	reward := uint64(1e15) // 0.001 ETH / MATIC
	switch name {
	case "goerli":
		evm = eth.NewChain(eth.Goerli(), e.seed)
	case "polygon":
		evm = eth.NewChain(eth.PolygonMumbai(), e.seed)
	default:
		avm = algorand.NewChain(algorand.Testnet(), e.seed)
		reward = 100_000 // 0.1 ALGO
	}
	if evm != nil {
		conn = core.NewEVMConnector(evm)
	} else {
		conn = core.NewAlgorandConnector(avm)
	}
	if sc != nil {
		conn = tracedConn{Connector: conn, sc: sc}
	}
	sys, err := core.NewSystem(e.seed)
	if err != nil {
		r.fail("%s: system: %v", name, err)
		return nil, nil, false
	}
	witnesses := make([]*core.Witness, areas)
	provers := make([]*core.Prover, 0, areas*core.MaxUsers)
	for i := 0; i < areas; i++ {
		area, err := olc.Decode(polLocations[i])
		if err != nil {
			r.fail("%s: location %s: %v", name, polLocations[i], err)
			return nil, nil, false
		}
		lat, lng := area.Center()
		at := geo.LatLng{Lat: lat, Lng: lng}
		if witnesses[i], err = core.NewWitness(sys, at); err != nil {
			r.fail("%s: witness: %v", name, err)
			return nil, nil, false
		}
		for k := 0; k < core.MaxUsers; k++ {
			p, err := core.NewProver(sys, at)
			if err == nil {
				_, err = p.EnsureAccount(conn, 10)
			}
			if err != nil {
				r.fail("%s: prover: %v", name, err)
				return nil, nil, false
			}
			provers = append(provers, p)
		}
	}
	verifier, err := core.NewVerifier(sys)
	if err == nil {
		_, err = verifier.EnsureAccount(conn, 100)
	}
	if err != nil {
		r.fail("%s: verifier: %v", name, err)
		return nil, nil, false
	}
	r.setup += time.Since(t0)

	head := func() uint64 {
		if evm != nil {
			return evm.Head().Number
		}
		return avm.Head().Round
	}
	blocks0 := head()
	var mark *runtime.MemStats
	if sc != nil {
		mark = readMem()
	}
	var simLatency time.Duration
	fees := new(big.Int)
	for i, p := range provers {
		r.attempted++
		start := time.Now()
		csp := sc.Start("cycle")
		ops, client, ver, err := polCycleOnce(sc, conn, p, witnesses[i/core.MaxUsers], verifier, reward)
		csp.End()
		lat := time.Since(start)
		r.window += lat
		r.latencies = append(r.latencies, lat)
		r.client += client
		if err != nil {
			r.fail("%s prover %d: %v", name, i, err)
			continue
		}
		for _, op := range ops {
			simLatency += op.Latency
			fees.Add(fees, op.Fee.Base)
			for _, rc := range op.Receipts {
				if rc.Reverted {
					r.fail("%s prover %d: tx reverted: %s", name, i, rc.RevertMsg)
				} else {
					r.included++
				}
			}
		}
		if !ver.Accepted {
			r.fail("%s prover %d rejected: %s", name, i, ver.Reason)
			continue
		}
		r.cycles++
	}
	if mark != nil {
		r.mem.add(mark)
	}
	r.blocks += int(head() - blocks0)
	r.fingerprint[name+".sim_latency_ns"] = fmt.Sprint(simLatency.Nanoseconds())
	r.fingerprint[name+".fees"] = fees.String()

	if evm != nil {
		digest, root := evm.Digest(), evm.StateRoot()
		r.fingerprint[name+".digest"] = fmt.Sprintf("%x", digest[:])
		r.fingerprint[name+".state_root"] = fmt.Sprintf("%x", root[:])
		return evm, func() {
			if c2 := reopenEVM(r, sc, evm, e.seed); sc != nil && c2 != nil {
				timeEmptySteps(r, "eth", func() { c2.Step() })
			}
		}, true
	}
	digest, root := avm.Digest(), avm.StateRoot()
	r.fingerprint[name+".digest"] = fmt.Sprintf("%x", digest[:])
	r.fingerprint[name+".state_root"] = fmt.Sprintf("%x", root[:])
	return avm, func() {
		if c2 := reopenAlgorand(r, sc, avm, e.seed); sc != nil && c2 != nil {
			timeEmptySteps(r, "algorand", func() { c2.Step() })
		}
	}, true
}

// polCycleOnce walks one prover through the protocol: upload the report to
// IPFS, obtain a witness-signed location proof, submit it on-chain (deploy
// the area contract or attach to it), then the verifier funds the reward
// and verifies the prover. It returns the on-chain operations, the time
// spent in the client-side steps and the verdict.
func polCycleOnce(sc *obs.Scope, conn core.Connector, p *core.Prover, w *core.Witness, v *core.Verifier, reward uint64) ([]*core.OpResult, time.Duration, *core.Verification, error) {
	t := time.Now()
	sp := sc.Start("ipfs.upload")
	cid, err := p.UploadReport(core.Report{
		Title: "report " + string(p.DID), Description: "environment issue report", Category: "environment",
	})
	sp.End()
	if err != nil {
		return nil, 0, nil, fmt.Errorf("upload: %w", err)
	}
	acct, _ := p.Account(conn)
	sp = sc.Start("core.request_proof")
	proof, err := p.RequestProof(w, cid, acct.Address())
	sp.End()
	client := time.Since(t)
	if err != nil {
		return nil, client, nil, fmt.Errorf("proof: %w", err)
	}
	sp = sc.Start("core.submit")
	sub, err := p.SubmitProof(conn, proof, reward)
	sp.End()
	if err != nil {
		return nil, client, nil, fmt.Errorf("submit: %w", err)
	}
	sp = sc.Start("core.fund")
	fund, err := v.FundContract(conn, sub.Handle, reward)
	sp.End()
	if err != nil {
		return nil, client, nil, fmt.Errorf("fund: %w", err)
	}
	sp = sc.Start("core.verify")
	ver, err := v.VerifyProver(conn, sub.Handle, p.DID)
	sp.End()
	if err != nil {
		return nil, client, nil, fmt.Errorf("verify: %w", err)
	}
	ops := []*core.OpResult{sub.Op, fund}
	if ver.Op != nil {
		ops = append(ops, ver.Op)
	}
	return ops, client, ver, nil
}
