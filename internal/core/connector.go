package core

import (
	"errors"
	"fmt"
	"math/big"
	"time"

	"agnopol/internal/algorand"
	"agnopol/internal/chain"
	"agnopol/internal/eth"
	"agnopol/internal/faults"
	"agnopol/internal/lang"
)

// Connector is the blockchain-agnostic runtime interface (the role of the
// Reach JS standard library, §2.9.3): the same compiled program and the
// same frontend calls run against any implementation. The simulator ships
// two — EVMConnector (Ropsten/Goerli/Polygon) and AlgorandConnector.
type Connector interface {
	// Name of the underlying network (e.g. "goerli").
	Name() string
	// Unit of the native currency.
	Unit() chain.Unit
	// Now is the network's simulated time.
	Now() time.Duration
	// NewAccount creates a funded account (whole tokens).
	NewAccount(tokens float64) (*Account, error)
	// Balance of an account in base units.
	Balance(acct *Account) chain.Amount

	// Deploy publishes the compiled contract with constructor args,
	// retrying transient injected faults under the connector's resilience
	// policy.
	Deploy(acct *Account, compiled *lang.Compiled, args []lang.Value) (*Handle, *OpResult, error)
	// Invoke calls an API under the given options: payment, escrow
	// funding and the resilience policy all travel in CallOpts. This is
	// the one call entry point.
	Invoke(acct *Account, h *Handle, api string, opts CallOpts, args ...lang.Value) (lang.Value, *OpResult, error)
	// EscrowFunding is the amount the first call after deployment must
	// carry to activate the contract's account (Algorand's MinBalance;
	// zero on EVM chains).
	EscrowFunding() uint64
	// SetResilience installs the default retry policy Invoke and Deploy
	// apply when CallOpts carries none. The zero policy (the initial
	// state) means a single attempt — the historical behaviour.
	SetResilience(pol faults.RetryPolicy)
	// Sleep advances the connector's simulated clock — the wait primitive
	// backoff runs on.
	Sleep(d time.Duration)
	// View evaluates a view at no cost.
	View(h *Handle, name string) (lang.Value, error)
	// ReadGlobal and ReadMap are the free frontend state reads.
	ReadGlobal(h *Handle, name string) (lang.Value, error)
	ReadMap(h *Handle, mapName string, key uint64) (lang.Value, bool, error)
	// ContractBalance is the contract's native balance in base units.
	ContractBalance(h *Handle) uint64
}

// Account is a chain account usable through a Connector.
type Account struct {
	evm  *eth.Account
	algo *algorand.Account
}

// EVMAccount wraps an externally-created Ethereum-family account — e.g.
// one whose key a harness derived from its own seed stream and funded via
// eth.Chain.Fund — for use through a Connector.
func EVMAccount(a *eth.Account) *Account { return &Account{evm: a} }

// AlgorandAccount wraps an externally-created Algorand account for use
// through a Connector.
func AlgorandAccount(a *algorand.Account) *Account { return &Account{algo: a} }

// Address returns the 20-byte account address.
func (a *Account) Address() [20]byte {
	if a.evm != nil {
		return a.evm.Address
	}
	return a.algo.Address
}

// EVM returns the underlying Ethereum-family account, or nil on other
// connectors — for callers that need chain-native operations beyond the
// Connector interface.
func (a *Account) EVM() *eth.Account { return a.evm }

// Algorand returns the underlying Algorand account, or nil on other
// connectors (e.g. for ASA opt-ins and transfers).
func (a *Account) Algorand() *algorand.Account { return a.algo }

// Handle identifies a deployed contract on some connector — the
// "contract id" users exchange through the hypercube (§2.2).
type Handle struct {
	Connector string
	// EVMAddr is set on Ethereum-family chains; AppID on Algorand.
	EVMAddr  chain.Address
	AppID    uint64
	Compiled *lang.Compiled
}

// ID renders the handle as the string stored in the hypercube.
func (h *Handle) ID() string {
	if h.AppID != 0 {
		return fmt.Sprintf("%s/app/%d", h.Connector, h.AppID)
	}
	return fmt.Sprintf("%s/%s", h.Connector, h.EVMAddr)
}

// OpResult is the measured outcome of one frontend operation — the latency
// and fee samples the evaluation chapter aggregates. Latency spans every
// attempt including backoff waits; Fee and GasUsed are what the chain
// actually charged (dropped submissions cost nothing).
type OpResult struct {
	Latency  time.Duration
	Fee      chain.Amount
	GasUsed  uint64
	Receipts []*chain.Receipt
	// Retries counts the extra attempts the resilience layer needed; 0 on
	// the happy path.
	Retries int
}

// CallOpts carries everything about how an API call should run: the
// attached payment, whether the escrow activation deposit rides along, and
// the resilience policy for transient injected faults.
type CallOpts struct {
	// Pay is the attached native amount in base units.
	Pay uint64
	// EscrowFund folds the contract-account activation deposit
	// (EscrowFunding) into the same atomic operation.
	EscrowFund bool
	// Deadline bounds the call's total simulated time across retries; it
	// overrides the retry policy's own deadline when set.
	Deadline time.Duration
	// Retry overrides the connector's default resilience policy for this
	// call. The zero value defers to the connector.
	Retry faults.RetryPolicy
}

// ErrAPIRejected reports an API call rejected on-chain (assume failure,
// insufficient funds…).
var ErrAPIRejected = errors.New("core: API call rejected")

// retrier is the connector-side surface the shared retry driver needs.
type retrier interface {
	Now() time.Duration
	Sleep(d time.Duration)
	defaultRetry() faults.RetryPolicy
	injector() *faults.Injector
}

// resolveRetry merges per-call options with the connector default policy.
func resolveRetry(c retrier, opts CallOpts) faults.RetryPolicy {
	pol := opts.Retry
	if pol.IsZero() {
		pol = c.defaultRetry()
	}
	if opts.Deadline > 0 {
		pol.Deadline = opts.Deadline
	}
	return pol
}

// withRetry drives once() under a resilience policy: transient injected
// faults back off (capped exponential, on the simulated clock) and retry
// until the attempt or deadline budget runs out; any other error is
// permanent. On eventual success each earlier transient failure counts as
// recovered.
func withRetry(c retrier, pol faults.RetryPolicy, once func() error) (retries int, err error) {
	start := c.Now()
	var overcome []string
	for attempt := 1; ; attempt++ {
		err = once()
		if err == nil {
			for _, cls := range overcome {
				c.injector().Recover(cls)
			}
			return attempt - 1, nil
		}
		cls, transient := faults.ClassOf(err)
		if !transient {
			return attempt - 1, err
		}
		if attempt >= pol.Attempts() {
			return attempt - 1, fmt.Errorf("core: giving up after %d attempts: %w", attempt, err)
		}
		backoff := pol.Backoff(attempt)
		if pol.Deadline > 0 && c.Now()-start+backoff > pol.Deadline {
			return attempt - 1, fmt.Errorf("core: deadline %v exceeded after %d attempts: %w", pol.Deadline, attempt, err)
		}
		overcome = append(overcome, cls)
		c.Sleep(backoff)
	}
}

// --- EVM connector ---

// EVMConnector adapts an Ethereum-family chain.
type EVMConnector struct {
	client *eth.Client
	retry  faults.RetryPolicy
}

// NewEVMConnector wraps a chain.
func NewEVMConnector(c *eth.Chain) *EVMConnector {
	return &EVMConnector{client: eth.NewClient(c)}
}

// Chain exposes the underlying chain.
func (e *EVMConnector) Chain() *eth.Chain { return e.client.Chain() }

var _ Connector = (*EVMConnector)(nil)

// Name implements Connector.
func (e *EVMConnector) Name() string { return e.client.Chain().Config().Name }

// Unit implements Connector.
func (e *EVMConnector) Unit() chain.Unit { return e.client.Chain().Config().Unit }

// Now implements Connector.
func (e *EVMConnector) Now() time.Duration { return e.client.Chain().Now() }

// Sleep implements Connector.
func (e *EVMConnector) Sleep(d time.Duration) { e.client.Sleep(d) }

// SetResilience implements Connector.
func (e *EVMConnector) SetResilience(pol faults.RetryPolicy) { e.retry = pol }

func (e *EVMConnector) defaultRetry() faults.RetryPolicy { return e.retry }

func (e *EVMConnector) injector() *faults.Injector { return e.client.Chain().Faults() }

// NewAccount implements Connector.
func (e *EVMConnector) NewAccount(tokens float64) (*Account, error) {
	amt := chain.AmountFromTokens(tokens, e.Unit())
	return &Account{evm: e.client.Chain().NewAccount(amt.Base)}, nil
}

// Balance implements Connector.
func (e *EVMConnector) Balance(acct *Account) chain.Amount {
	return e.client.Chain().Balance(acct.evm.Address)
}

// Deploy implements Connector: a single creation transaction carrying the
// runtime code and the constructor calldata, resubmitted under the default
// resilience policy when the mempool drops it.
func (e *EVMConnector) Deploy(acct *Account, compiled *lang.Compiled, args []lang.Value) (*Handle, *OpResult, error) {
	start := e.Now()
	ctorData, err := lang.EncodeArgsEVM(lang.CtorMethodName, compiled.Program.Ctor.Params, args)
	if err != nil {
		return nil, nil, err
	}
	gasLimit := compiled.Analysis.EVMDeployGas + compiled.Analysis.EVMDeployGas/4
	var (
		rcpt *chain.Receipt
		addr chain.Address
	)
	retries, err := withRetry(e, e.defaultRetry(), func() error {
		var err error
		rcpt, addr, err = e.client.Deploy(acct.evm, compiled.EVMCode, ctorData, nil, gasLimit)
		return err
	})
	res := opResult(start, e.Now(), rcpt)
	res.Retries = retries
	if err != nil {
		return nil, res, err
	}
	h := &Handle{Connector: e.Name(), EVMAddr: addr, Compiled: compiled}
	return h, res, nil
}

// Invoke implements Connector.
func (e *EVMConnector) Invoke(acct *Account, h *Handle, api string, opts CallOpts, args ...lang.Value) (lang.Value, *OpResult, error) {
	start := e.Now()
	var (
		v   lang.Value
		res *OpResult
	)
	retries, err := withRetry(e, resolveRetry(e, opts), func() error {
		var err error
		v, res, err = e.callOnce(acct, h, api, opts.Pay, args)
		return err
	})
	if res != nil {
		res.Latency = e.Now() - start
		res.Retries = retries
	}
	return v, res, err
}

// callOnce is one attempt of an API call.
func (e *EVMConnector) callOnce(acct *Account, h *Handle, api string, pay uint64, args []lang.Value) (lang.Value, *OpResult, error) {
	start := e.Now()
	a := h.Compiled.Program.FindAPI(api)
	if a == nil {
		return lang.Value{}, nil, fmt.Errorf("core: unknown API %q", api)
	}
	data, err := lang.EncodeArgsEVM(api, a.Params, args)
	if err != nil {
		return lang.Value{}, nil, err
	}
	var cost *analysisCost
	for i := range h.Compiled.Analysis.Methods {
		if h.Compiled.Analysis.Methods[i].Name == api {
			cost = &analysisCost{gas: h.Compiled.Analysis.Methods[i].TotalEVMGas()}
		}
	}
	gasLimit := uint64(eth.DefaultGasLimit)
	if cost != nil {
		gasLimit = cost.gas + cost.gas/4
	}
	rcpt, err := e.client.Call(acct.evm, h.EVMAddr, data, new(big.Int).SetUint64(pay), gasLimit)
	if err != nil {
		return lang.Value{}, opResult(start, e.Now(), rcpt), err
	}
	// The connector's event poll: Reach frontends wait for the call's
	// effects to surface before returning.
	e.client.APIExtraDelay()
	res := opResult(start, e.Now(), rcpt)
	if rcpt.Reverted {
		return lang.Value{}, res, fmt.Errorf("%w: %s: %s", ErrAPIRejected, api, rcpt.RevertMsg)
	}
	v, err := lang.DecodeReturnEVM(a.Returns, rcpt.ReturnValue)
	if err != nil {
		return lang.Value{}, res, err
	}
	return v, res, nil
}

type analysisCost struct{ gas uint64 }

// EscrowFunding implements Connector: EVM contracts need no activation
// deposit.
func (e *EVMConnector) EscrowFunding() uint64 { return 0 }

// View implements Connector.
func (e *EVMConnector) View(h *Handle, name string) (lang.Value, error) {
	v, ok := h.Compiled.Program.FindView(name)
	if !ok {
		return lang.Value{}, fmt.Errorf("core: unknown view %q", name)
	}
	data, err := lang.EncodeArgsEVM(name, nil, nil)
	if err != nil {
		return lang.Value{}, err
	}
	out, err := e.client.View(h.EVMAddr, data)
	if err != nil {
		return lang.Value{}, err
	}
	return lang.DecodeReturnEVM(v.Type, out)
}

// ReadGlobal implements Connector.
func (e *EVMConnector) ReadGlobal(h *Handle, name string) (lang.Value, error) {
	get := func(key chain.Hash32) chain.Hash32 {
		return e.client.Chain().StorageAt(h.EVMAddr, key)
	}
	return lang.ReadGlobalEVM(get, h.Compiled.Program, name)
}

// ReadMap implements Connector.
func (e *EVMConnector) ReadMap(h *Handle, mapName string, key uint64) (lang.Value, bool, error) {
	get := func(k chain.Hash32) chain.Hash32 {
		return e.client.Chain().StorageAt(h.EVMAddr, k)
	}
	return lang.ReadMapEVM(get, h.Compiled.Program, mapName, key)
}

// ContractBalance implements Connector.
func (e *EVMConnector) ContractBalance(h *Handle) uint64 {
	return e.client.Chain().Balance(h.EVMAddr).Base.Uint64()
}

func opResult(start, end time.Duration, rcpts ...*chain.Receipt) *OpResult {
	res := &OpResult{Latency: end - start}
	for _, r := range rcpts {
		if r == nil {
			continue
		}
		res.Receipts = append(res.Receipts, r)
		res.GasUsed += r.GasUsed
		res.Fee = res.Fee.Add(r.Fee)
	}
	return res
}

// --- Algorand connector ---

// AlgorandConnector adapts the Algorand chain.
type AlgorandConnector struct {
	client *algorand.Client
	retry  faults.RetryPolicy
}

// NewAlgorandConnector wraps a chain.
func NewAlgorandConnector(c *algorand.Chain) *AlgorandConnector {
	return &AlgorandConnector{client: algorand.NewClient(c)}
}

// Chain exposes the underlying chain.
func (a *AlgorandConnector) Chain() *algorand.Chain { return a.client.Chain() }

var _ Connector = (*AlgorandConnector)(nil)

// Name implements Connector.
func (a *AlgorandConnector) Name() string { return a.client.Chain().Config().Name }

// Unit implements Connector.
func (a *AlgorandConnector) Unit() chain.Unit { return a.client.Chain().Config().Unit }

// Now implements Connector.
func (a *AlgorandConnector) Now() time.Duration { return a.client.Chain().Now() }

// Sleep implements Connector.
func (a *AlgorandConnector) Sleep(d time.Duration) { a.client.Sleep(d) }

// SetResilience implements Connector.
func (a *AlgorandConnector) SetResilience(pol faults.RetryPolicy) { a.retry = pol }

func (a *AlgorandConnector) defaultRetry() faults.RetryPolicy { return a.retry }

func (a *AlgorandConnector) injector() *faults.Injector { return a.client.Chain().Faults() }

// NewAccount implements Connector.
func (a *AlgorandConnector) NewAccount(tokens float64) (*Account, error) {
	micro := uint64(tokens * 1e6)
	return &Account{algo: a.client.Chain().NewAccount(micro)}, nil
}

// Balance implements Connector.
func (a *AlgorandConnector) Balance(acct *Account) chain.Amount {
	return a.client.Chain().Balance(acct.algo.Address)
}

// Deploy implements Connector: the application-creation transaction. The
// escrow account still needs its MinBalance deposit before it can hold
// funds; that payment rides the creator's first call (Invoke with
// CallOpts.EscrowFund) — the extra deployment traffic the paper
// attributes to "the design of the network" (§5.1.5).
func (a *AlgorandConnector) Deploy(acct *Account, compiled *lang.Compiled, args []lang.Value) (*Handle, *OpResult, error) {
	start := a.Now()
	ctorArgs, err := lang.EncodeArgsTEAL("", compiled.Program.Ctor.Params, args)
	if err != nil {
		return nil, nil, err
	}
	var (
		rcpt1 *chain.Receipt
		appID uint64
	)
	retries, err := withRetry(a, a.defaultRetry(), func() error {
		var err error
		rcpt1, appID, err = a.client.CreateApp(acct.algo, compiled.TEALSource, ctorArgs)
		return err
	})
	res := opResult(start, a.Now(), rcpt1)
	res.Retries = retries
	if err != nil {
		return nil, res, err
	}
	h := &Handle{Connector: a.Name(), AppID: appID, Compiled: compiled}
	return h, res, nil
}

// EscrowFunding implements Connector.
func (a *AlgorandConnector) EscrowFunding() uint64 { return algorand.MinBalance }

// Invoke implements Connector.
func (a *AlgorandConnector) Invoke(acct *Account, h *Handle, api string, opts CallOpts, args ...lang.Value) (lang.Value, *OpResult, error) {
	escrowFund := uint64(0)
	if opts.EscrowFund {
		escrowFund = algorand.MinBalance
	}
	start := a.Now()
	var (
		v   lang.Value
		res *OpResult
	)
	retries, err := withRetry(a, resolveRetry(a, opts), func() error {
		var err error
		v, res, err = a.callOnce(acct, h, api, opts.Pay, escrowFund, args)
		return err
	})
	if res != nil {
		res.Latency = a.Now() - start
		res.Retries = retries
	}
	return v, res, err
}

// callOnce is one attempt of an API call.
func (a *AlgorandConnector) callOnce(acct *Account, h *Handle, api string, pay, escrowFund uint64, args []lang.Value) (lang.Value, *OpResult, error) {
	start := a.Now()
	ap := h.Compiled.Program.FindAPI(api)
	if ap == nil {
		return lang.Value{}, nil, fmt.Errorf("core: unknown API %q", api)
	}
	appArgs, err := lang.EncodeArgsTEAL(api, ap.Params, args)
	if err != nil {
		return lang.Value{}, nil, err
	}
	rcpt, err := a.client.CallApp(acct.algo, h.AppID, appArgs, pay, escrowFund)
	if err != nil {
		return lang.Value{}, opResult(start, a.Now(), rcpt), err
	}
	res := opResult(start, a.Now(), rcpt)
	if rcpt.Reverted {
		return lang.Value{}, res, fmt.Errorf("%w: %s: %s", ErrAPIRejected, api, rcpt.RevertMsg)
	}
	v, err := lang.DecodeReturnTEAL(ap.Returns, rcpt.ReturnValue)
	if err != nil {
		return lang.Value{}, res, err
	}
	return v, res, nil
}

// View implements Connector: evaluated by simulation, free of charge.
func (a *AlgorandConnector) View(h *Handle, name string) (lang.Value, error) {
	v, ok := h.Compiled.Program.FindView(name)
	if !ok {
		return lang.Value{}, fmt.Errorf("core: unknown view %q", name)
	}
	appArgs, err := lang.EncodeArgsTEAL("view:"+name, nil, nil)
	if err != nil {
		return lang.Value{}, err
	}
	res, err := a.client.Simulate(h.AppID, chain.Address{}, appArgs)
	if err != nil {
		return lang.Value{}, err
	}
	if !res.Approved {
		return lang.Value{}, fmt.Errorf("core: view %q rejected: %v", name, res.Err)
	}
	return lang.DecodeReturnTEAL(v.Type, res.Return)
}

// ReadGlobal implements Connector.
func (a *AlgorandConnector) ReadGlobal(h *Handle, name string) (lang.Value, error) {
	gi := -1
	for i, g := range h.Compiled.Program.Globals {
		if g.Name == name {
			gi = i
		}
	}
	if gi < 0 {
		return lang.Value{}, fmt.Errorf("core: unknown global %q", name)
	}
	v, ok := a.client.Chain().AppGlobal(h.AppID, lang.TEALGlobalKey(name))
	if !ok {
		return lang.Value{}, fmt.Errorf("core: global %q not set", name)
	}
	return lang.DecodeTEALValue(h.Compiled.Program.Globals[gi].Type, v)
}

// ReadMap implements Connector.
func (a *AlgorandConnector) ReadMap(h *Handle, mapName string, key uint64) (lang.Value, bool, error) {
	k, err := lang.TEALMapKey(h.Compiled.Program, mapName, key)
	if err != nil {
		return lang.Value{}, false, err
	}
	v, ok := a.client.Chain().AppGlobal(h.AppID, k)
	if !ok {
		return lang.Value{}, false, nil
	}
	var valType lang.Type
	for _, m := range h.Compiled.Program.Maps {
		if m.Name == mapName {
			valType = m.Value
		}
	}
	out, err := lang.DecodeTEALValue(valType, v)
	if err != nil {
		return lang.Value{}, false, err
	}
	return out, true, nil
}

// ContractBalance implements Connector: the spendable balance, i.e. the
// escrow balance net of the locked minimum balance, so the same number
// means the same thing on every connector.
func (a *AlgorandConnector) ContractBalance(h *Handle) uint64 {
	total := a.client.Chain().Balance(a.client.Chain().AppAddress(h.AppID)).Base.Uint64()
	if total < algorand.MinBalance {
		return 0
	}
	return total - algorand.MinBalance
}
