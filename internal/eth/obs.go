package eth

import (
	"agnopol/internal/obs"
)

// chainObs bundles the chain's metric instruments. A nil chainObs (the
// default) means the chain is uninstrumented and every hook site reduces
// to a single nil check.
type chainObs struct {
	blocksProduced   *obs.Counter
	txsSubmitted     *obs.Counter
	txsIncluded      *obs.Counter
	txsDeferred      *obs.Counter
	congestionSpikes *obs.Counter
	blockGasUsed     *obs.Counter
	baseFee          *obs.Gauge
	mempoolDepth     *obs.Gauge
	inclusionLatency *obs.QuantileSketch
	faultDelay       *obs.QuantileSketch
	prof             obs.Profiler
}

// Instrument attaches metric instruments and an opcode profiler to the
// chain. All metrics carry a chain label with the preset name. Passing a
// nil registry detaches instrumentation.
func (c *Chain) Instrument(reg *obs.Registry, prof obs.Profiler) {
	if reg == nil {
		c.obs = nil
		return
	}
	name := obs.L("chain", c.cfg.Name)
	c.obs = &chainObs{
		blocksProduced:   reg.Counter("eth_blocks_produced_total", name),
		txsSubmitted:     reg.Counter("eth_txs_submitted_total", name),
		txsIncluded:      reg.Counter("eth_txs_included_total", name),
		txsDeferred:      reg.Counter("eth_txs_deferred_total", name),
		congestionSpikes: reg.Counter("eth_congestion_spikes_total", name),
		blockGasUsed:     reg.Counter("eth_block_gas_used_total", name),
		baseFee:          reg.Gauge("eth_base_fee_wei", name),
		mempoolDepth:     reg.Gauge("eth_mempool_depth", name),
		inclusionLatency: reg.Sketch("eth_inclusion_latency_seconds", name),
		faultDelay:       reg.Sketch("faults_injected_delay_seconds", name),
		prof:             prof,
	}
	reg.Help("eth_blocks_produced_total", "Blocks produced by the simulated EVM chain.")
	reg.Help("eth_txs_submitted_total", "Transactions accepted into the mempool.")
	reg.Help("eth_txs_included_total", "Transactions included in a block.")
	reg.Help("eth_txs_deferred_total", "Eligible transactions deferred past a block (priced out or waiting).")
	reg.Help("eth_congestion_spikes_total", "Congestion spike episodes started.")
	reg.Help("eth_block_gas_used_total", "Total gas consumed across produced blocks.")
	reg.Help("eth_base_fee_wei", "Current EIP-1559 base fee in wei.")
	reg.Help("eth_mempool_depth", "Transactions currently queued in the mempool.")
	reg.Help("eth_inclusion_latency_seconds", "Simulated submit-to-inclusion latency.")
	reg.Help("faults_injected_delay_seconds", "Quantile sketch of injected tx_delay propagation stalls.")
}
