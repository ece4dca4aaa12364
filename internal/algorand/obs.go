package algorand

import (
	"agnopol/internal/obs"
)

// chainObs bundles the chain's metric instruments; nil means the chain is
// uninstrumented and hook sites cost one nil check.
type chainObs struct {
	roundsCertified  *obs.Counter
	groupsSubmitted  *obs.Counter
	groupsIncluded   *obs.Counter
	groupsRejected   *obs.Counter
	certVotes        *obs.Counter
	fees             *obs.Counter
	pendingDepth     *obs.Gauge
	inclusionLatency *obs.QuantileSketch
	faultDelay       *obs.QuantileSketch
	prof             obs.Profiler
}

// Instrument attaches metric instruments and an AVM opcode profiler to
// the chain. All metrics carry a chain label with the preset name.
// Passing a nil registry detaches instrumentation.
func (c *Chain) Instrument(reg *obs.Registry, prof obs.Profiler) {
	if reg == nil {
		c.obs = nil
		return
	}
	name := obs.L("chain", c.cfg.Name)
	c.obs = &chainObs{
		roundsCertified:  reg.Counter("algorand_rounds_certified_total", name),
		groupsSubmitted:  reg.Counter("algorand_groups_submitted_total", name),
		groupsIncluded:   reg.Counter("algorand_groups_included_total", name),
		groupsRejected:   reg.Counter("algorand_groups_rejected_total", name),
		certVotes:        reg.Counter("algorand_cert_votes_total", name),
		fees:             reg.Counter("algorand_fees_microalgo_total", name),
		pendingDepth:     reg.Gauge("algorand_pending_depth", name),
		inclusionLatency: reg.Sketch("algorand_inclusion_latency_seconds", name),
		faultDelay:       reg.Sketch("faults_injected_delay_seconds", name),
		prof:             prof,
	}
	reg.Help("algorand_rounds_certified_total", "Consensus rounds certified.")
	reg.Help("algorand_groups_submitted_total", "Transaction groups accepted into the pending pool.")
	reg.Help("algorand_groups_included_total", "Transaction groups included in a certified round.")
	reg.Help("algorand_groups_rejected_total", "Included groups whose execution was rejected and rolled back.")
	reg.Help("algorand_cert_votes_total", "Sortition committee votes collected across certificates.")
	reg.Help("algorand_fees_microalgo_total", "Fees charged, in microAlgos.")
	reg.Help("algorand_pending_depth", "Transaction groups currently awaiting a round.")
	reg.Help("algorand_inclusion_latency_seconds", "Simulated submit-to-certification latency.")
	reg.Help("faults_injected_delay_seconds", "Quantile sketch of injected tx_delay propagation stalls.")
}
