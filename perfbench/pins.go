package main

// pinned holds, per workload, the fingerprint a full-scale run at the
// default seed must reproduce: end-of-run digests, state roots and fee
// totals, and for pol-cycle the simulated latency and fee totals per
// chain. They are independent of GOMAXPROCS and of the shard count.
var pinned = map[string]map[string]string{
	"soak-evm": {
		"burned":     "1704276494699465144",
		"digest":     "91a9aa0f90566e9ca901bec198f827cc521d14b1a15a0eea948750a0197bfa0a",
		"state_root": "4b1285a294d8617c3d0a2b885c16c8a993b42fa23845feb6efc963716ac605d3",
		"tipped":     "1059470272000000000",
	},
	"soak-avm": {
		"digest":     "6d46b1ae42162225e271a869aca47f34bccceec1ba382dad67ac3d9db9bfc7ba",
		"state_root": "c5751a8f49948793c0442134e8181ea32a48baa0930035a3f2370cf94a2fcecc",
	},
	"soak-evm-durable": {
		"burned":     "1792487787115961516",
		"digest":     "f818acd44af7320fdaced9d9a22176202fc68f03a010e2fd50c6b45e3ddea115",
		"state_root": "148a1eca7bcaba43001955be2052aef9890d1a048ed0abc69a6b9545ace075f3",
		"tipped":     "978302784000000000",
	},
	"pol-cycle": {
		"algorand.digest":         "6053c3b2461c510cdc3f9e7cfd6e584c78fc757edbc80e529a4e78a26558ea42",
		"algorand.fees":           "144000",
		"algorand.sim_latency_ns": "1513916000102",
		"algorand.state_root":     "e46f6633733ffffa340e17634f53aa0660d2b028f43d1d755fa1bbd995bd34ab",
		"goerli.digest":           "03e158d56cb96b759017a6acba357d9f5ed12b9f599f93c65adcd8cdd8835e75",
		"goerli.fees":             "148782836382430488",
		"goerli.sim_latency_ns":   "3273145639076",
		"goerli.state_root":       "e344ca0162dc11b6d8245fb29c191c6a4cb1b4e9b22d16a84197388783c2462e",
		"polygon.digest":          "639d3cca8c7cf7d57b3de791f2a025c76eb16f30452f643516c41129fca92217",
		"polygon.fees":            "4977735376285993",
		"polygon.sim_latency_ns":  "1793289693840",
		"polygon.state_root":      "993830d710a12e202be1f76db2c3bc01b18e448f0974acaee400bf8659e34ebf",
	},
}
