// Package mcsched is a library for partitioned multiprocessor scheduling of
// dual-criticality (mixed-criticality, MC) real-time task systems. It is a
// from-scratch reproduction of
//
//	Saravanan Ramanathan, Arvind Easwaran.
//	"Utilization Difference Based Partitioned Scheduling of
//	 Mixed-Criticality Systems." DATE 2017.
//
// The paper's contribution — the CA-UDP and CU-UDP partitioning strategies,
// which allocate high-criticality tasks worst-fit by the per-core
// utilization difference UHH(core) − ULH(core) — is implemented together
// with every substrate its evaluation depends on:
//
//   - the dual-criticality sporadic task model (integer-tick time);
//   - uniprocessor MC schedulability tests: EDF-VD (utilization), ECDF and
//     Ekberg–Yi (demand-bound functions with virtual deadlines), and
//     fixed-priority AMC-rtb/AMC-max response-time analysis with Audsley
//     priority assignment;
//   - the published baseline partitioning strategies CA(nosort)-F-F,
//     CA-F-F, CA-Wu-F and ECA-Wu-F;
//   - the fair task-set generator of the paper's experiment setup
//     (RandFixedSum / UUniFast-discard utilizations, log-uniform periods);
//   - a discrete-event runtime simulator for partitioned virtual-deadline
//     EDF and fixed-priority AMC, used to validate accepted partitions;
//   - the full experiment harness that regenerates every figure of the
//     paper (acceptance-ratio sweeps and weighted acceptance ratios);
//   - an online admission-control subsystem (AdmissionController) that
//     keeps live per-core partitions for many tenants and admits, probes
//     and releases tasks at runtime using the paper's utilization-
//     difference placement order, re-analyzing only the affected core
//     with that core's incremental analyzer.
//
// This root package is a stable facade: it re-exports the types and
// functions a downstream user needs, while the implementation lives in
// internal packages. See ARCHITECTURE.md for the layer map, the examples
// directory for runnable programs, cmd/mcfigures for the
// figure-regeneration tool, and cmd/mcschedd for the
// scheduling-as-a-service HTTP daemon built on the admission controller
// (HTTP reference: docs/api.md).
//
// # Quick start
//
//	ts := mcsched.TaskSet{
//		mcsched.NewHCTask(0, 2, 4, 10),  // HC: C^L=2 C^H=4 T=D=10
//		mcsched.NewLCTask(1, 3, 12),     // LC: C=3 T=D=12
//	}
//	cuudp, _ := mcsched.StrategyByName("CU-UDP")
//	algo := mcsched.Algorithm{Strategy: cuudp, Test: mcsched.EDFVD()}
//	part, err := algo.Partition(ts, 2)
//	if err != nil { /* not schedulable on 2 cores */ }
//	fmt.Println(part.Cores)
//
// # Named registries and migration
//
// Offline partitioning strategies, uniprocessor tests and online placement
// heuristics are all resolved by name: StrategyByName/Strategies,
// TestByName/Tests and PlacementByName/Placements. Names are stable wire
// strings — they appear in journals, replication frames and the HTTP API —
// so prefer them over the loose constructors. The strategy constructors
// have been removed; replace
//
//	mcsched.CAUDP()       →  s, _ := mcsched.StrategyByName("CA-UDP")
//	mcsched.CUUDP()       →  s, _ := mcsched.StrategyByName("CU-UDP")
//	mcsched.CANoSortFF()  →  s, _ := mcsched.StrategyByName("CA(nosort)-F-F")
//	mcsched.CAFF()        →  s, _ := mcsched.StrategyByName("CA-F-F")
//	mcsched.CAWuF()       →  s, _ := mcsched.StrategyByName("CA-Wu-F")
//	mcsched.ECAWuF()      →  s, _ := mcsched.StrategyByName("ECA-Wu-F")
//	mcsched.FFD()         →  s, _ := mcsched.StrategyByName("FFD")
//	mcsched.WFD()         →  s, _ := mcsched.StrategyByName("WFD")
//
// The online analogue of a strategy is a placement heuristic: tenants of
// the admission controller pick one by registry name at creation
// (Controller.CreateSystemWithPlacement, or the "placement" field of POST
// /v1/systems), defaulting to DefaultPlacement — the paper's UDP rule.
// Any base heuristic also accepts a "<name>@<limit>" suffix capping
// per-core total utilization, e.g. "ff@0.75".
package mcsched
