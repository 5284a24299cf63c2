package main

import "time"

// A workload is one traffic mix against one daemon configuration (or, for
// offline-sweep, no daemon at all). Rates, op counts and limits are frozen
// constants sized once on the 2-core reference box (see README.md, "How
// rates and limits were sized"); they scale with -seconds and never adapt
// to what a run observes, so both sides of a comparison receive the same
// load.
type workload struct {
	name string
	why  string

	// serve is false only for offline-sweep.
	serve bool
	// durable journals with fsync + group commit + the binary codec;
	// replicated adds a -follow daemon the leader streams to.
	durable, replicated bool

	tenants, cores int
	// tests rotate over the tenants (tenant i gets tests[i%len]).
	tests []string
	// batch is the tasks per admit/probe request; 0 sends single-task ops.
	batch int

	// cruiseRate is the open-loop arrival rate in ops/s; satRate sizes the
	// closed-loop phase (op count = satRate × its share of -seconds);
	// limit is the latency a cruise op must meet to count toward the SLO.
	cruiseRate, satRate float64
	limit               time.Duration

	// depart is the per-step release probability per resident unit (task or
	// batch): with arrivals fixed, it sets the offered load and thereby how
	// often the admission test has to say no.
	depart float64
}

// writeClass and readClass pick the ops behind write_* and read_*. On the
// single-task workloads a write is an admit or a release and a read a probe
// or a GET; each pair costs about the same, so their mixture has one mode.
// On the batch workload a 16-task admit costs several times a release (and
// a probe several times a GET): the median of such a mixture sits in the
// trough between two modes and moves with the mix, so there the classes are
// the batch admits and the batch probes alone. Releases and GETs are still
// sent, verified, and reported per route.
func (w workload) writeClass(k opKind) bool {
	if w.batch > 0 {
		return k == opAdmit
	}
	return k.write()
}

func (w workload) readClass(k opKind) bool {
	if w.batch > 0 {
		return k == opProbe
	}
	return !k.write()
}

// Phase shares of -seconds for a serve workload. The warm-up is discarded;
// cruise is open loop, saturate closed loop; the special phase is the
// workload's extra (restart cycles, lag probe, simulations).
const (
	shareWarm    = 0.10
	shareCruise  = 0.50
	shareSat     = 0.25
	shareSpecial = 0.15
)

const (
	nameMem        = "serve-mem"
	nameDurable    = "serve-durable"
	nameReplicated = "serve-replicated"
	nameBatch      = "serve-analysis-batch"
	nameSweep      = "offline-sweep"
)

var workloads = []workload{
	{
		name: nameMem, serve: true,
		why:     "in-memory daemon, single-task EDF-VD ops: HTTP, JSON and middleware do nearly all the work; journal and replication do none",
		tenants: 16, cores: 8, tests: []string{"EDF-VD"},
		cruiseRate: 4000, satRate: 20000, limit: 2 * time.Millisecond, depart: 0.012,
	},
	{
		name: nameDurable, serve: true, durable: true,
		why:     "same op stream with fsync, group commit and the binary codec: the delta to serve-mem is journal plus record encode; reads must not move",
		tenants: 16, cores: 8, tests: []string{"EDF-VD"},
		cruiseRate: 1500, satRate: 7000, limit: 5 * time.Millisecond, depart: 0.012,
	},
	{
		name: nameReplicated, serve: true, durable: true, replicated: true,
		why:     "same op stream, durable leader streaming to a follower on the same 2 cores: the delta to serve-durable is replication",
		tenants: 16, cores: 8, tests: []string{"EDF-VD"},
		cruiseRate: 1000, satRate: 5000, limit: 8 * time.Millisecond, depart: 0.012,
	},
	{
		name: nameBatch, serve: true,
		why:     "16-task batches under EY, ECDF and AMC-max, constrained deadlines, tenants full: the exact analyses run and the verdict cache misses; admission, analysis and core own over half of a request",
		tenants: 48, cores: 8, tests: []string{"EY", "ECDF", "AMC-max"}, batch: 16,
		cruiseRate: 500, satRate: 2800, limit: 10 * time.Millisecond, depart: 0.13,
	},
	{
		name: nameSweep,
		why:  "the paper's acceptance-ratio sweeps through the facade (m=8; Figure 3 at the paper's 1000 task sets per bucket, Figure 5 at 240): taskgen, offline strategies, cold tests, parallel map",
	},
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// metricDef names one reported metric. The same tables drive the printout,
// the last-line JSON and the shape check against BENCHMARK.json.
type metricDef struct {
	name, unit string
	higher     bool // higher is better
	// exact marks a metric that is a function of the seed and the code, not
	// of timing: -compare demands that it repeats to the last digit.
	exact bool
}

// endToEnd is what a client (or, for the sweep, the experimenter) sees.
// Every workload reports every one of them, which the acceptance harness
// requires; what each name means on offline-sweep, where nothing is read
// or written, is spelled out in README.md.
var endToEnd = []metricDef{
	{name: "setup_s", unit: "s"},
	{name: "write_p50_us", unit: "us"},
	{name: "read_p50_us", unit: "us"},
	{name: "sat_ops_s", unit: "1/s", higher: true},
	{name: "accept_ratio", unit: "ratio", higher: true, exact: true},
}

// perLayer metrics carry no bound; a layer that a workload does not
// exercise reports 0. Grouped by the module they attribute time or work to.
var perLayer = []metricDef{
	// Generator validity: a late or CPU-bound loader voids the run.
	{name: "mcload.gen_late_p99_us", unit: "us"},
	{name: "mcload.cpu_share", unit: "ratio"},
	{name: "mcload.fail_ratio", unit: "ratio"},
	{name: "mcload.slo_miss_ratio", unit: "ratio"},
	{name: "mcload.instance_spread", unit: "ratio"},
	{name: "mcload.trace_overhead_ratio", unit: "ratio"},

	{name: "mcschedd.http_floor_p50_us", unit: "us"},
	{name: "mcschedd.route_admit_p50_us", unit: "us"},
	{name: "mcschedd.route_release_p50_us", unit: "us"},
	{name: "mcschedd.route_probe_p50_us", unit: "us"},
	{name: "mcschedd.route_get_p50_us", unit: "us"},
	{name: "mcschedd.write_p90_us", unit: "us"},
	{name: "mcschedd.read_p90_us", unit: "us"},
	{name: "mcschedd.lat_p99_us", unit: "us"},
	{name: "mcschedd.self_us_per_op", unit: "us"},
	{name: "mcschedd.cpu_s_per_kop", unit: "s"},
	{name: "mcschedd.peak_rss_mb", unit: "MB"},
	{name: "mcschedd.status_4xx", unit: "count"},
	{name: "mcschedd.status_5xx", unit: "count"},

	{name: "obs.server_mean_us", unit: "us"},
	{name: "obs.scrape_ms", unit: "ms"},

	{name: "mcsio.decode_request_us", unit: "us"},
	{name: "mcsio.encode_response_us", unit: "us"},
	{name: "mcsio.encode_event_us", unit: "us"},
	{name: "mcsio.encode_event_allocs", unit: "count"},
	{name: "mcsio.event_bytes", unit: "B"},

	{name: "admission.decide_us_per_op", unit: "us"},
	{name: "admission.self_us_per_op", unit: "us"},
	{name: "admission.accept_ratio", unit: "ratio", higher: true},
	{name: "admission.tests_per_decision", unit: "count"},
	{name: "admission.cache_hit_ratio", unit: "ratio", higher: true},
	{name: "admission.shared_ratio", unit: "ratio", higher: true},

	{name: "core.place_us_per_op", unit: "us"},
	{name: "core.self_us_per_op", unit: "us"},
	{name: "core.probes_per_admit", unit: "count"},
	{name: "core.partition_us_per_set", unit: "us"},

	{name: "analysis.test_us_per_decision", unit: "us"},
	{name: "analysis.test_us_per_set", unit: "us"},
	{name: "analysis.time_share", unit: "ratio"},
	{name: "analysis.fast_accept_ratio", unit: "ratio", higher: true},
	{name: "analysis.fast_reject_ratio", unit: "ratio", higher: true},
	{name: "analysis.incremental_ratio", unit: "ratio", higher: true},
	{name: "analysis.exact_run_ratio", unit: "ratio"},
	{name: "analysis.warm_start_ratio", unit: "ratio", higher: true},

	{name: "journal.device_fsync_p50_us", unit: "us"},
	{name: "journal.append_us_per_record", unit: "us"},
	{name: "journal.fsyncs_per_record", unit: "ratio"},
	{name: "journal.records_per_flush", unit: "ratio", higher: true},
	{name: "journal.bytes_per_record", unit: "B"},
	{name: "journal.disk_bytes_per_payload_byte", unit: "ratio"},
	{name: "journal.snapshots", unit: "count"},
	{name: "journal.replay_records_per_s", unit: "1/s", higher: true},
	{name: "journal.recover_ms", unit: "ms"},

	{name: "replication.lag_records_end", unit: "count"},
	{name: "replication.drain_ms", unit: "ms"},
	{name: "replication.frames_per_record", unit: "ratio"},
	{name: "replication.follower_cpu_s_per_kop", unit: "s"},
	{name: "replication.apply_us_per_record", unit: "us"},
	{name: "replication.visible_p50_us", unit: "us"},

	{name: "sim.simulate_p50_ms", unit: "ms"},
	{name: "sim.jobs_per_s", unit: "1/s", higher: true},

	{name: "experiments.war.CA-UDP-EDF-VD", unit: "ratio", higher: true},
	{name: "experiments.war.CU-UDP-EDF-VD", unit: "ratio", higher: true},
	{name: "experiments.war.CA-UDP-ECDF", unit: "ratio", higher: true},
	{name: "experiments.war.CU-UDP-ECDF", unit: "ratio", higher: true},
	{name: "experiments.war.CA-UDP-AMC-max", unit: "ratio", higher: true},
	{name: "experiments.war.CU-UDP-AMC-max", unit: "ratio", higher: true},
	{name: "experiments.parallel_efficiency", unit: "ratio", higher: true},

	{name: "taskgen.gen_us_per_set", unit: "us"},
}
