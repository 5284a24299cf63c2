package admission

import (
	"mcsched/internal/analysis/kernel"
	"mcsched/internal/journal"
	"mcsched/internal/obs"
)

// Metrics carries the admission-layer latency histograms installed by
// EnableMetrics. The decision paths load it through an atomic pointer and
// take timestamps only when it is present, so an un-instrumented controller
// pays nothing.
type Metrics struct {
	admitSeconds, probeSeconds, releaseSeconds *obs.Histogram
	simulateSeconds                            *obs.Histogram
}

// EnableMetrics registers the controller's observable state on r and turns
// on latency observation. The counter series attach the very instruments
// Stats() reads, so /metrics and /v1/stats are one source of truth and can
// never drift. Call it once, before Recover and before serving traffic —
// journal instruments only reach logs opened after this call.
func (c *Controller) EnableMetrics(r *obs.Registry) {
	// Decision counters: the same obs.Counter instruments Stats() snapshots.
	r.AttachCounter(&c.stats.admits, "mcsched_admission_admits_total",
		"Tasks admitted (committed); batch admits count each task.")
	r.AttachCounter(&c.stats.rejects, "mcsched_admission_rejects_total",
		"Committing decisions rejected (a rejected batch counts once).")
	r.AttachCounter(&c.stats.probes, "mcsched_admission_probes_total",
		"Non-committing probe decisions.")
	r.AttachCounter(&c.stats.releases, "mcsched_admission_releases_total",
		"Tasks released.")
	r.AttachCounter(&c.stats.testsRun, "mcsched_admission_tests_run_total",
		"Uniprocessor schedulability analyses actually executed.")
	r.AttachCounter(&c.stats.simulations, "mcsched_admission_simulations_total",
		"Read-only what-if simulations executed against live tenants.")

	// Gauges over live controller state, computed at scrape time.
	r.GaugeFunc("mcsched_admission_systems",
		"Current number of tenant systems.",
		func() float64 { return float64(len(c.allSystems())) })
	r.GaugeFunc("mcsched_admission_tasks",
		"Total resident tasks across all tenants.",
		func() float64 {
			n := 0
			for _, sys := range c.allSystems() {
				n += sys.NumTasks()
			}
			return float64(n)
		})
	r.GaugeFunc("mcsched_admission_follower",
		"1 while the controller is a warm-standby follower rejecting writes, 0 as leader.",
		func() float64 {
			if c.follower.Load() {
				return 1
			}
			return 0
		})

	// Analyzer fast-path breakdown (kernel.Counters), aggregated over live
	// tenants at scrape time — a removed tenant takes its tallies with it,
	// exactly as in Stats().
	registerAnalyzerSeries(r, c.analyzerTotals)

	// Per-family breakdown of the same five counters, labelled by the test
	// family gating each tenant. The label set is open-ended (a family
	// appears when some tenant uses it), so tenant creation registers each
	// family's series lazily; tenants created before this call register here.
	c.reg.Store(r)
	for _, sys := range c.allSystems() {
		c.registerFamilySeries(sys.TestName())
	}

	// Decision latency histograms, gated behind the atomic pointer so the
	// hot path only times itself once these exist.
	c.metrics.Store(&Metrics{
		admitSeconds: r.NewHistogram("mcsched_admission_admit_duration_seconds",
			"Latency of committing admit decisions (single and batch), including journaling.",
			obs.LatencyBuckets),
		probeSeconds: r.NewHistogram("mcsched_admission_probe_duration_seconds",
			"Latency of non-committing probe decisions (single and batch).",
			obs.LatencyBuckets),
		releaseSeconds: r.NewHistogram("mcsched_admission_release_duration_seconds",
			"Latency of release operations, including journaling.",
			obs.LatencyBuckets),
		simulateSeconds: r.NewHistogram("mcsched_admission_simulate_duration_seconds",
			"Latency of read-only tenant simulations (snapshot, runtime derivation, engine run).",
			obs.LatencyBuckets),
	})

	if !c.cfg.journaling() {
		return
	}
	// Journal instruments: latency histograms handed to every tenant log
	// opened from here on (EnableMetrics runs before Recover in mcschedd,
	// so recovery-opened logs observe too), plus scrape-time aggregates of
	// the per-tenant journal counters.
	c.jm.Store(&journal.Metrics{
		AppendSeconds: r.NewHistogram("mcsched_journal_append_duration_seconds",
			"Latency of journal appends from stage to durable (framing, flush wait, segment write, fsync when enabled).",
			obs.LatencyBuckets),
		FsyncSeconds: r.NewHistogram("mcsched_journal_fsync_duration_seconds",
			"Latency of the per-flush data sync in fsync mode.",
			obs.LatencyBuckets),
		SnapshotSeconds: r.NewHistogram("mcsched_journal_snapshot_duration_seconds",
			"Latency of durable snapshot writes including segment truncation.",
			obs.LatencyBuckets),
		// Bucket bounds are record counts, not seconds: each flush observes
		// its batch size encoded one second per record.
		BatchRecords: r.NewHistogram("mcsched_journal_batch_records",
			"Records coalesced per journal flush (bucket bounds are record counts).",
			[]float64{1, 2, 4, 8, 16, 32, 64, 128, 256}),
	})
	jt := func(f func(JournalStats) uint64) func() uint64 {
		return func() uint64 { return f(c.journalTotals()) }
	}
	r.CounterFunc("mcsched_journal_records_total",
		"Events appended across all tenant journals (this process).",
		jt(func(j JournalStats) uint64 { return j.Records }))
	r.CounterFunc("mcsched_journal_bytes_total",
		"Framed bytes appended across all tenant journals (this process).",
		jt(func(j JournalStats) uint64 { return j.Bytes }))
	r.CounterFunc("mcsched_journal_fsyncs_total",
		"Synchronous flushes (appends under fsync, snapshots, directory syncs).",
		jt(func(j JournalStats) uint64 { return j.Fsyncs }))
	r.CounterFunc("mcsched_journal_group_commits_total",
		"Journal flushes: shared writes covering one or more staged records.",
		jt(func(j JournalStats) uint64 { return j.GroupCommits }))
	r.CounterFunc("mcsched_journal_snapshots_total",
		"Snapshots written.",
		jt(func(j JournalStats) uint64 { return j.Snapshots }))
	r.CounterFunc("mcsched_journal_snapshot_failures_total",
		"Automatic snapshots that failed (their events stayed durable).",
		jt(func(j JournalStats) uint64 { return j.SnapshotFailures }))
	r.CounterFunc("mcsched_journal_truncated_segments_total",
		"Segments deleted by snapshot truncation.",
		jt(func(j JournalStats) uint64 { return j.TruncatedSegments }))
	r.GaugeFunc("mcsched_journal_segments",
		"Current on-disk log segments across all tenants.",
		func() float64 { return float64(c.journalTotals().Segments) })
}

// registerFamilySeries registers the per-family labelled analyzer counter
// series for one test family, once: mcsched_analyzer_*_total{family="..."}.
// It is a no-op until EnableMetrics stores the registry; afterwards tenant
// creation calls it for every new tenant and the famSeen set dedupes
// repeat families. Values are read from the live tenants at scrape time,
// so the labelled series sum to the unlabelled totals.
func (c *Controller) registerFamilySeries(name string) {
	r := c.reg.Load()
	if r == nil {
		return
	}
	c.famMu.Lock()
	defer c.famMu.Unlock()
	if c.famSeen[name] {
		return
	}
	if c.famSeen == nil {
		c.famSeen = make(map[string]bool)
	}
	c.famSeen[name] = true
	registerAnalyzerSeries(r, func() kernel.Counters { return c.analyzerTotalsByFamily()[name] },
		obs.L("family", name))
}

// analyzerSeries names the five analyzer counters, their help text and the
// kernel.Counters field each reads.
var analyzerSeries = [...]struct {
	name, help string
	field      func(kernel.Counters) uint64
}{
	{"mcsched_analyzer_fast_accepts_total",
		"Analyses answered by a sufficient condition without the exact kernel.",
		func(kc kernel.Counters) uint64 { return kc.FastAccepts }},
	{"mcsched_analyzer_fast_rejects_total",
		"Analyses answered by a necessary-condition reject.",
		func(kc kernel.Counters) uint64 { return kc.FastRejects }},
	{"mcsched_analyzer_incremental_hits_total",
		"Analyses resolved from memoized per-core state.",
		func(kc kernel.Counters) uint64 { return kc.IncrementalHits }},
	{"mcsched_analyzer_exact_runs_total",
		"Full cold kernel runs.",
		func(kc kernel.Counters) uint64 { return kc.ExactRuns }},
	{"mcsched_analyzer_warm_starts_total",
		"Exact analyses seeded from memoized state (converged response times, cached demand curves).",
		func(kc kernel.Counters) uint64 { return kc.WarmStarts }},
}

// registerAnalyzerSeries registers the five analyzer counters on r, each
// reading its field of totals() at scrape time.
func registerAnalyzerSeries(r *obs.Registry, totals func() kernel.Counters, labels ...obs.Label) {
	for _, s := range analyzerSeries {
		r.CounterFunc(s.name, s.help, func() uint64 { return s.field(totals()) }, labels...)
	}
}
