package journal

import "mcsched/internal/obs"

// Metrics carries the latency instruments a Log observes into. All fields
// must be non-nil when a Metrics is installed; a nil Options.Metrics
// disables observation entirely (the Log then takes no timestamps). The
// admission layer builds one per controller in EnableMetrics and shares it
// across every tenant log it opens afterwards.
type Metrics struct {
	// AppendSeconds observes each record from stage to acknowledgement:
	// framing, the wait for its flush, the segment write, and the data
	// fsync when the log runs in fsync mode.
	AppendSeconds *obs.Histogram
	// FsyncSeconds observes just the per-flush data sync of fsync-mode
	// logs — the durability cost an operator tunes -fsync against.
	FsyncSeconds *obs.Histogram
	// SnapshotSeconds observes durable snapshot writes, including the
	// rename, directory sync and segment truncation.
	SnapshotSeconds *obs.Histogram
	// BatchRecords observes the number of records each flush coalesced,
	// encoded one-second-per-record (a batch of 8 records is observed as
	// 8s), so the histogram's second-valued buckets read directly as
	// records-per-fsync.
	BatchRecords *obs.Histogram
}
