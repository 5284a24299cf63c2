package replication

import (
	"mcsched/internal/obs"
)

// RegisterMetrics registers the shipper's observable state on r: one
// ship-frame latency histogram across all links, and per-follower series
// (labelled by base URL) for shipped records/snapshots/removes, send
// errors (each a retry, since failed sends retry forever), queue depth and
// total record lag. Call it before Start, alongside SetHooks.
func (s *Shipper) RegisterMetrics(r *obs.Registry) {
	s.shipSeconds.Store(r.NewHistogram("mcsched_replication_ship_batch_duration_seconds",
		"Latency of one replication frame round trip over the stream (records batch, snapshot or remove).",
		obs.LatencyBuckets))
	for _, l := range s.links {
		follower := obs.L("follower", l.base)
		r.CounterFunc("mcsched_replication_shipped_records_total",
			"Journal records acknowledged by the follower.",
			l.shippedRecords.Load, follower)
		r.CounterFunc("mcsched_replication_shipped_snapshots_total",
			"Snapshot frames acknowledged by the follower.",
			l.shippedSnapshots.Load, follower)
		r.CounterFunc("mcsched_replication_shipped_removes_total",
			"Tenant-removal frames acknowledged by the follower.",
			l.shippedRemoves.Load, follower)
		r.CounterFunc("mcsched_replication_send_errors_total",
			"Failed frame sends (each one is retried with backoff).",
			l.sendErrors.Load, follower)
		r.GaugeFunc("mcsched_replication_pending_work",
			"Queued work items (dirty tenants and removals) toward the follower.",
			func() float64 {
				l.mu.Lock()
				defer l.mu.Unlock()
				return float64(len(l.queue))
			}, follower)
		r.GaugeFunc("mcsched_replication_lag_records",
			"Journal records committed on the leader but not yet acknowledged by the follower, summed over tenants.",
			func() float64 { return float64(l.totalLag()) }, follower)
	}
}

// totalLag sums the follower's record lag over all journaled tenants —
// the scrape-time scalar behind mcsched_replication_lag_records, using the
// same cursor arithmetic as Status.
func (l *link) totalLag() uint64 {
	progress := l.s.ctrl.ReplicationProgress()
	l.mu.Lock()
	defer l.mu.Unlock()
	var lag uint64
	for id, next := range progress {
		cursor := l.cursors[id]
		if cursor == 0 {
			lag += next - 1 // nothing acked yet: the whole history is owed
			continue
		}
		if cursor > next {
			cursor = next // follower ahead of a restarted leader's view
		}
		lag += next - cursor
	}
	return lag
}

// RegisterMetrics registers the receiver's frame counters on reg — the
// follower-side mirror of the shipper's series.
func (r *Receiver) RegisterMetrics(reg *obs.Registry) {
	reg.CounterFunc("mcsched_replication_applied_records_total",
		"Replicated journal records applied (idempotent redeliveries excluded).",
		r.appliedRecords.Load)
	reg.CounterFunc("mcsched_replication_applied_snapshots_total",
		"Replicated snapshot frames applied.",
		r.appliedSnapshots.Load)
	reg.CounterFunc("mcsched_replication_applied_removes_total",
		"Replicated tenant removals applied.",
		r.appliedRemoves.Load)
	reg.CounterFunc("mcsched_replication_rejected_frames_total",
		"Frames refused fail-closed (bad bytes, sequence conflicts, wrong role).",
		r.rejectedFrames.Load)
}
