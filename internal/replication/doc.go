// Package replication ships committed admission journal records from a
// leader controller to warm-standby followers over HTTP, and applies them
// on the follower through the admission layer's verified replay path, so a
// promoted follower holds bit-identical partitions, per-tenant stats and
// warm per-core analyzers.
//
// The event-sourced journal (internal/journal) is the replication log:
// every committed transition is already a durable, totally ordered,
// CRC-framed record, so the leader side (Shipper) only needs a cursor per
// follower per tenant. The shipper wakes on the admission layer's
// post-commit hook, reads pending records through the journal's ReadFrom
// cursor, and streams them as versioned binary wire frames (internal/mcsio,
// ReplFrame) down one long-lived request per follower. A follower that has
// fallen behind the leader's snapshot-truncation horizon catches up from a
// snapshot frame instead; tenant deletions propagate as remove frames.
//
// The follower side (Receiver) fails closed, and checks each thing once.
// The wire layer checks a frame's envelope: torn bodies, checksum damage,
// version skew, unknown kinds and empty batches are refused there. The
// admission layer's apply path decodes the payloads: every record of a
// frame decodes, with its stamp checked against its position, before any
// record of the frame applies, so a reordered, gapped or undecodable batch
// applies nothing. Every record is then re-verified against the local
// placement before it commits to the local journal (verify → append →
// apply). A snapshot passes the rule recovery applies to one: it must name
// the frame's tenant and sequence, and every core must pass the tenant's
// test or, under EY and ECDF, which are not sustainable under removal, the
// utilization filter in front of them. So a tampered stream cannot poison
// the replica's durable state, through records or snapshot frames, beyond
// what that per-core check can judge. Redelivered records and snapshots are
// idempotent; every acknowledgement carries the next sequence the follower
// expects, which is all the leader needs to resynchronize its cursor after
// either side restarts.
//
// Failure model: one leader, one or more followers, fail-stop. The
// follower's history must be a prefix of the leader's — a follower must be
// (re)built from an empty data directory after the leader's history is
// reset, since the protocol carries no epoch to tell two histories apart.
// Promotion (admission.Controller.Promote) flips the follower writable; it
// deliberately changes no tenant state, because the replica was built
// through the same verified replay path as crash recovery, making
// promotion equivalent to a fresh Recover of the leader's journal.
package replication
