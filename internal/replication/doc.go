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
// ReplFrameJSON) down one long-lived request per follower. A follower that has fallen behind the leader's
// snapshot-truncation horizon catches up from a snapshot frame instead;
// tenant deletions propagate as remove frames.
//
// The follower side (Receiver) decodes frames strictly and fails closed:
// torn bodies, reordered or gapped batches, version skew and tenant
// mismatches are refused at the wire layer, and every accepted record is
// re-verified against the local placement before it commits to the local
// journal (verify → append → apply), so a tampered stream cannot poison
// the replica's durable state. Redelivered records and snapshots are
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
