package replication

// Cross-heuristic failover over the wire: a tenant created under a
// non-default placement heuristic must replicate its heuristic with its
// state, so a promoted follower keeps packing with the identical placer.
// nf is the interesting case — its scan cursor is genuine state that rides
// in snapshots — so the snapshot frame is pinned here. Record-by-record
// apply and promotion under every placement are checked against a model in
// admission's TestTenantStateMachineLockstep.

import (
	"testing"

	"mcsched/internal/admission"
	"mcsched/internal/core"
)

// TestFailoverPlacementSnapshotCatchUp: a follower that attaches late must
// learn the heuristic (and the nf cursor) from the snapshot frame alone.
func TestFailoverPlacementSnapshotCatchUp(t *testing.T) {
	test := core.Tests()[0]
	leaderDir := t.TempDir()
	leader := admission.NewController(leaderConfig(leaderDir, 3))
	if _, err := leader.Recover(); err != nil {
		t.Fatal(err)
	}
	sys, err := leader.CreateSystemWithPlacement("t", 3, test, "nf")
	if err != nil {
		t.Fatal(err)
	}
	// History with several snapshot truncations before the follower exists.
	driveReplicated(t, sys, test, 909, 4, 0, func(string) {})

	fctrl, recv, srv := newFollower(t, t.TempDir())
	ship := connect(t, leader, srv.URL)
	flush(t, ship)
	if recv.Applied().Snapshots == 0 {
		t.Fatal("catch-up used no snapshot frame despite compaction")
	}
	fsys, err := fctrl.System("t")
	if err != nil {
		t.Fatal(err)
	}
	if got := fsys.PlacementName(); got != "nf" {
		t.Fatalf("snapshot catch-up lost the heuristic: %q", got)
	}
	if got := fsys.Fingerprint(); got != sys.Fingerprint() {
		t.Fatalf("follower diverged after snapshot catch-up:\n%s\n%s", sys.Fingerprint(), got)
	}
	// The leader keeps admitting; the follower, fed only frames on top of
	// the snapshot, must track every nf decision — a wrong cursor restore
	// throws replay divergence here. (Re-resolve the tenant: a snapshot
	// install replaces the follower's System object.)
	driveReplicated(t, sys, test, 910, 2, 1<<16, func(string) {})
	flush(t, ship)
	if got := fingerprintOf(fctrl, "t"); got != sys.Fingerprint() {
		t.Fatalf("follower diverged after post-snapshot records:\n%s\n%s", sys.Fingerprint(), got)
	}
	leader.Close()
}
