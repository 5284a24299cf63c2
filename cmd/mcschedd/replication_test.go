package main

// End-to-end replication through the daemon's HTTP surface: a leader
// daemon ships its journal to a follower daemon; /v1/stats and
// /v1/replication expose monotone applied-sequence numbers while the
// follower catches up from an empty data dir; promotion flips the follower
// writable with no lost task.

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"testing"
	"time"

	"mcsched/internal/admission"
	"mcsched/internal/mcsio"
	"mcsched/internal/replication"
)

// replStatsView mirrors the /v1/stats replication payloads the test reads.
type replStatsView struct {
	Role        string `json:"role"`
	Replication *struct {
		Role      string `json:"role"`
		Followers []struct {
			URL     string `json:"url"`
			Tenants map[string]struct {
				Acked      uint64 `json:"acked"`
				LeaderNext uint64 `json:"leader_next"`
				Lag        uint64 `json:"lag"`
			} `json:"tenants"`
		} `json:"followers"`
		Tenants map[string]uint64 `json:"tenants"`
		Applied *struct {
			Records   uint64 `json:"records"`
			Snapshots uint64 `json:"snapshots"`
		} `json:"applied"`
	} `json:"replication"`
}

func TestReplicationLagStats(t *testing.T) {
	// ---- Leader daemon with history committed before any follower. ----
	leaderCfg := journaledConfig(t.TempDir())
	leaderCtrl := admission.NewController(leaderCfg)
	if _, err := leaderCtrl.Recover(); err != nil {
		t.Fatal(err)
	}
	leaderSrvHandler := newServer(leaderCtrl)
	leader := httptest.NewServer(leaderSrvHandler)
	defer leader.Close()

	if st := call(t, "POST", leader.URL+"/v1/systems",
		`{"id":"alpha","processors":8,"test":"EDF-VD"}`, nil); st != http.StatusCreated {
		t.Fatalf("create alpha: status %d", st)
	}
	// Light tasks (u_hi = 0.02) so the whole history fits on 8 cores.
	const lightTask = `{"id":%d,"crit":"HI","period":100,"deadline":100,"c_lo":1,"c_hi":2}`
	const history = 60
	for i := 0; i < history; i++ {
		var res admission.AdmitResult
		if st := call(t, "POST", leader.URL+"/v1/systems/alpha/admit",
			fmt.Sprintf(`{"task":`+lightTask+`}`, i), &res); st != http.StatusOK || !res.Admitted {
			t.Fatalf("admit %d: status %d, %+v", i, st, res)
		}
	}

	// ---- Follower daemon from an empty data dir. ----
	followerCfg := journaledConfig(t.TempDir())
	followerCfg.Follower = true
	followerCtrl := admission.NewController(followerCfg)
	if _, err := followerCtrl.Recover(); err != nil {
		t.Fatal(err)
	}
	defer followerCtrl.Close()
	follower := httptest.NewServer(newServer(followerCtrl).withReceiver(replication.NewReceiver(followerCtrl)))
	defer follower.Close()

	// ---- Connect the shipper with a tiny batch so catch-up is gradual
	// and the monotone climb is observable. ----
	ship, err := replication.NewShipper(leaderCtrl, []string{follower.URL},
		replication.ShipperConfig{BatchRecords: 4})
	if err != nil {
		t.Fatal(err)
	}
	leaderCtrl.SetHooks(ship.Hooks())
	leaderSrvHandler.withShipper(ship)
	ship.Start()
	defer ship.Stop()

	// ---- Poll both surfaces while the follower catches up: applied and
	// acked sequences must climb monotonically to the leader's tail. ----
	var lastFollowerNext, lastAcked uint64
	deadline := time.Now().Add(20 * time.Second)
	caughtUp := false
	polls := 0
	for time.Now().Before(deadline) {
		var fstats replStatsView
		if st := call(t, "GET", follower.URL+"/v1/stats", "", &fstats); st != http.StatusOK {
			t.Fatalf("follower stats: status %d", st)
		}
		if fstats.Role != "follower" {
			t.Fatalf("follower role %q before promotion", fstats.Role)
		}
		if fstats.Replication == nil {
			t.Fatal("follower stats carry no replication block")
		}
		next := fstats.Replication.Tenants["alpha"]
		if next < lastFollowerNext {
			t.Fatalf("follower applied sequence went backwards: %d -> %d", lastFollowerNext, next)
		}
		lastFollowerNext = next

		// The follower's /v1/replication serves the strict wire document.
		resp, err := http.Get(follower.URL + "/v1/replication")
		if err != nil {
			t.Fatal(err)
		}
		raw, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		doc, err := mcsio.DecodeReplStatus(raw)
		if err != nil {
			t.Fatalf("follower /v1/replication is not the strict wire doc: %v (%s)", err, raw)
		}
		if doc.Tenants["alpha"] != next && doc.Tenants["alpha"] < next {
			t.Fatalf("wire doc behind stats: %d vs %d", doc.Tenants["alpha"], next)
		}

		var lstats replStatsView
		if st := call(t, "GET", leader.URL+"/v1/stats", "", &lstats); st != http.StatusOK {
			t.Fatalf("leader stats: status %d", st)
		}
		if lstats.Replication == nil || len(lstats.Replication.Followers) != 1 {
			t.Fatalf("leader stats carry no follower view: %+v", lstats.Replication)
		}
		lag := lstats.Replication.Followers[0].Tenants["alpha"]
		if lag.Acked < lastAcked {
			t.Fatalf("leader acked sequence went backwards: %d -> %d", lastAcked, lag.Acked)
		}
		lastAcked = lag.Acked
		polls++
		if lag.Lag == 0 && next == lag.LeaderNext && next > uint64(history) {
			caughtUp = true
			break
		}
	}
	if !caughtUp {
		t.Fatalf("follower never caught up: next=%d acked=%d", lastFollowerNext, lastAcked)
	}
	if polls == 0 {
		t.Fatal("no polls observed")
	}

	// ---- Leader's /v1/replication shows the follower at zero lag. ----
	var lrepl struct {
		Role      string `json:"role"`
		Followers []struct {
			Tenants map[string]struct {
				Lag uint64 `json:"lag"`
			} `json:"tenants"`
		} `json:"followers"`
	}
	if st := call(t, "GET", leader.URL+"/v1/replication", "", &lrepl); st != http.StatusOK {
		t.Fatalf("leader replication: status %d", st)
	}
	if lrepl.Role != "leader" || len(lrepl.Followers) != 1 || lrepl.Followers[0].Tenants["alpha"].Lag != 0 {
		t.Fatalf("leader replication view wrong: %+v", lrepl)
	}

	// ---- Writes on the follower are 409 until promotion. ----
	if st := call(t, "POST", follower.URL+"/v1/systems/alpha/admit",
		fmt.Sprintf(`{"task":`+lightTask+`}`, 999), nil); st != http.StatusConflict {
		t.Fatalf("follower admit: status %d, want 409", st)
	}
	if st := call(t, "POST", follower.URL+"/v1/systems",
		`{"id":"beta","processors":2,"test":"EDF-VD"}`, nil); st != http.StatusConflict {
		t.Fatalf("follower create: status %d, want 409", st)
	}

	// ---- Failover: kill the leader, promote the follower over HTTP. ----
	var leaderAlpha systemResponse
	if st := call(t, "GET", leader.URL+"/v1/systems/alpha", "", &leaderAlpha); st != http.StatusOK {
		t.Fatalf("get alpha on leader: status %d", st)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := ship.Flush(ctx); err != nil {
		t.Fatal(err)
	}
	ship.Stop()
	leader.Close()
	if err := leaderCtrl.Close(); err != nil {
		t.Fatal(err)
	}

	var pr replication.PromoteResponse
	if st := call(t, "POST", follower.URL+"/v1/promote", "", &pr); st != http.StatusOK || !pr.Promoted || pr.Role != "leader" {
		t.Fatalf("promote: status %d, %+v", st, pr)
	}
	// Promotion is idempotent: a repeat changes nothing and says so.
	pr = replication.PromoteResponse{}
	if st := call(t, "POST", follower.URL+"/v1/promote", "", &pr); st != http.StatusOK || pr.Promoted || pr.Role != "leader" {
		t.Fatalf("second promote: status %d, %+v, want 200 with promoted false, role leader", st, pr)
	}
	var followerAlpha systemResponse
	if st := call(t, "GET", follower.URL+"/v1/systems/alpha", "", &followerAlpha); st != http.StatusOK {
		t.Fatalf("get alpha on follower: status %d", st)
	}
	if !reflect.DeepEqual(leaderAlpha, followerAlpha) {
		t.Fatalf("promoted follower diverged from leader:\nleader   %+v\nfollower %+v", leaderAlpha, followerAlpha)
	}
	// The promoted follower serves writes.
	var res admission.AdmitResult
	if st := call(t, "POST", follower.URL+"/v1/systems/alpha/admit",
		fmt.Sprintf(`{"task":`+lightTask+`}`, 1000), &res); st != http.StatusOK || !res.Admitted {
		t.Fatalf("admit after promotion: status %d, %+v", st, res)
	}
	// And a stale leader is fenced off with 409 at its stream dial (the
	// empty body is the shipper's probe).
	if st := call(t, "POST", follower.URL+replication.StreamPath, "", nil); st != http.StatusConflict {
		t.Fatalf("stream dial after promotion: status %d, want 409", st)
	}
	// The stream is the only frame route.
	if st := call(t, "POST", follower.URL+"/v1/replication/frame", "{}", nil); st != http.StatusNotFound && st != http.StatusMethodNotAllowed {
		t.Fatalf("per-frame route: status %d, want 404 or 405", st)
	}
}
