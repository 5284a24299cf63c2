// Command mcschedd serves mixed-criticality admission control over HTTP:
// scheduling-as-a-service on top of the online admission controller. Each
// tenant ("system") is a live task-to-core partition gated by one of the
// library's uniprocessor schedulability tests; tasks are admitted, probed
// and released at runtime using a pluggable placement heuristic — by
// default the paper's utilization-difference order, or any registry name
// from GET /v1/strategies per tenant ("placement" in the create request)
// or daemon-wide (-placement) — with only the affected core re-analyzed
// per decision, by that core's incremental analyzer.
//
// With -data-dir the daemon is durable: every committed transition is
// appended to a per-tenant write-ahead journal before it is applied, the
// journal is periodically compacted into snapshots (-snapshot-every, and
// POST /v1/systems/{id}/snapshot on demand), and a restart replays the
// data directory so no admitted task is lost. -fsync trades admit latency
// for power-loss durability; concurrent decisions against one tenant share
// one write+fsync (group commit: each stages its record under the tenant
// lock and waits for the flush outside it). Records and snapshots are
// written in a CRC-checked binary encoding; reads detect the codec of each
// record, so data directories journaled as JSON keep working.
// -group-commit, -group-commit-delay and -journal-codec are accepted and
// ignored. On SIGINT/SIGTERM the daemon drains in-flight requests, writes a
// final snapshot per tenant, and exits.
//
// With -replicate-to the daemon ships every committed journal record to
// one or more warm-standby followers as binary frames over one persistent
// full-duplex HTTP stream per follower (snapshots transfer the history a
// lagging follower can no longer stream); -repl-stream is accepted and
// ignored. With -follow the daemon is such a follower: it applies
// replicated frames through the verified replay path, rejects writes with
// 409, and becomes a fully writable leader on POST /v1/promote — holding
// bit-identical partitions, stats and warm per-core analyzers. Replication
// lag is visible per follower and tenant in /v1/replication, /v1/stats and
// /metrics:
//
//	mcschedd -addr :8081 -data-dir /var/lib/mcschedd-standby -follow
//	mcschedd -addr :8080 -data-dir /var/lib/mcschedd -replicate-to http://standby:8081
//	curl -s localhost:8080/v1/replication
//	curl -s -X POST standby:8081/v1/promote
//
// With -ops-addr the daemon serves an operational listener on a separate
// address (opt-in, own port, never on the service address) carrying
// Prometheus metrics, health/readiness probes and net/http/pprof.
// Readiness is role-aware: a follower answers 503
// until promoted. Logs are structured (log/slog); -log-format json emits
// machine-parseable lines, and every request carries a propagated
// X-Request-Id that also appears in error logs:
//
//	mcschedd -addr :8080 -ops-addr localhost:6060 -log-format json
//	curl -s localhost:6060/metrics
//	curl -s localhost:6060/readyz
//	go tool pprof http://localhost:6060/debug/pprof/profile?seconds=10
//
//	mcschedd -addr :8080 -data-dir /var/lib/mcschedd
//
//	curl -s localhost:8080/v1/systems -d '{"processors":4,"test":"EDF-VD"}'
//	curl -s localhost:8080/v1/systems/s1/admit \
//	     -d '{"task":{"id":1,"crit":"HI","period":10,"deadline":10,"c_lo":2,"c_hi":4}}'
//	curl -s 'localhost:8080/v1/systems/s1/probe?explain=1' \
//	     -d '{"task":{"id":2,"crit":"LO","period":12,"deadline":12,"c_lo":3,"c_hi":3}}'
//	curl -s localhost:8080/v1/systems/s1/release -d '{"task_id":1}'
//	curl -s -X POST localhost:8080/v1/systems/s1/snapshot
//	curl -s localhost:8080/v1/systems/s1
//	curl -s localhost:8080/v1/stats
//
// Endpoints (service address):
//
//	POST   /v1/systems                create a tenant {id?, processors, test, placement?}
//	GET    /v1/systems                list tenant IDs
//	GET    /v1/strategies             registries: tests, offline strategies, placement heuristics
//	GET    /v1/systems/{id}           partition snapshot + per-core utilizations
//	DELETE /v1/systems/{id}           drop a tenant (and its journal)
//	POST   /v1/systems/{id}/admit     admit one task {"task":…} or a batch {"tasks":[…]}
//	POST   /v1/systems/{id}/probe     same shapes, no commit
//	POST   /v1/systems/{id}/release   release {"task_id":…} or {"task_ids":[…]}
//	POST   /v1/systems/{id}/snapshot  force a journal snapshot + truncation
//	GET    /v1/stats                  controller counters (admits, analyses, journal, replication, …)
//	GET    /v1/replication            replication role + per-tenant positions / per-follower lag
//	POST   /v1/replication/stream     persistent leader frame stream (follower mode only)
//	POST   /v1/promote                flip a follower writable (idempotent)
//
// Admit and probe accept ?explain=1 on single-task decisions and return
// the per-core placement trace alongside the verdict (see
// docs/operations.md).
//
// Endpoints (ops address, -ops-addr):
//
//	GET /metrics        Prometheus text exposition
//	GET /healthz        liveness (always 200 while serving)
//	GET /readyz         readiness (503 while a warm-standby follower)
//	    /debug/pprof/*  net/http/pprof
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"mcsched"
	"mcsched/internal/admission"
	"mcsched/internal/obs"
	"mcsched/internal/replication"
)

func main() {
	addr := flag.String("addr", ":8080", "listen address")
	placement := flag.String("placement", "",
		`default placement heuristic for tenants created without an explicit one (see GET /v1/strategies; empty selects "`+mcsched.DefaultPlacement+`")`)
	dataDir := flag.String("data-dir", "",
		"directory for per-tenant write-ahead journals; empty runs in-memory only")
	fsync := flag.Bool("fsync", false,
		"fsync the journal after every committed transition (requires -data-dir)")
	flag.Bool("group-commit", false, "deprecated and ignored: journal appends always group-commit")
	flag.Duration("group-commit-delay", 0, "deprecated and ignored: a journal flush never waits for more appends")
	journalCodec := flag.String("journal-codec", "", "deprecated and ignored: journal records are always written binary")
	snapshotEvery := flag.Int("snapshot-every", admission.DefaultSnapshotEvery,
		"journaled events per tenant between automatic snapshots (negative disables; requires -data-dir)")
	opsAddr := flag.String("ops-addr", "",
		"serve /metrics, /healthz, /readyz and /debug/pprof on this address (e.g. localhost:6060); empty disables the ops listener")
	logFormat := flag.String("log-format", "text",
		`structured log output format: "text" or "json"`)
	replicateTo := flag.String("replicate-to", "",
		"comma-separated follower base URLs (e.g. http://standby:8080) to ship the journal to (requires -data-dir)")
	flag.Bool("repl-stream", false, "deprecated and ignored: the leader always streams")
	follow := flag.Bool("follow", false,
		"start as a warm-standby follower: apply replicated frames, reject writes until POST /v1/promote (requires -data-dir)")
	flag.Parse()

	var handler slog.Handler
	switch *logFormat {
	case "text":
		handler = slog.NewTextHandler(os.Stderr, nil)
	case "json":
		handler = slog.NewJSONHandler(os.Stderr, nil)
	default:
		fmt.Fprintf(os.Stderr, "mcschedd: unknown -log-format %q (want \"text\" or \"json\")\n", *logFormat)
		os.Exit(2)
	}
	logger := slog.New(handler)
	slog.SetDefault(logger)
	fatal := func(msg string, args ...any) {
		logger.Error(msg, args...)
		os.Exit(1)
	}

	if *dataDir == "" && (*fsync || *snapshotEvery != admission.DefaultSnapshotEvery) {
		fatal("-fsync and -snapshot-every require -data-dir")
	}
	if c := *journalCodec; c != "" && c != "binary" {
		logger.Warn("-journal-codec is deprecated and ignored: journal records are always written binary, and either codec is read",
			"journal_codec", c)
	}
	if _, ok := mcsched.PlacementByName(*placement); !ok {
		fatal("unknown -placement heuristic", "placement", *placement)
	}
	if *dataDir == "" && (*replicateTo != "" || *follow) {
		fatal("-replicate-to and -follow require -data-dir")
	}
	if *replicateTo != "" && *follow {
		fatal("-replicate-to and -follow are mutually exclusive (chained replication is not supported)")
	}

	ctrl := admission.NewController(admission.Config{
		Placement:     *placement,
		DataDir:       *dataDir,
		Fsync:         *fsync,
		SnapshotEvery: *snapshotEvery,
		Follower:      *follow,
	})
	// Metrics come up before recovery so the journals opened during replay
	// already carry their instruments.
	reg := obs.NewRegistry()
	ctrl.EnableMetrics(reg)
	if *dataDir != "" {
		rs, err := ctrl.Recover()
		if err != nil {
			fatal("recover failed", "data_dir", *dataDir, "error", err)
		}
		logger.Info("recovered data directory", "data_dir", *dataDir,
			"systems", rs.Systems, "tasks", rs.Tasks,
			"snapshots_loaded", rs.SnapshotsLoaded, "events_replayed", rs.Events)
	}

	srvHandler := newServer(ctrl).instrument(reg, logger)
	var ship *replication.Shipper
	if *replicateTo != "" {
		followers := strings.Split(*replicateTo, ",")
		for i := range followers {
			followers[i] = strings.TrimSpace(followers[i])
		}
		var err error
		ship, err = replication.NewShipper(ctrl, followers, replication.ShipperConfig{
			Logf: func(format string, args ...any) {
				logger.Warn(fmt.Sprintf(format, args...))
			},
		})
		if err != nil {
			fatal("replication setup failed", "error", err)
		}
		ship.RegisterMetrics(reg)
		ctrl.SetHooks(ship.Hooks())
		ship.Start()
		srvHandler.withShipper(ship)
		logger.Info("replicating journal", "followers", strings.Join(followers, ", "))
	}
	if *follow {
		recv := replication.NewReceiver(ctrl)
		recv.RegisterMetrics(reg)
		srvHandler.withReceiver(recv)
		logger.Info("follower mode — writes rejected until POST /v1/promote")
	}

	var ops *http.Server
	if *opsAddr != "" {
		ops = &http.Server{
			Addr:              *opsAddr,
			Handler:           newOpsHandler(reg, ctrl),
			ReadHeaderTimeout: 10 * time.Second,
		}
		go func() {
			logger.Info("ops listener started", "addr", *opsAddr)
			if err := ops.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
				logger.Error("ops listener failed", "error", err)
			}
		}()
	}

	srv := &http.Server{
		Addr:              *addr,
		Handler:           srvHandler,
		ReadHeaderTimeout: 10 * time.Second,
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	errc := make(chan error, 1)
	go func() { errc <- srv.ListenAndServe() }()
	logger.Info("mcschedd listening", "addr", *addr)

	select {
	case err := <-errc:
		fatal("serve failed", "error", err)
	case <-ctx.Done():
		logger.Info("signal received, draining")
	}
	// Graceful shutdown: stop accepting, drain in-flight requests, then
	// flush a final snapshot per tenant so the next boot replays (almost)
	// nothing, and close the journals.
	shutdownCtx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := srv.Shutdown(shutdownCtx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
		logger.Warn("shutdown", "error", err)
	}
	if ops != nil {
		ops.Close()
	}
	if ship != nil {
		// Drain the shipper so followers hold everything this leader
		// committed, then stop it before the journals close.
		flushCtx, cancelFlush := context.WithTimeout(context.Background(), 5*time.Second)
		if err := ship.Flush(flushCtx); err != nil {
			logger.Warn("replication flush", "error", err)
		}
		cancelFlush()
		ship.Stop()
	}
	if *dataDir != "" {
		if err := ctrl.SnapshotAll(); err != nil {
			logger.Warn("final snapshot", "error", err)
		}
		if err := ctrl.Close(); err != nil {
			logger.Warn("close journals", "error", err)
		}
		logger.Info("journals flushed", "data_dir", *dataDir)
	}
}
