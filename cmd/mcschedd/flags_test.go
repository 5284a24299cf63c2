package main

// Deprecated-flag test: the daemon binary, started the way an old start
// script (or cmd/mcload) starts it, must boot, say once that -journal-codec
// is ignored, and journal binary records whatever the flags ask for.

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"os/exec"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"

	"mcsched/internal/journal"
	"mcsched/internal/mcsio"
)

func TestDaemonIgnoresJournalCodecAndDelay(t *testing.T) {
	if _, err := exec.LookPath("go"); err != nil {
		t.Skip("go binary not available")
	}
	bin := filepath.Join(t.TempDir(), "mcschedd")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("build: %v\n%s", err, out)
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := l.Addr().String()
	l.Close()

	dataDir := t.TempDir()
	var logs bytes.Buffer
	cmd := exec.Command(bin, "-addr", addr, "-data-dir", dataDir, "-log-format", "json",
		"-journal-codec", "json", "-group-commit-delay", "200us")
	cmd.Stderr = &logs
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	var waitErr error
	exited := make(chan struct{})
	go func() { waitErr = cmd.Wait(); close(exited) }()
	t.Cleanup(func() {
		cmd.Process.Kill()
		<-exited
	})

	base := "http://" + addr
	for deadline := time.Now().Add(30 * time.Second); ; time.Sleep(20 * time.Millisecond) {
		if resp, err := http.Get(base + "/v1/systems"); err == nil {
			resp.Body.Close()
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("daemon did not start serving")
		}
	}
	if st := call(t, "POST", base+"/v1/systems", `{"id":"t","processors":2,"test":"EDF-VD"}`, nil); st != http.StatusCreated {
		t.Fatalf("create: status %d", st)
	}
	for i := 0; i < 3; i++ {
		if st := call(t, "POST", base+"/v1/systems/t/admit", fmt.Sprintf(`{"task":`+hcTask+`}`, i), nil); st != http.StatusOK {
			t.Fatalf("admit %d: status %d", i, st)
		}
	}

	// Every acknowledged record is on disk; read them before the shutdown
	// snapshot truncates the log.
	tenantDir := filepath.Join(dataDir, journal.EncodeTenantID("t"))
	lg, err := journal.Open(tenantDir, journal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	recs, _, err := lg.ReadFrom(1, 100)
	lg.Close()
	if err != nil || len(recs) != 4 {
		t.Fatalf("journal holds %d records (%v), want 4", len(recs), err)
	}
	for i, r := range recs {
		if !mcsio.IsBinaryRecord(r) {
			t.Fatalf("record %d is not binary: %q", i+1, r)
		}
	}

	cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-exited:
		if waitErr != nil {
			t.Fatalf("daemon exit: %v\n%s", waitErr, logs.String())
		}
	case <-time.After(30 * time.Second):
		t.Fatal("daemon did not stop on SIGTERM")
	}
	lg, err = journal.Open(tenantDir, journal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	snap, _, ok, err := lg.Snapshot()
	lg.Close()
	if err != nil || !ok || !mcsio.IsBinaryRecord(snap) {
		t.Fatalf("shutdown snapshot: ok=%v, binary=%v, %v", ok, mcsio.IsBinaryRecord(snap), err)
	}

	var warns []string
	sc := bufio.NewScanner(&logs)
	for sc.Scan() {
		var line struct{ Level, Msg string }
		if err := json.Unmarshal(sc.Bytes(), &line); err != nil {
			t.Fatalf("log line %q: %v", sc.Text(), err)
		}
		if line.Level == "WARN" {
			warns = append(warns, line.Msg)
		}
	}
	if len(warns) != 1 || !strings.Contains(warns[0], "-journal-codec") {
		t.Fatalf("want exactly one WARN, about -journal-codec; got %q", warns)
	}
}
