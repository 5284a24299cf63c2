package main

import (
	"fmt"
	"log/slog"
	"net/http"
	"os"
	"strconv"
	"strings"
	"testing"

	"mcsched/internal/admission"
	"mcsched/internal/obs"
)

// benchWriter is a ResponseWriter that keeps only the status, so a
// benchmark op is the handler stack and nothing of a recorder.
type benchWriter struct {
	h      http.Header
	status int
}

func (w *benchWriter) Header() http.Header         { return w.h }
func (w *benchWriter) Write(b []byte) (int, error) { return len(b), nil }
func (w *benchWriter) WriteHeader(status int)      { w.status = status }

// benchBody is a reusable request body.
type benchBody struct{ strings.Reader }

func (*benchBody) Close() error { return nil }

// benchCycle is how many tasks the admit and release cases move before
// the timer stops to undo (or redo) them, keeping the tenant's load fixed;
// benchResident tasks stay admitted throughout, enough to take the GET
// body past net/http's 2 KiB chunking threshold.
const (
	benchCycle    = 256
	benchResident = 32
)

// lcTask renders one LO task of utilization 0.01.
func lcTask(id int) string {
	return fmt.Sprintf(`{"id":%d,"crit":"LO","period":100,"deadline":100,"c_lo":1}`, id)
}

// idList renders ids first..first+n-1 as a JSON list, each through render.
func idList(first, n int, render func(int) string) string {
	items := make([]string, n)
	for i := range items {
		items[i] = render(first + i)
	}
	return "[" + strings.Join(items, ",") + "]"
}

// BenchmarkServe times one request through the daemon's whole handler
// stack as main builds it (obs middleware, mux, handler, reply) on an
// 8-core EDF-VD tenant holding benchResident LC tasks. The logger writes text
// lines to an os.DevNull file, so a logged request pays its write(2).
func BenchmarkServe(b *testing.B) {
	devNull, err := os.OpenFile(os.DevNull, os.O_WRONLY, 0)
	if err != nil {
		b.Fatal(err)
	}
	defer devNull.Close()
	ctrl := admission.NewController(admission.DefaultConfig())
	reg := obs.NewRegistry()
	ctrl.EnableMetrics(reg)
	h := newServer(ctrl).instrument(reg, slog.New(slog.NewTextHandler(devNull, nil)))

	// One request per route, reused with a fresh body each op: the
	// middleware serves a copy, so only Body changes between ops.
	reqs := map[string]*http.Request{}
	w := &benchWriter{h: http.Header{}}
	var body benchBody
	serve := func(method, path, payload string) int {
		req := reqs[method+path]
		if req == nil {
			req, _ = http.NewRequest(method, path, nil)
			reqs[method+path] = req
		}
		body.Reset(payload)
		req.Body = &body
		clear(w.h)
		w.status = http.StatusOK
		h.ServeHTTP(w, req)
		return w.status
	}
	must := func(b *testing.B, method, path, payload string) {
		if st := serve(method, path, payload); st != http.StatusOK && st != http.StatusCreated {
			b.Fatalf("%s %s: %d", method, path, st)
		}
	}
	must(b, "POST", "/v1/systems", `{"id":"t","processors":8,"test":"EDF-VD"}`)
	must(b, "POST", "/v1/systems/t/admit", `{"tasks":`+idList(1, benchResident, lcTask)+`}`)

	// The moving tasks take the ids after the resident ones.
	const first = benchResident + 1
	admits := make([]string, benchCycle)
	releases := make([]string, benchCycle)
	for i := range admits {
		admits[i] = `{"task":` + lcTask(first+i) + `}`
		releases[i] = fmt.Sprintf(`{"task_id":%d}`, first+i)
	}
	// admitAll and releaseAll move tasks lo..lo+n-1 in one request.
	admitAll := func(b *testing.B, lo, n int) {
		must(b, "POST", "/v1/systems/t/admit", `{"tasks":`+idList(lo, n, lcTask)+`}`)
	}
	releaseAll := func(b *testing.B, lo, n int) {
		if n > 0 {
			must(b, "POST", "/v1/systems/t/release", `{"task_ids":`+idList(lo, n, strconv.Itoa)+`}`)
		}
	}

	// run serves payload(i) on path b.N times; every benchCycle ops it
	// stops the timer and calls restore to bring the tenant back.
	run := func(b *testing.B, method, path string, payload func(i int) string, restore func()) {
		b.ReportAllocs()
		for i := range b.N {
			if st := serve(method, path, payload(i%benchCycle)); st != http.StatusOK {
				b.Fatalf("%s %s: %d", method, path, st)
			}
			if restore != nil && i%benchCycle == benchCycle-1 {
				b.StopTimer()
				restore()
				b.StartTimer()
			}
		}
		b.StopTimer()
	}
	b.Run("admit", func(b *testing.B) {
		run(b, "POST", "/v1/systems/t/admit", func(i int) string { return admits[i] },
			func() { releaseAll(b, first, benchCycle) })
		releaseAll(b, first, b.N%benchCycle)
	})
	b.Run("release", func(b *testing.B) {
		admitAll(b, first, benchCycle)
		b.ResetTimer()
		run(b, "POST", "/v1/systems/t/release", func(i int) string { return releases[i] },
			func() { admitAll(b, first, benchCycle) })
		done := b.N % benchCycle
		releaseAll(b, first+done, benchCycle-done)
	})
	b.Run("probe", func(b *testing.B) {
		run(b, "POST", "/v1/systems/t/probe", func(i int) string { return admits[i] }, nil)
	})
	b.Run("get", func(b *testing.B) {
		run(b, "GET", "/v1/systems/t", func(int) string { return "" }, nil)
	})
}
