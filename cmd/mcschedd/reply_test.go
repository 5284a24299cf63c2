package main

import (
	"bytes"
	"encoding/json"
	"io"
	"log/slog"
	"math"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"

	"mcsched"
	"mcsched/internal/admission"
	"mcsched/internal/mcs"
)

// populatedTenant creates an 8-core EDF-VD tenant "t" holding a mix of HC
// and LC tasks, enough that its GET body is well past net/http's 2 KiB
// chunking threshold, and returns the server and the last decisions made.
func populatedTenant(t *testing.T) (*server, admission.AdmitResult, admission.BatchResult) {
	t.Helper()
	test, _ := mcsched.TestByName("EDF-VD")
	ctrl := admission.NewController(admission.DefaultConfig())
	sys, err := ctrl.CreateSystem("t", 8, test)
	if err != nil {
		t.Fatal(err)
	}
	var res admission.AdmitResult
	for id := 1; id <= 48; id++ {
		task := mcs.NewLC(id, 3, 97)
		if id%3 == 0 {
			task = mcs.NewHC(id, 2, 7, 89)
		}
		if res, err = sys.Admit(task); err != nil || !res.Admitted {
			t.Fatalf("admit %d: %+v %v", id, res, err)
		}
	}
	batch, err := sys.ProbeBatch(mcs.TaskSet{mcs.NewHC(101, 1, 3, 50), mcs.NewLC(102, 2, 60)})
	if err != nil {
		t.Fatal(err)
	}
	return newServer(ctrl), res, batch
}

// TestReplyMatchesEncoder pins reply's bytes to what json.Encoder wrote
// before replies were buffered, and its Content-Length to those bytes.
func TestReplyMatchesEncoder(t *testing.T) {
	s, admit, batch := populatedTenant(t)
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, httptest.NewRequest("GET", "/v1/systems/t", nil))
	var sys systemResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &sys); err != nil || rec.Code != http.StatusOK {
		t.Fatalf("GET: %d %v", rec.Code, err)
	}
	req := httptest.NewRequest("GET", "/", nil)
	for name, v := range map[string]any{
		"AdmitResult":     admit,
		"BatchResult":     batch,
		"releaseResponse": releaseResponse{Released: 3},
		"systemResponse":  sys,
	} {
		var want bytes.Buffer
		json.NewEncoder(&want).Encode(v)
		rec := httptest.NewRecorder()
		s.reply(rec, req, http.StatusOK, v)
		if rec.Code != http.StatusOK || !bytes.Equal(rec.Body.Bytes(), want.Bytes()) {
			t.Errorf("%s: status %d, body\n%s\nwant\n%s", name, rec.Code, rec.Body.Bytes(), want.Bytes())
		}
		if got := rec.Header().Get("Content-Length"); got != strconv.Itoa(want.Len()) {
			t.Errorf("%s: Content-Length %q for %d bytes", name, got, want.Len())
		}
		if got := rec.Header().Get("Content-Type"); got != "application/json" {
			t.Errorf("%s: Content-Type %q", name, got)
		}
	}
}

// TestReplyLargeBodyNotChunked checks a reply past net/http's 2 KiB
// buffer reaches the client with its length instead of chunked.
func TestReplyLargeBodyNotChunked(t *testing.T) {
	s, _, _ := populatedTenant(t)
	ts := httptest.NewServer(s)
	defer ts.Close()
	resp, err := http.Get(ts.URL + "/v1/systems/t")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	if len(body) <= 2048 {
		t.Fatalf("body is %d bytes; the tenant is too small to test chunking", len(body))
	}
	if resp.ContentLength != int64(len(body)) || len(resp.TransferEncoding) != 0 {
		t.Errorf("Content-Length %d, Transfer-Encoding %v for a %d-byte body",
			resp.ContentLength, resp.TransferEncoding, len(body))
	}
}

// TestReplyEncodeFailureIs500 checks a value encoding/json refuses (a NaN)
// is answered 500 with a decodable error body and one Error line, not 200
// with whatever the encoder wrote before it failed.
func TestReplyEncodeFailureIs500(t *testing.T) {
	var logBuf bytes.Buffer
	s := newServer(admission.NewController(admission.DefaultConfig()))
	s.log = slog.New(slog.NewJSONHandler(&logBuf, nil))

	rec := httptest.NewRecorder()
	s.reply(rec, httptest.NewRequest("GET", "/v1/systems/t", nil), http.StatusOK, coreStatus{ULL: math.NaN()})
	if rec.Code != http.StatusInternalServerError {
		t.Fatalf("status %d, want 500; body %q", rec.Code, rec.Body.String())
	}
	var e errorResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &e); err != nil || !strings.Contains(e.Error, "encode response") {
		t.Errorf("error body %q: %v", rec.Body.String(), err)
	}
	if got := rec.Header().Get("Content-Length"); got != strconv.Itoa(rec.Body.Len()) {
		t.Errorf("Content-Length %q for %d bytes", got, rec.Body.Len())
	}
	lines := strings.Split(strings.TrimSpace(logBuf.String()), "\n")
	var line map[string]any
	if len(lines) != 1 || json.Unmarshal([]byte(lines[0]), &line) != nil ||
		line["level"] != "ERROR" || line["status"] != float64(http.StatusInternalServerError) {
		t.Errorf("want one ERROR line with status 500, got:\n%s", logBuf.String())
	}
}
