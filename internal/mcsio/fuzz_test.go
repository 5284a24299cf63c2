package mcsio

// Fuzz harnesses for the wire decoders. Under plain `go test` they run
// their seed corpus as regression tests; under `go test -fuzz` they
// explore mutations. The property is uniform: arbitrary bytes must never
// panic a decoder, and anything a decoder accepts must re-encode to a
// canonical form that decodes to the same thing — corrupt journal records
// and malformed daemon request bodies fail closed, they do not crash the
// process or smuggle half-valid state past validation.

import (
	"bytes"
	"reflect"
	"testing"

	"mcsched/internal/mcs"
)

func FuzzDecodeEvent(f *testing.F) {
	for _, e := range validEvents() {
		b, err := EncodeEvent(e)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b)
	}
	// Adversarial seeds: truncations, version skew, wrong shapes, torn
	// JSON — the forms a corrupt journal record actually takes.
	f.Add([]byte(``))
	f.Add([]byte(`{}`))
	f.Add([]byte(`{"v":1,"seq":18446744073709551615,"kind":"release","task_ids":[1]}`))
	f.Add([]byte(`{"v":2,"seq":1,"kind":"admit"}`))
	f.Add([]byte(`{"v":1,"seq":1,"kind":"create-system","processors":-4,"test":"EDF-VD"}`))
	f.Add([]byte(`{"v":1,"seq":1,"kind":"admit","task":{"id":1,"crit":"HI","period":0,"deadline":0,"c_lo":0,"c_hi":0},"core":0}`))
	f.Add([]byte(`{"v":1,"seq":3,"kind":"admit-batch","tasks":[{"id":1,"crit":"LO","period":10,"deadline":10,"c_lo":2,"c_hi":2}],"cores":[0],"task_ids":[9]}`))
	f.Add([]byte(`{"v":1,"seq":1,"kind":"release","task_ids":[1,2,3`))
	// Placement-bearing create-system forms: an unregistered heuristic, a
	// placement smuggled onto a non-create kind, and a malformed cap.
	f.Add([]byte(`{"v":1,"seq":1,"kind":"create-system","system":"s1","processors":4,"test":"EDF-VD","placement":"no-such-packer"}`))
	f.Add([]byte(`{"v":1,"seq":4,"kind":"release","task_ids":[1],"placement":"ff"}`))
	f.Add([]byte(`{"v":1,"seq":1,"kind":"create-system","system":"s1","processors":4,"test":"EDF-VD","placement":"ff@2.5"}`))

	f.Fuzz(func(t *testing.T, b []byte) {
		e, err := DecodeEvent(b)
		if err != nil {
			return // rejected is fine; panicking is not
		}
		// Accepted events must reach a canonical fixpoint.
		b2, err := EncodeEvent(e)
		if err != nil {
			t.Fatalf("decoded event does not re-encode: %+v: %v", e, err)
		}
		e2, err := DecodeEvent(b2)
		if err != nil {
			t.Fatalf("canonical encoding does not decode: %s: %v", b2, err)
		}
		b3, err := EncodeEvent(e2)
		if err != nil {
			t.Fatalf("canonical re-encode failed: %v", err)
		}
		if !bytes.Equal(b2, b3) {
			t.Fatalf("encoding not canonical:\n%s\n%s", b2, b3)
		}
	})
}

func FuzzDecodeSnapshot(f *testing.F) {
	for _, seed := range [][]byte{
		[]byte(`{"v":1,"seq":1,"system":"a","processors":1,"test":"EDF-VD","partition":{"version":1,"cores":[[]]}}`),
		[]byte(`{"v":1,"seq":3,"system":"s1","processors":2,"test":"AMC-max","partition":{"version":1,"cores":[[1],[]],"tasks":[{"id":1,"crit":"HI","period":10,"deadline":10,"c_lo":2,"c_hi":4}]}}`),
		[]byte(`{"v":1,"seq":1,"system":"a","processors":1,"test":"EDF-VD","partition":{"version":1,"cores":[[1,1]],"tasks":[{"id":1,"crit":"LO","period":10,"deadline":10,"c_lo":2,"c_hi":2}]}}`),
		[]byte(`{"v":1,"seq":2,"system":"a","processors":1,"test":"EDF-VD","partition":{"version":1,"cores":[[]]},"placement":"prm-ll"}`),
		[]byte(`{"v":1,"seq":2,"system":"a","processors":1,"test":"EDF-VD","partition":{"version":1,"cores":[[]]},"placement":"bogus"}`),
		[]byte(`{"v":1,"seq":2,"system":"a","processors":2,"test":"EDF-VD","partition":{"version":1,"cores":[[],[]]},"placement":"nf","cursor":2}`),
		[]byte(`{"v":1,"seq":2,"system":"a","processors":1,"test":"EDF-VD","partition":{"version":1,"cores":[[]]},"cursor":1}`),
		[]byte(`{"v":1`),
		[]byte(`null`),
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		s, p, err := DecodeSnapshot(b)
		if err != nil {
			return
		}
		if len(p.Cores) != s.Processors {
			t.Fatalf("accepted snapshot with %d cores for %d processors", len(p.Cores), s.Processors)
		}
		b2, err := EncodeSnapshot(s)
		if err != nil {
			t.Fatalf("decoded snapshot does not re-encode: %v", err)
		}
		if _, _, err := DecodeSnapshot(b2); err != nil {
			t.Fatalf("canonical snapshot does not decode: %v", err)
		}
	})
}

// FuzzDecodeReplFrame feeds the frame decoder the JSON frames leaders sent
// before frames went binary-only — valid ones, and the torn, reordered,
// gapped and smuggling forms — and their mutations. None may decode.
func FuzzDecodeReplFrame(f *testing.F) {
	for _, fr := range validReplFrames(f) {
		f.Add(legacyJSONFrame(f, fr))
	}
	f.Add([]byte(``))
	f.Add([]byte(`{}`))
	f.Add([]byte(`{"v":1,"kind":"records","tenant":"s1","first":2,"records":[{"v":1,"seq":1,"kind":"release","task_ids":[1]}]}`))
	f.Add([]byte(`{"v":1,"kind":"records","tenant":"s1","first":1,"records":[{"v":1,"seq":2,"kind":"release","task_ids":[1]},{"v":1,"seq":1,"kind":"release","task_ids":[2]}]}`))
	f.Add([]byte(`{"v":1,"kind":"snapshot","tenant":"s1","seq":3,"snapshot":{"v":1,"seq":4,"system":"s1","processors":1,"test":"EDF-VD","partition":{"version":1,"cores":[[]]}}}`))
	f.Add([]byte(`{"v":1,"kind":"remove","tenant":"s1","seq":9}`))
	f.Add([]byte(`{"v":2,"kind":"remove","tenant":"s1"}`))
	f.Add([]byte(`{"v":1,"kind":"records","tenant":"s1","first":1,"records":[`))

	f.Fuzz(checkReplFrame)
}

// checkReplFrame is the frame decoder's fuzz property: arbitrary bytes
// never panic it, nothing but a binary frame decodes, and an accepted
// frame re-encodes to a canonical fixpoint carrying the same payloads byte
// for byte. The payloads are not decoded: the follower's apply path owns
// that check.
func checkReplFrame(t *testing.T, b []byte) {
	fr, err := DecodeReplFrame(b)
	if err != nil {
		return // rejected is fine; panicking is not
	}
	if !IsBinaryRecord(b) {
		t.Fatalf("accepted a frame that is not binary: %q", b)
	}
	b2, err := EncodeReplFrameBinary(fr)
	if err != nil {
		t.Fatalf("decoded frame does not re-encode: %+v: %v", fr, err)
	}
	fr2, err := DecodeReplFrame(b2)
	if err != nil {
		t.Fatalf("canonical frame does not decode: %v", err)
	}
	if !reflect.DeepEqual(fr, fr2) {
		t.Fatalf("frame changed through a re-encode:\n%+v\n%+v", fr, fr2)
	}
	b3, err := EncodeReplFrameBinary(fr2)
	if err != nil {
		t.Fatalf("canonical re-encode failed: %v", err)
	}
	if !bytes.Equal(b2, b3) {
		t.Fatalf("frame encoding not canonical")
	}
}

func FuzzDecodeReplAck(f *testing.F) {
	f.Add([]byte(`{"v":1,"tenant":"s1","next":7}`))
	f.Add([]byte(`{"v":1,"tenant":"s1","next":0}`))
	f.Add([]byte(`{"v":1,"tenant":"s1","next":18446744073709551615}`))
	f.Add([]byte(`{"v":1,"role":"follower","tenants":{"a":1}}`))
	f.Add([]byte(``))
	f.Fuzz(func(t *testing.T, b []byte) {
		if a, err := DecodeReplAck(b); err == nil {
			if a.Next == 0 || a.Tenant == "" {
				t.Fatalf("accepted invalid ack: %+v", a)
			}
		}
		if s, err := DecodeReplStatus(b); err == nil {
			for id, next := range s.Tenants {
				if id == "" || next == 0 {
					t.Fatalf("accepted invalid status: %+v", s)
				}
			}
		}
	})
}

func FuzzDecodeSimScenario(f *testing.F) {
	for _, scn := range validSimScenarios() {
		b, err := EncodeSimScenario(scn)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b)
	}
	// Adversarial seeds: the forms a malformed simulate request body
	// actually takes — version skew, kind-foreign fields, runaway horizon,
	// torn JSON.
	f.Add([]byte(``))
	f.Add([]byte(`{}`))
	f.Add([]byte(`{"v":2,"horizon":10,"scenario":"lo-steady"}`))
	f.Add([]byte(`{"v":1,"horizon":9007199254740993,"scenario":"lo-steady"}`))
	f.Add([]byte(`{"v":1,"horizon":10,"scenario":"lo-steady","seed":7}`))
	f.Add([]byte(`{"v":1,"horizon":10,"scenario":"random","overrun_prob":1e308}`))
	f.Add([]byte(`{"v":1,"horizon":10,"scenario":"single-overrun","overrun_task":-1}`))
	f.Add([]byte(`{"v":1,"horizon":10,"scenario":"minimal-overrun"`))

	f.Fuzz(func(t *testing.T, b []byte) {
		scn, err := DecodeSimScenario(b)
		if err != nil {
			return // rejected is fine; panicking is not
		}
		// Anything the decoder accepts embeds a valid spec.
		if err := scn.Validate(); err != nil {
			t.Fatalf("accepted scenario has invalid spec: %s: %v", b, err)
		}
		// Accepted scenarios must reach a canonical fixpoint, spec included.
		b2, err := EncodeSimScenario(scn)
		if err != nil {
			t.Fatalf("decoded scenario does not re-encode: %+v: %v", scn, err)
		}
		scn2, err := DecodeSimScenario(b2)
		if err != nil {
			t.Fatalf("canonical scenario does not decode: %s: %v", b2, err)
		}
		if scn2.Spec != scn.Spec {
			t.Fatalf("spec changed across a round trip: %+v vs %+v", scn.Spec, scn2.Spec)
		}
		b3, err := EncodeSimScenario(scn2)
		if err != nil {
			t.Fatalf("canonical re-encode failed: %v", err)
		}
		if !bytes.Equal(b2, b3) {
			t.Fatalf("scenario encoding not canonical:\n%s\n%s", b2, b3)
		}
	})
}

func FuzzReadTaskSet(f *testing.F) {
	var buf bytes.Buffer
	ts := mcs.TaskSet{mcs.NewHC(1, 2, 4, 10), mcs.NewLC(2, 3, 12)}
	if err := WriteTaskSet(&buf, ts); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.Bytes())
	f.Add([]byte(`{"version":1,"tasks":[]}`))
	f.Add([]byte(`{"version":99,"tasks":[]}`))
	f.Add([]byte(`{"version":1,"tasks":[{"id":1,"crit":"HI","period":10,"deadline":20,"c_lo":2,"c_hi":4}]}`))
	f.Add([]byte(`{"version":1,"tasks":[{"id":1,"crit":"HI","period":10,"deadline":10,"c_lo":2,"c_hi":4,"u_lo":0.9}]}`))
	f.Add([]byte(`[1,2,3]`))
	f.Fuzz(func(t *testing.T, b []byte) {
		ts, err := ReadTaskSet(bytes.NewReader(b))
		if err != nil {
			return
		}
		// Accepted task sets survive a write/read round trip.
		var out bytes.Buffer
		if err := WriteTaskSet(&out, ts); err != nil {
			t.Fatalf("accepted task set does not re-encode: %v", err)
		}
		if _, err := ReadTaskSet(bytes.NewReader(out.Bytes())); err != nil {
			t.Fatalf("round trip rejected: %v", err)
		}
	})
}
