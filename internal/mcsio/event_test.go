package mcsio

import (
	"testing"

	"mcsched/internal/core"
	"mcsched/internal/mcs"
)

func wireTask(id int) TaskJSON {
	return TaskJSON{ID: id, Crit: "HI", Period: 10, Deadline: 10, CLo: 2, CHi: 4}
}

func validEvents() []EventJSON {
	return []EventJSON{
		{Version: 1, Seq: 1, Kind: EventCreateSystem, System: "s1", Processors: 4, Test: "EDF-VD"},
		// Seqs stay contiguous because validReplFrames batches this list
		// into one records frame, which demands consecutive stamps.
		{Version: 1, Seq: 2, Kind: EventCreateSystem, System: "s2", Processors: 4, Test: "EDF-VD",
			Placement: "wf-total"},
		{Version: 1, Seq: 3, Kind: EventCreateSystem, System: "s3", Processors: 2, Test: "AMC-rtb",
			Placement: "ff@0.75"},
		{Version: 1, Seq: 4, Kind: EventAdmit, Task: ptr(wireTask(1)), Core: 2},
		{Version: 1, Seq: 5, Kind: EventAdmitBatch,
			Tasks: []TaskJSON{wireTask(2), wireTask(3)}, Cores: []int{0, 1}},
		{Version: 1, Seq: 6, Kind: EventRelease, TaskIDs: []int{1, 3}},
	}
}

func ptr[T any](v T) *T { return &v }

func TestEventRoundTrip(t *testing.T) {
	for _, e := range validEvents() {
		b, err := EncodeEvent(e)
		if err != nil {
			t.Fatalf("encode %+v: %v", e, err)
		}
		got, err := DecodeEvent(b)
		if err != nil {
			t.Fatalf("decode %s: %v", b, err)
		}
		b2, err := EncodeEvent(got)
		if err != nil {
			t.Fatalf("re-encode: %v", err)
		}
		if string(b) != string(b2) {
			t.Fatalf("encoding not canonical:\n%s\n%s", b, b2)
		}
	}
}

func TestEventDecodeFailsClosed(t *testing.T) {
	cases := map[string]string{
		"empty":            ``,
		"not json":         `{{{{`,
		"unknown field":    `{"v":1,"seq":1,"kind":"release","task_ids":[1],"extra":true}`,
		"unknown kind":     `{"v":1,"seq":1,"kind":"mutate"}`,
		"version 0":        `{"seq":1,"kind":"release","task_ids":[1]}`,
		"future version":   `{"v":99,"seq":1,"kind":"release","task_ids":[1]}`,
		"no seq":           `{"v":1,"kind":"release","task_ids":[1]}`,
		"create no test":   `{"v":1,"seq":1,"kind":"create-system","processors":2}`,
		"create no m":      `{"v":1,"seq":1,"kind":"create-system","test":"EDF-VD"}`,
		"admit no task":    `{"v":1,"seq":2,"kind":"admit","core":1}`,
		"admit bad task":   `{"v":1,"seq":2,"kind":"admit","task":{"id":1,"crit":"XX","period":10,"deadline":10,"c_lo":2,"c_hi":4}}`,
		"admit neg core":   `{"v":1,"seq":2,"kind":"admit","task":{"id":1,"crit":"HI","period":10,"deadline":10,"c_lo":2,"c_hi":4},"core":-1}`,
		"batch no cores":   `{"v":1,"seq":2,"kind":"admit-batch","tasks":[{"id":1,"crit":"HI","period":10,"deadline":10,"c_lo":2,"c_hi":4}]}`,
		"batch dup task":   `{"v":1,"seq":2,"kind":"admit-batch","tasks":[{"id":1,"crit":"HI","period":10,"deadline":10,"c_lo":2,"c_hi":4},{"id":1,"crit":"HI","period":10,"deadline":10,"c_lo":2,"c_hi":4}],"cores":[0,0]}`,
		"release empty":    `{"v":1,"seq":3,"kind":"release","task_ids":[]}`,
		"release dup":      `{"v":1,"seq":3,"kind":"release","task_ids":[4,4]}`,
		"mixed kinds":      `{"v":1,"seq":3,"kind":"release","task_ids":[4],"processors":2}`,
		"trailing garbage": `{"v":1,"seq":1,"kind":"release","task_ids":[1]} extra`,
	}
	for name, in := range cases {
		if _, err := DecodeEvent([]byte(in)); err == nil {
			t.Errorf("%s: decoded without error: %s", name, in)
		}
	}
}

func TestSnapshotRoundTrip(t *testing.T) {
	p := core.Partition{Cores: []mcs.TaskSet{
		{mcs.NewHC(1, 2, 4, 10), mcs.NewLC(3, 1, 12)},
		{},
		{mcs.NewLC(2, 3, 9)},
	}}
	s := SnapshotJSON{
		Version:    SnapshotFormatVersion,
		Seq:        17,
		System:     "tenant-a",
		Processors: 3,
		Test:       "AMC-max",
		Partition:  PartitionToJSON(p),
	}
	b, err := EncodeSnapshot(s)
	if err != nil {
		t.Fatal(err)
	}
	got, part, err := DecodeSnapshot(b)
	if err != nil {
		t.Fatal(err)
	}
	if got.Seq != 17 || got.System != "tenant-a" || got.Test != "AMC-max" {
		t.Fatalf("snapshot header mangled: %+v", got)
	}
	if len(part.Cores) != 3 || part.NumTasks() != 3 {
		t.Fatalf("partition mangled: %+v", part)
	}
	if id := part.Cores[0][0].ID; id != 1 {
		t.Fatalf("core 0 order mangled: first task %d", id)
	}
}

// TestSnapshotPlacementCursorRoundTrip: the placement name and the next-fit
// cursor survive both codecs, and the cursor is accepted across its full
// range 0..processors (0 = no commit yet, omitted on the wire).
func TestSnapshotPlacementCursorRoundTrip(t *testing.T) {
	p := core.Partition{Cores: []mcs.TaskSet{{mcs.NewLC(1, 2, 10)}, {}}}
	for _, cursor := range []int{0, 1, 2} {
		s := SnapshotJSON{
			Version:    SnapshotFormatVersion,
			Seq:        3,
			System:     "t",
			Processors: 2,
			Test:       "EDF-VD",
			Placement:  "nf",
			Cursor:     cursor,
			Partition:  PartitionToJSON(p),
		}
		for codec, encode := range map[Codec]func(SnapshotJSON) ([]byte, error){
			CodecJSON: EncodeSnapshot, CodecBinary: EncodeSnapshotBinary,
		} {
			b, err := encode(s)
			if err != nil {
				t.Fatalf("%s cursor %d: %v", codec, cursor, err)
			}
			got, _, err := DecodeSnapshot(b)
			if err != nil {
				t.Fatalf("%s cursor %d: %v", codec, cursor, err)
			}
			if got.Placement != "nf" || got.Cursor != cursor {
				t.Fatalf("%s: round-tripped placement %q cursor %d, want nf %d",
					codec, got.Placement, got.Cursor, cursor)
			}
		}
	}
}

func TestSnapshotDecodeFailsClosed(t *testing.T) {
	cases := map[string]string{
		"version":             `{"v":9,"seq":1,"system":"a","processors":1,"test":"EDF-VD","partition":{"version":1,"cores":[[]]}}`,
		"no system":           `{"v":1,"seq":1,"processors":1,"test":"EDF-VD","partition":{"version":1,"cores":[[]]}}`,
		"core mismatch":       `{"v":1,"seq":1,"system":"a","processors":2,"test":"EDF-VD","partition":{"version":1,"cores":[[]]}}`,
		"unknown task":        `{"v":1,"seq":1,"system":"a","processors":1,"test":"EDF-VD","partition":{"version":1,"cores":[[7]]}}`,
		"unknown fields":      `{"v":1,"seq":1,"system":"a","processors":1,"test":"EDF-VD","partition":{"version":1,"cores":[[]]},"x":1}`,
		"unknown placement":   `{"v":1,"seq":1,"system":"a","processors":1,"test":"EDF-VD","partition":{"version":1,"cores":[[]]},"placement":"nosuch"}`,
		"cursor no place":     `{"v":1,"seq":1,"system":"a","processors":1,"test":"EDF-VD","partition":{"version":1,"cores":[[]]},"cursor":1}`,
		"cursor out of range": `{"v":1,"seq":1,"system":"a","processors":1,"test":"EDF-VD","partition":{"version":1,"cores":[[]]},"placement":"nf","cursor":2}`,
	}
	for name, in := range cases {
		if _, _, err := DecodeSnapshot([]byte(in)); err == nil {
			t.Errorf("%s: decoded without error", name)
		}
	}
}

func TestEventEncodeRejectsInvalid(t *testing.T) {
	bad := []EventJSON{
		{Version: 1, Seq: 0, Kind: EventRelease, TaskIDs: []int{1}},
		{Version: 1, Seq: 1, Kind: "nope"},
		{Version: 1, Seq: 1, Kind: EventAdmit, Core: 1},
	}
	for _, e := range bad {
		if _, err := EncodeEvent(e); err == nil {
			t.Errorf("encoded invalid event %+v", e)
		}
	}
}

func TestEventTaskPrecision(t *testing.T) {
	// Utilizations must survive the journal bit-exactly: placement order
	// and aggregates are float sums of them.
	task := mcs.NewHC(9, 3, 7, 13)
	task.ULo = 3.0/13.0 + 1e-16
	j := TaskToJSON(task)
	e := EventJSON{Version: 1, Seq: 2, Kind: EventAdmit, Task: &j, Core: 0}
	b, err := EncodeEvent(e)
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodeEvent(b)
	if err != nil {
		t.Fatal(err)
	}
	back, err := TaskFromJSON(*got.Task)
	if err != nil {
		t.Fatal(err)
	}
	if back.ULo != task.ULo || back.UHi != task.UHi {
		t.Fatalf("utilization drifted through the journal: %v vs %v", back.ULo, task.ULo)
	}
}
