package sim

import (
	"fmt"
	"sort"
	"strings"

	"mcsched/internal/mcs"
)

// EventKind classifies trace events emitted by the engine.
type EventKind int

const (
	// EvRelease is a job arrival (suppressed LC arrivals in HI mode emit
	// EvDrop instead).
	EvRelease EventKind = iota
	// EvExec is an execution chunk of Dur ticks starting at Time.
	EvExec
	// EvComplete is a job completion.
	EvComplete
	// EvPreempt marks a running job being displaced by a higher-priority one.
	EvPreempt
	// EvSwitch is the core's LO→HI mode switch.
	EvSwitch
	// EvReset is the HI→LO recovery at an idle instant.
	EvReset
	// EvDrop is an LC job discarded (pending at a switch, or released in HI
	// mode).
	EvDrop
	// EvMiss is a required deadline miss.
	EvMiss
)

var eventKindNames = [...]string{
	EvRelease:  "release",
	EvExec:     "exec",
	EvComplete: "complete",
	EvPreempt:  "preempt",
	EvSwitch:   "switch",
	EvReset:    "reset",
	EvDrop:     "drop",
	EvMiss:     "miss",
}

// String names the event kind.
func (k EventKind) String() string {
	if k >= 0 && int(k) < len(eventKindNames) {
		return eventKindNames[k]
	}
	return fmt.Sprintf("EventKind(%d)", int(k))
}

// MarshalText encodes the kind as its String name and refuses any other
// value.
func (k EventKind) MarshalText() ([]byte, error) {
	if k >= 0 && int(k) < len(eventKindNames) {
		return []byte(eventKindNames[k]), nil
	}
	return nil, fmt.Errorf("sim: unknown event kind %d", int(k))
}

// UnmarshalText decodes a String name and refuses any other.
func (k *EventKind) UnmarshalText(b []byte) error {
	for i, name := range eventKindNames {
		if string(b) == name {
			*k = EventKind(i)
			return nil
		}
	}
	return fmt.Errorf("sim: unknown event kind %q", b)
}

// Event is one engine occurrence. TaskID and Job are -1 for core-level
// events (switch, reset).
type Event struct {
	Time mcs.Ticks `json:"time"`
	Kind EventKind `json:"kind"`
	// TaskID is the task concerned; -1 for core events.
	TaskID int `json:"task"`
	// Job is the per-task job index (0-based); -1 for core events.
	Job int `json:"job"`
	// Dur is the chunk length for EvExec events, 0 otherwise.
	Dur mcs.Ticks `json:"dur,omitempty"`
}

// String formats the event compactly.
func (e Event) String() string {
	switch e.Kind {
	case EvSwitch, EvReset:
		return fmt.Sprintf("t=%d %s", e.Time, e.Kind)
	case EvExec:
		return fmt.Sprintf("t=%d exec τ%d#%d +%d", e.Time, e.TaskID, e.Job, e.Dur)
	default:
		return fmt.Sprintf("t=%d %s τ%d#%d", e.Time, e.Kind, e.TaskID, e.Job)
	}
}

// Tracer receives engine events. Implementations must be cheap; the engine
// calls Record inline.
type Tracer interface {
	Record(Event)
}

// Recorder is the standard Tracer: it appends events, optionally keeping
// only the most recent Cap entries (0 = unbounded).
type Recorder struct {
	// Cap bounds the retained events; 0 keeps everything.
	Cap int
	// Events are the recorded events in emission order.
	Events []Event
}

// Record implements Tracer.
func (r *Recorder) Record(e Event) {
	r.Events = append(r.Events, e)
	if r.Cap > 0 && len(r.Events) > r.Cap {
		r.Events = r.Events[len(r.Events)-r.Cap:]
	}
}

// ExecTotal sums the exec durations per task ID.
func (r *Recorder) ExecTotal() map[int]mcs.Ticks {
	out := make(map[int]mcs.Ticks)
	for _, e := range r.Events {
		if e.Kind == EvExec {
			out[e.TaskID] += e.Dur
		}
	}
	return out
}

// Gantt renders the recorded window [from, to) as an ASCII timeline, one
// row per task plus a mode row. Each column is one tick when the window is
// narrow enough, otherwise ⌈width/(to−from)⌉ ticks share a column (a column
// shows '#' if the task executed at all inside it). Releases are marked 'r'
// on otherwise idle columns, misses '!', the mode row shows 'H' spans.
func (r *Recorder) Gantt(ts mcs.TaskSet, from, to mcs.Ticks, width int) string {
	if to <= from || width < 8 {
		return ""
	}
	span := to - from
	if mcs.Ticks(width) > span {
		width = int(span)
	}
	perCol := (span + mcs.Ticks(width) - 1) / mcs.Ticks(width)
	cols := int((span + perCol - 1) / perCol)
	colOf := func(t mcs.Ticks) int { return int((t - from) / perCol) }

	ids := make([]int, 0, len(ts))
	rows := make(map[int][]byte)
	for _, task := range ts {
		ids = append(ids, task.ID)
		rows[task.ID] = []byte(strings.Repeat(".", cols))
	}
	sort.Ints(ids)
	mode := []byte(strings.Repeat("L", cols))

	mark := func(row []byte, c int, ch byte) {
		if c >= 0 && c < len(row) {
			row[c] = ch
		}
	}
	var switches []mcs.Ticks
	var resets []mcs.Ticks
	for _, e := range r.Events {
		switch e.Kind {
		case EvSwitch:
			switches = append(switches, e.Time)
		case EvReset:
			resets = append(resets, e.Time)
		}
	}
	// Paint the mode row: HI from each switch to the next reset.
	ri := 0
	for _, s := range switches {
		end := to
		for ri < len(resets) && resets[ri] <= s {
			ri++
		}
		if ri < len(resets) {
			end = resets[ri]
		}
		for t := maxTicks(s, from); t < minTicks(end, to); t += perCol {
			mark(mode, colOf(t), 'H')
		}
	}

	for _, e := range r.Events {
		if e.TaskID < 0 || e.Time < from || e.Time >= to {
			continue
		}
		row, ok := rows[e.TaskID]
		if !ok {
			continue
		}
		switch e.Kind {
		case EvExec:
			for t := e.Time; t < e.Time+e.Dur && t < to; t += perCol {
				mark(row, colOf(t), '#')
			}
		case EvRelease:
			c := colOf(e.Time)
			if c >= 0 && c < len(row) && row[c] == '.' {
				row[c] = 'r'
			}
		case EvMiss:
			mark(row, colOf(e.Time), '!')
		case EvDrop:
			c := colOf(e.Time)
			if c >= 0 && c < len(row) && row[c] == '.' {
				row[c] = 'x'
			}
		}
	}

	var b strings.Builder
	fmt.Fprintf(&b, "gantt [%d, %d) — %d tick(s)/column\n", from, to, perCol)
	fmt.Fprintf(&b, "%6s |%s|\n", "mode", mode)
	for _, id := range ids {
		fmt.Fprintf(&b, "%6s |%s|\n", fmt.Sprintf("τ%d", id), rows[id])
	}
	b.WriteString("        # exec   r release   x dropped   ! miss   H = HI mode\n")
	return b.String()
}

func maxTicks(a, b mcs.Ticks) mcs.Ticks {
	if a > b {
		return a
	}
	return b
}

func minTicks(a, b mcs.Ticks) mcs.Ticks {
	if a < b {
		return a
	}
	return b
}
