package obs

import (
	"encoding/json"
	"fmt"
	"io"
)

// Chrome trace-event export: ChromeTrace accumulates events in the Trace
// Event Format (the JSON format Perfetto and chrome://tracing load) and
// writes them as a {"traceEvents": [...]} document. The netsim exporter and
// the snapshot span exporter both target this writer, so simulator access
// traces and solver spans can share one file and one timeline.
//
// Events carry virtual or wall-clock microseconds in ts/dur; Perfetto does
// not care which, it only renders the relative timeline.

// ChromeTraceEvent is one event in the Chrome trace-event format. Ph "X" is
// a complete span, "C" a counter sample, "M" metadata (process/thread
// names); see the Trace Event Format spec for the full vocabulary.
type ChromeTraceEvent struct {
	Name string  `json:"name,omitempty"`
	Cat  string  `json:"cat,omitempty"`
	Ph   string  `json:"ph"`
	TS   float64 `json:"ts"`
	Dur  float64 `json:"dur,omitempty"`
	PID  int     `json:"pid"`
	TID  int     `json:"tid"`
	Args any     `json:"args,omitempty"`
}

// ChromeTrace accumulates trace events for one output file. The zero value
// is ready to use. It is not safe for concurrent use; build it from one
// goroutine after the traced work completes.
type ChromeTrace struct {
	events []ChromeTraceEvent
}

// AddSpan appends a complete ("X") span event.
func (t *ChromeTrace) AddSpan(name, cat string, pid, tid int, ts, dur float64, args any) {
	t.events = append(t.events, ChromeTraceEvent{
		Name: name, Cat: cat, Ph: "X", TS: ts, Dur: dur, PID: pid, TID: tid, Args: args,
	})
}

// AddCounter appends a counter ("C") sample; args maps series names to
// values and should have a deterministic encoding (a struct or a
// json.RawMessage with ordered keys) when byte-stable output matters.
func (t *ChromeTrace) AddCounter(name string, pid int, ts float64, args any) {
	t.events = append(t.events, ChromeTraceEvent{
		Name: name, Ph: "C", TS: ts, PID: pid, Args: args,
	})
}

// nameArgs is the metadata payload for process/thread naming.
type nameArgs struct {
	Name string `json:"name"`
}

// NameProcess attaches a display name to a pid.
func (t *ChromeTrace) NameProcess(pid int, name string) {
	t.events = append(t.events, ChromeTraceEvent{
		Name: "process_name", Ph: "M", PID: pid, Args: nameArgs{Name: name},
	})
}

// NameThread attaches a display name to a (pid, tid) track.
func (t *ChromeTrace) NameThread(pid, tid int, name string) {
	t.events = append(t.events, ChromeTraceEvent{
		Name: "thread_name", Ph: "M", PID: pid, TID: tid, Args: nameArgs{Name: name},
	})
}

// Len returns the number of accumulated events.
func (t *ChromeTrace) Len() int { return len(t.events) }

// Write emits the accumulated events as a Chrome trace-event JSON document,
// one event per line so goldens and diffs stay readable. Output is
// byte-deterministic for deterministic event sequences.
func (t *ChromeTrace) Write(w io.Writer) error {
	if _, err := io.WriteString(w, "{\"displayTimeUnit\": \"ms\",\n \"traceEvents\": [\n"); err != nil {
		return err
	}
	for i, e := range t.events {
		b, err := json.Marshal(e)
		if err != nil {
			return err
		}
		sep := ",\n"
		if i == len(t.events)-1 {
			sep = "\n"
		}
		if _, err := fmt.Fprintf(w, "  %s%s", b, sep); err != nil {
			return err
		}
	}
	_, err := io.WriteString(w, "]}\n")
	return err
}

// AppendChromeTrace adds the snapshot's spans to an existing ChromeTrace
// under the given pid, so solver spans can share a file with other tracks
// (e.g. netsim access traces).
func (s *Snapshot) AppendChromeTrace(t *ChromeTrace, pid int) {
	t.NameProcess(pid, "solver")
	t.NameThread(pid, 0, "spans")
	for _, r := range s.Spans {
		t.AddSpan(r.Name, "span", pid, 0,
			float64(r.Start.Nanoseconds())/1e3, float64(r.Dur.Nanoseconds())/1e3,
			spanArgs{ID: r.ID, Parent: r.Parent})
	}
}

// spanArgs annotates an exported span with its collector identity.
type spanArgs struct {
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent"`
}
