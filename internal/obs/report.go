package obs

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strings"
	"sync"
	"time"
)

// This file renders collected telemetry: a streaming JSONL span sink, a
// whole-snapshot JSONL dump (spans first, then metrics) and its reader,
// and a human-readable summary table for terminals.

// traceLine is the JSONL wire format. Exactly one of the optional field
// groups is populated per line, selected by Type: "span", "counter",
// "gauge" or "hist".
type traceLine struct {
	Type string `json:"type"`

	// span fields
	ID      uint64 `json:"id,omitempty"`
	Parent  uint64 `json:"parent,omitempty"`
	Name    string `json:"name,omitempty"`
	StartUS int64  `json:"start_us,omitempty"`
	DurUS   int64  `json:"dur_us"`

	// metric fields
	Value *float64   `json:"value,omitempty"`
	Hist  *HistStats `json:"hist,omitempty"`
}

// JSONLWriter is a streaming Sink that writes one JSON line per completed
// span. It is safe for concurrent use.
type JSONLWriter struct {
	mu  sync.Mutex
	enc *json.Encoder
	err error
}

// NewJSONLWriter returns a streaming span sink writing to w.
func NewJSONLWriter(w io.Writer) *JSONLWriter {
	return &JSONLWriter{enc: json.NewEncoder(w)}
}

// SpanEnd writes the span as a JSONL line; the first write error sticks and
// suppresses further output.
func (jw *JSONLWriter) SpanEnd(r SpanRecord) {
	jw.mu.Lock()
	defer jw.mu.Unlock()
	if jw.err != nil {
		return
	}
	jw.err = jw.enc.Encode(spanLine(r))
}

// Err returns the first write error encountered, if any.
func (jw *JSONLWriter) Err() error {
	jw.mu.Lock()
	defer jw.mu.Unlock()
	return jw.err
}

func spanLine(r SpanRecord) traceLine {
	return traceLine{
		Type:    "span",
		ID:      r.ID,
		Parent:  r.Parent,
		Name:    r.Name,
		StartUS: r.Start.Microseconds(),
		DurUS:   r.Dur.Microseconds(),
	}
}

// WriteJSONL writes the snapshot as JSON Lines: every span, then every
// counter, gauge and histogram (metrics sorted by name for determinism).
func (s *Snapshot) WriteJSONL(w io.Writer) error {
	enc := json.NewEncoder(w)
	for _, r := range s.Spans {
		if err := enc.Encode(spanLine(r)); err != nil {
			return err
		}
	}
	for _, name := range sortedKeys(s.Counters) {
		v := float64(s.Counters[name])
		if err := enc.Encode(traceLine{Type: "counter", Name: name, Value: &v}); err != nil {
			return err
		}
	}
	for _, name := range sortedKeys(s.Gauges) {
		v := s.Gauges[name]
		if err := enc.Encode(traceLine{Type: "gauge", Name: name, Value: &v}); err != nil {
			return err
		}
	}
	for _, name := range sortedKeys(s.Histograms) {
		h := s.Histograms[name]
		if err := enc.Encode(traceLine{Type: "hist", Name: name, Hist: &h}); err != nil {
			return err
		}
	}
	return nil
}

// ReadJSONL decodes a JSONL trace written by WriteJSONL or a JSONLWriter
// into a snapshot. Spans keep their ids and parents, so SpanPaths rebuilds
// their paths; times are whole microseconds, as written. A counter on
// several lines sums them, and for a gauge or histogram the last line
// wins. The trace does not record the collector's age, so Duration is 0.
func ReadJSONL(r io.Reader) (*Snapshot, error) {
	s := &Snapshot{
		Counters:   make(map[string]int64),
		Gauges:     make(map[string]float64),
		Histograms: make(map[string]HistStats),
	}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64*1024), 1024*1024)
	for lineNo := 1; sc.Scan(); lineNo++ {
		line := bytes.TrimSpace(sc.Bytes())
		if len(line) == 0 {
			continue
		}
		var tl traceLine
		if err := json.Unmarshal(line, &tl); err != nil {
			return nil, fmt.Errorf("obs: trace line %d: %w", lineNo, err)
		}
		switch {
		case tl.Type == "span":
			s.Spans = append(s.Spans, SpanRecord{
				ID: tl.ID, Parent: tl.Parent, Name: tl.Name,
				Start: time.Duration(tl.StartUS) * time.Microsecond,
				Dur:   time.Duration(tl.DurUS) * time.Microsecond,
			})
		case tl.Type == "counter" && tl.Value != nil:
			s.Counters[tl.Name] += int64(*tl.Value)
		case tl.Type == "gauge" && tl.Value != nil:
			s.Gauges[tl.Name] = *tl.Value
		case tl.Type == "hist" && tl.Hist != nil:
			s.Histograms[tl.Name] = *tl.Hist
		default:
			return nil, fmt.Errorf("obs: trace line %d: unknown or incomplete %q record", lineNo, tl.Type)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("obs: read trace: %w", err)
	}
	return s, nil
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// Summary renders the snapshot as a human-readable table: an aggregated
// span tree (spans with the same name under the same parent path collapse
// into one row with a count), then counters, gauges and histograms.
func (s *Snapshot) Summary() string {
	var b strings.Builder
	fmt.Fprintf(&b, "telemetry summary (%s elapsed, %d spans)\n", round(s.Duration), len(s.Spans))

	if len(s.Spans) > 0 {
		type agg struct {
			path  string
			depth int
			count int
			total time.Duration
			max   time.Duration
		}
		byID := make(map[uint64]SpanRecord, len(s.Spans))
		for _, r := range s.Spans {
			byID[r.ID] = r
		}
		aggs := make(map[string]*agg)
		for _, r := range s.Spans {
			path := spanPath(byID, r)
			a := aggs[path]
			if a == nil {
				a = &agg{path: path, depth: strings.Count(path, "/")}
				aggs[path] = a
			}
			a.count++
			a.total += r.Dur
			if r.Dur > a.max {
				a.max = r.Dur
			}
		}
		// Lexicographic order keeps every child row directly under its
		// parent row, since a child path extends the parent path + "/".
		rows := make([]*agg, 0, len(aggs))
		for _, a := range aggs {
			rows = append(rows, a)
		}
		sort.Slice(rows, func(i, j int) bool { return rows[i].path < rows[j].path })
		b.WriteString("spans:\n")
		for _, a := range rows {
			name := a.path
			if i := strings.LastIndex(name, "/"); i >= 0 {
				name = name[i+1:]
			}
			fmt.Fprintf(&b, "  %s%-*s ×%-5d total %-10s max %s\n",
				strings.Repeat("  ", a.depth), 34-2*a.depth, name, a.count, round(a.total), round(a.max))
		}
	}
	if len(s.Counters) > 0 {
		b.WriteString("counters:\n")
		for _, name := range sortedKeys(s.Counters) {
			fmt.Fprintf(&b, "  %-36s %d\n", name, s.Counters[name])
		}
	}
	if len(s.Gauges) > 0 {
		b.WriteString("gauges:\n")
		for _, name := range sortedKeys(s.Gauges) {
			fmt.Fprintf(&b, "  %-36s %g\n", name, s.Gauges[name])
		}
	}
	if len(s.Histograms) > 0 {
		b.WriteString("histograms:\n")
		for _, name := range sortedKeys(s.Histograms) {
			h := s.Histograms[name]
			fmt.Fprintf(&b, "  %-36s n=%d mean=%.4g p50=%.4g p95=%.4g p99=%.4g max=%.4g\n",
				name, h.Count, h.Mean, h.P50, h.P95, h.P99, h.Max)
		}
	}
	return b.String()
}

// round trims durations to a readable precision for the summary table.
func round(d time.Duration) time.Duration {
	switch {
	case d >= time.Second:
		return d.Round(time.Millisecond)
	case d >= time.Millisecond:
		return d.Round(time.Microsecond)
	default:
		return d.Round(time.Nanosecond)
	}
}
