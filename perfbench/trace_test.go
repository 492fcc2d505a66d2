package main

import (
	"testing"
	"time"

	"quorumplace/internal/obs"
)

func span(id, parent uint64, name string, ms int) obs.SpanRecord {
	return obs.SpanRecord{ID: id, Parent: parent, Name: name, Dur: time.Duration(ms) * time.Millisecond}
}

// TestSelfTimeByName checks the self-time arithmetic on a trace whose
// parent links are wrong the way concurrent recording makes them: the
// second treedp span claims the first as its parent. Sums by name ignore
// the links, so the misnesting changes nothing.
func TestSelfTimeByName(t *testing.T) {
	spans := []obs.SpanRecord{
		span(1, 0, "daemon.tick", 10),
		span(2, 1, "lp.solve_hot", 2),
		span(3, 1, "gap.round", 3),
		span(4, 3, "flow.assign", 1),
		span(5, 0, "daemon.tick", 6),
		span(6, 5, "lp.solve", 4),
		span(7, 6, "lp.phase1", 1),
		span(8, 6, "lp.phase2", 2),
		span(9, 0, "treedp.ssqpp", 5),
		span(10, 9, "treedp.ssqpp", 5),
	}
	tot := spanTotals(spans)
	ms := func(n int) time.Duration { return time.Duration(n) * time.Millisecond }
	for name, want := range map[string]time.Duration{
		"daemon.tick":  ms(16 - 2 - 3 - 4),
		"gap.round":    ms(3 - 1),
		"lp.solve":     ms(4 - 1 - 2),
		"flow.assign":  ms(1),
		"treedp.ssqpp": ms(10),
		"netsim.run":   0,
	} {
		if got := selfTime(tot, spanChildren, name); got != want {
			t.Errorf("selfTime(%s) = %v, want %v", name, got, want)
		}
	}
}

// TestSelfTimeOfAbsentSpan: children without their parent (lp spans on the
// plan workload, which runs no daemon tick) give the parent no time at all,
// not a negative one.
func TestSelfTimeOfAbsentSpan(t *testing.T) {
	tot := spanTotals([]obs.SpanRecord{span(1, 0, "lp.solve", 5)})
	if got := selfTime(tot, spanChildren, "daemon.tick"); got != 0 {
		t.Errorf("selfTime(daemon.tick) = %v, want 0", got)
	}
}

func TestLayerTraceAveragesPerOpAndFlagsCounterDrift(t *testing.T) {
	pass := func(pivots int64) *obs.Snapshot {
		return &obs.Snapshot{
			Spans:    []obs.SpanRecord{span(1, 0, "gap.round", 30), span(2, 1, "flow.assign", 10)},
			Counters: map[string]int64{"lp.pivots": pivots},
		}
	}
	lt := newLayerTrace()
	lt.add(pass(7), 2)
	lt.add(pass(7), 2)
	if lt.mismatched != 0 {
		t.Fatalf("identical passes flagged %d mismatches", lt.mismatched)
	}
	m := lt.metrics(2)
	if got, want := m["gap.round_s"], 0.010; got != want { // (30-10)·2 ms over 4 ops
		t.Errorf("gap.round_s = %v, want %v", got, want)
	}
	if m["lp.pivots"] != 7 {
		t.Errorf("lp.pivots = %v, want the per-pass count 7", m["lp.pivots"])
	}
	lt.add(pass(8), 2)
	if lt.mismatched != 1 {
		t.Errorf("a pass with different pivots flagged %d mismatches, want 1", lt.mismatched)
	}
}
