package netsim

import (
	"math"
	"reflect"
	"testing"
)

// Differential and regression tests for the failure simulator's accounting:
// with failures disabled it must reproduce Run exactly, and with failures on
// its traces must respect the virtual timeline (probes dispatched after
// their predecessors, exhausted accesses charged every timeout).

// TestFailureFreeMatchesRunExactly pins RunWithFailures with
// NodeFailureProb=0, MaxRetries=0 to the plain simulator: same seed, same
// instance, identical per-access latencies and identical traces, in both
// access modes. Both simulators run on the same propagation worker, which
// skips alive-state sampling when the failure probability is zero, so the
// two runs consume the rng draw for draw.
func TestFailureFreeMatchesRunExactly(t *testing.T) {
	ins, pl := buildInstance(t)
	for _, mode := range []Mode{Parallel, Sequential} {
		t.Run(mode.String(), func(t *testing.T) {
			const apc = 40
			runRec := NewRecorder(4096, 1, 0)
			runStats, err := Run(Config{
				Instance: ins, Placement: pl, Mode: mode,
				AccessesPerClient: apc, Seed: 1234, Recorder: runRec,
			})
			if err != nil {
				t.Fatal(err)
			}
			failRec := NewRecorder(4096, 1, 0)
			failStats, err := RunWithFailures(FailureConfig{
				Instance: ins, Placement: pl, Mode: mode,
				NodeFailureProb: 0, MaxRetries: 0, RetryPenalty: 7, // penalty never charged
				AccessesPerClient: apc, Seed: 1234, Recorder: failRec,
			})
			if err != nil {
				t.Fatal(err)
			}
			if failStats.Accesses != runStats.Accesses || failStats.Succeeded != runStats.Accesses {
				t.Fatalf("failure-free run lost accesses: %+v vs %d", failStats, runStats.Accesses)
			}
			if failStats.Retries != 0 || failStats.FailedOutright != 0 {
				t.Fatalf("failure-free run retried or aborted: %+v", failStats)
			}
			if math.Abs(failStats.AvgLatency-runStats.AvgLatency) > 1e-12 {
				t.Fatalf("AvgLatency diverged: %v vs %v", failStats.AvgLatency, runStats.AvgLatency)
			}
			a, b := runRec.Traces(), failRec.Traces()
			if len(a) != len(b) || len(a) != runStats.Accesses {
				t.Fatalf("trace counts: run %d, failures %d, accesses %d", len(a), len(b), runStats.Accesses)
			}
			for i := range a {
				if !reflect.DeepEqual(a[i], b[i]) {
					t.Fatalf("trace %d diverged:\n  run      %+v\n  failures %+v", i, a[i], b[i])
				}
			}
		})
	}
}

// attemptWindows splits a trace's probes into per-attempt windows: every
// Failed probe terminates its attempt.
func attemptWindows(probes []ProbeSpan) [][]ProbeSpan {
	var out [][]ProbeSpan
	start := 0
	for i, p := range probes {
		if p.Failed {
			out = append(out, probes[start:i+1])
			start = i + 1
		}
	}
	if start < len(probes) {
		out = append(out, probes[start:])
	}
	return out
}

// TestSequentialFailedProbeDispatch is the regression test for the
// failure-path trace bug where a Sequential-mode failing probe was stamped
// at the attempt start, ignoring the latency accumulated by its
// predecessors: within one attempt, every probe (failed or not) must be
// dispatched no earlier than the previous probe completed.
func TestSequentialFailedProbeDispatch(t *testing.T) {
	ins, pl := buildInstance(t)
	rec := NewRecorder(0, 1, 0)
	_, err := RunWithFailures(FailureConfig{
		Instance: ins, Placement: pl, Mode: Sequential,
		NodeFailureProb: 0.3, MaxRetries: 3, RetryPenalty: 0.5,
		AccessesPerClient: 80, Seed: 11, Recorder: rec,
	})
	if err != nil {
		t.Fatal(err)
	}
	failedAfterProgress := 0
	for _, tr := range rec.Traces() {
		for _, win := range attemptWindows(tr.Probes) {
			for i := 1; i < len(win); i++ {
				if win[i].Dispatch < win[i-1].Complete-1e-9 {
					t.Fatalf("probe dispatched before predecessor finished: %+v after %+v (trace %+v)",
						win[i], win[i-1], tr)
				}
				if win[i].Failed && win[i-1].Complete > win[i-1].Dispatch {
					failedAfterProgress++
				}
			}
		}
	}
	if failedAfterProgress == 0 {
		t.Fatal("no failing probe followed a successful one; test exercised nothing")
	}
}

// TestExhaustedAccessChargesFinalPenalty is the regression test for the
// retry-penalty accounting bug: an access that exhausts its retry budget
// must charge RetryPenalty for every failed attempt, including the last, so
// an aborted access with MaxRetries=0 has latency RetryPenalty (not 0) and
// the client's next access starts that much later.
func TestExhaustedAccessChargesFinalPenalty(t *testing.T) {
	ins, pl := buildInstance(t)
	for _, retries := range []int{0, 2} {
		const penalty = 3.0
		rec := NewRecorder(0, 1, 0)
		stats, err := RunWithFailures(FailureConfig{
			Instance: ins, Placement: pl, Mode: Parallel,
			NodeFailureProb: 1, MaxRetries: retries, RetryPenalty: penalty,
			AccessesPerClient: 4, Seed: 3, Recorder: rec,
		})
		if err != nil {
			t.Fatal(err)
		}
		if stats.FailedOutright != stats.Accesses {
			t.Fatalf("retries=%d: %d of %d accesses aborted", retries, stats.FailedOutright, stats.Accesses)
		}
		want := float64(retries+1) * penalty
		lastEnd := make(map[int]float64)
		for _, tr := range rec.Traces() {
			if !tr.Aborted {
				t.Fatalf("retries=%d: unaborted trace at p=1: %+v", retries, tr)
			}
			if tr.Latency != want || tr.End-tr.Start != want {
				t.Fatalf("retries=%d: aborted access charged %v (span %v), want %v",
					retries, tr.Latency, tr.End-tr.Start, want)
			}
			// Back-to-back per client: each access starts when the previous
			// one's penalties elapsed.
			if prev, seen := lastEnd[tr.Client]; seen && tr.Start != prev {
				t.Fatalf("retries=%d: client %d access starts at %v, previous ended at %v",
					retries, tr.Client, tr.Start, prev)
			}
			lastEnd[tr.Client] = tr.End
		}
	}
}
