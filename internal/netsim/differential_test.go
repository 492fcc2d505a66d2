package netsim

import (
	"fmt"
	"reflect"
	"testing"

	"quorumplace/internal/placement"
)

// Differential tests for tracing: attaching a recorder (and saturating its
// ring, so most traces are evicted) must not change a single simulator
// statistic, because tracing never consumes the simulation RNG.

// queueCfg is the shared base configuration; accesses are numerous enough to
// wrap a capacity-16 ring many times over.
func queueCfg(ins *placement.Instance, pl placement.Placement) QueueConfig {
	return QueueConfig{
		Instance: ins, Placement: pl,
		ArrivalRate: 0.08, ServiceMean: 0.6,
		AccessesPerClient: 300, Seed: 42,
	}
}

func TestQueueingRecorderDoesNotPerturbStats(t *testing.T) {
	ins, pl := buildInstance(t)

	base, err := RunQueueing(queueCfg(ins, pl))
	if err != nil {
		t.Fatal(err)
	}
	// Saturated ring: every access traced, ring holds 16 of 2700, so almost
	// every add evicts an older trace.
	rec := NewRecorder(16, 1, 0)
	traced, err := RunQueueing(func() QueueConfig {
		c := queueCfg(ins, pl)
		c.Recorder = rec
		return c
	}())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(base, traced) {
		t.Fatalf("tracing perturbed queueing stats:\n  base   %+v\n  traced %+v", base, traced)
	}
	if rec.Dropped() == 0 {
		t.Fatal("ring never overwrote; test is not exercising eviction")
	}

	// Determinism: the same seed with a fresh recorder reproduces exactly.
	again, err := RunQueueing(func() QueueConfig {
		c := queueCfg(ins, pl)
		c.Recorder = NewRecorder(16, 1, 0)
		return c
	}())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(traced, again) {
		t.Fatalf("same seed diverged:\n  first  %+v\n  second %+v", traced, again)
	}
}

func TestRunRecorderDoesNotPerturbStats(t *testing.T) {
	ins, pl := buildInstance(t)
	cfg := Config{
		Instance: ins, Placement: pl, Mode: Parallel,
		AccessesPerClient: 200, InterAccessTime: 0.5, Seed: 17,
	}
	base, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Recorder = NewRecorder(8, 1, 0)
	traced, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(base, traced) {
		t.Fatalf("tracing perturbed propagation stats:\n  base   %+v\n  traced %+v", base, traced)
	}
}

func TestFailuresRecorderDoesNotPerturbStats(t *testing.T) {
	ins, pl := buildInstance(t)
	cfg := FailureConfig{
		Instance: ins, Placement: pl, Mode: Parallel,
		NodeFailureProb: 0.2, MaxRetries: 2, RetryPenalty: 1.5,
		AccessesPerClient: 200, Seed: 23,
	}
	base, err := RunWithFailures(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Recorder = NewRecorder(8, 1, 0)
	traced, err := RunWithFailures(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(base, traced) {
		t.Fatalf("tracing perturbed failure stats:\n  base   %+v\n  traced %+v", base, traced)
	}
}

// TestTracesSurviveProbeRecycling: Traces() hands out deep copies, so a
// snapshot taken from a saturated ring must stay intact while later runs
// overwrite every ring entry underneath it.
func TestTracesSurviveProbeRecycling(t *testing.T) {
	ins, pl := buildInstance(t)
	rec := NewRecorder(16, 1, 0)
	cfg := queueCfg(ins, pl)
	cfg.Recorder = rec
	if _, err := RunQueueing(cfg); err != nil {
		t.Fatal(err)
	}
	snap := rec.Traces()
	if len(snap) != 16 {
		t.Fatalf("retained %d traces, want 16", len(snap))
	}
	before := fmt.Sprintf("%+v", snap)

	// Second run on the same recorder overwrites the whole ring.
	cfg.Seed = 43
	if _, err := RunQueueing(cfg); err != nil {
		t.Fatal(err)
	}
	if after := fmt.Sprintf("%+v", snap); after != before {
		t.Fatalf("snapshot mutated by later runs:\n  before %s\n  after  %s", before, after)
	}
}
