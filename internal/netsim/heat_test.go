package netsim

import (
	"testing"

	"quorumplace/internal/heat"
)

// TestHeatMatchesStats pins the sketch's exact totals to the simulator's
// own accounting: accesses to Stats.Accesses, per-node messages to
// Stats.NodeHits, per-client issues to the apportioned access counts.
func TestHeatMatchesStats(t *testing.T) {
	ins, p := buildInstance(t)
	ht := heat.New(heat.Options{EpochLen: 2})
	stats, err := Run(Config{
		Instance: ins, Placement: p, Mode: Parallel,
		AccessesPerClient: 40, Seed: 3, Heat: ht,
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := ht.Accesses(); got != int64(stats.Accesses) {
		t.Fatalf("sketch accesses %d vs stats %d", got, stats.Accesses)
	}
	nt := ht.NodeTotals()
	for v, hits := range stats.NodeHits {
		var sk int64
		if v < len(nt) {
			sk = nt[v]
		}
		if sk != hits {
			t.Fatalf("node %d: sketch %d vs NodeHits %d", v, sk, hits)
		}
	}
	for v, c := range ht.ClientTotals() {
		if c != 40 {
			t.Fatalf("client %d issued %d, want 40", v, c)
		}
	}
	// Uniform demand vs uniform plan: exactly zero drift.
	d, err := ht.Drift(nil)
	if err != nil {
		t.Fatal(err)
	}
	if d.TV != 0 {
		t.Fatalf("uniform run drifted: TV %v", d.TV)
	}
}

// TestHeatRatedRun pins the sketch's client totals to the largest-remainder
// apportionment under explicit rates, and the drift score to its bound.
func TestHeatRatedRun(t *testing.T) {
	ins, p := buildInstance(t)
	rates := []float64{8, 1, 1, 1, 1, 1, 1, 1, 1}
	if err := ins.SetRates(rates); err != nil {
		t.Fatal(err)
	}
	defer func() { ins.Rates = nil }()
	ht := heat.New(heat.Options{})
	stats, err := Run(Config{
		Instance: ins, Placement: p, Mode: Parallel,
		AccessesPerClient: 50, Seed: 7, Heat: ht,
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := ht.Accesses(); got != int64(stats.Accesses) {
		t.Fatalf("sketch accesses %d vs stats %d", got, stats.Accesses)
	}
	ct := ht.ClientTotals()
	if ct[0] <= ct[1] {
		t.Fatalf("hot client not hot: %v", ct)
	}
	// Running exactly the plan-time demand: TV bounded by the
	// largest-remainder apportionment error n/(2·total).
	d, err := ht.Drift(rates)
	if err != nil {
		t.Fatal(err)
	}
	n, total := 9.0, float64(stats.Accesses)
	if bound := n / (2 * total); d.TV > bound+1e-12 {
		t.Fatalf("plan-demand drift %v exceeds apportionment bound %v", d.TV, bound)
	}
	// Against a uniform plan the same run shows real drift.
	du, err := ht.Drift(nil)
	if err != nil {
		t.Fatal(err)
	}
	if du.TV < 0.2 || du.Top != 0 {
		t.Fatalf("skewed run vs uniform plan: TV %v top %d", du.TV, du.Top)
	}
}

// TestHeatAllSimulators checks the failure and queueing paths feed the
// sketch with per-simulator message semantics.
func TestHeatAllSimulators(t *testing.T) {
	ins, p := buildInstance(t)

	ht := heat.New(heat.Options{})
	fstats, err := RunWithFailures(FailureConfig{
		Instance: ins, Placement: p, Mode: Parallel,
		NodeFailureProb: 0.2, MaxRetries: 2, RetryPenalty: 1,
		AccessesPerClient: 30, Seed: 5, Heat: ht,
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := ht.Accesses(); got != int64(fstats.Accesses) {
		t.Fatalf("failure sim: sketch %d vs stats %d", got, fstats.Accesses)
	}
	// Retried attempts probe extra nodes, so messages exceed one quorum's
	// worth per access (Grid(2) quorums have 3 members).
	if ht.Messages() < 3*ht.Accesses() {
		t.Fatalf("messages %d < 3·accesses %d", ht.Messages(), ht.Accesses())
	}

	hq := heat.New(heat.Options{})
	qstats, err := RunQueueing(QueueConfig{
		Instance: ins, Placement: p, ArrivalRate: 2, ServiceMean: 0.05,
		AccessesPerClient: 20, Seed: 5, Heat: hq,
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := hq.Accesses(); got != int64(qstats.Accesses) {
		t.Fatalf("queueing sim: sketch %d vs stats %d", got, qstats.Accesses)
	}
	if hq.Messages() != 3*hq.Accesses() {
		t.Fatalf("queueing messages %d, want exactly 3·%d", hq.Messages(), hq.Accesses())
	}
}

// TestHeatDoesNotPerturbRun pins that attaching a sketch leaves the
// simulation bitwise unchanged: heat only reads the stream.
func TestHeatDoesNotPerturbRun(t *testing.T) {
	ins, p := buildInstance(t)
	base, err := Run(Config{Instance: ins, Placement: p, Mode: Sequential, AccessesPerClient: 25, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	withHeat, err := Run(Config{
		Instance: ins, Placement: p, Mode: Sequential, AccessesPerClient: 25, Seed: 11,
		Heat: heat.New(heat.Options{}),
	})
	if err != nil {
		t.Fatal(err)
	}
	if base.AvgLatency != withHeat.AvgLatency || base.Clock != withHeat.Clock {
		t.Fatalf("heat perturbed the run: %v/%v vs %v/%v",
			base.AvgLatency, base.Clock, withHeat.AvgLatency, withHeat.Clock)
	}
	for i, l := range base.Latencies() {
		if withHeat.Latencies()[i] != l {
			t.Fatalf("latency %d differs", i)
		}
	}
}
