package netsim

import (
	"math"
	"testing"

	"quorumplace/internal/obs"
	"quorumplace/internal/placement"
	"quorumplace/internal/quorum"
)

func TestRunWithFailuresValidation(t *testing.T) {
	ins, p := buildInstance(t)
	bad := []FailureConfig{
		{Instance: nil, Placement: p, AccessesPerClient: 1},
		{Instance: ins, Placement: p, AccessesPerClient: 0},
		{Instance: ins, Placement: p, AccessesPerClient: 1, NodeFailureProb: -0.5},
		{Instance: ins, Placement: p, AccessesPerClient: 1, NodeFailureProb: 1.5},
		{Instance: ins, Placement: p, AccessesPerClient: 1, MaxRetries: -1},
		{Instance: ins, Placement: p, AccessesPerClient: 1, RetryPenalty: -1},
	}
	for i, cfg := range bad {
		if _, err := RunWithFailures(cfg); err == nil {
			t.Errorf("config %d accepted", i)
		}
	}
}

func TestNoFailuresMeansAllSucceed(t *testing.T) {
	ins, p := buildInstance(t)
	stats, err := RunWithFailures(FailureConfig{
		Instance: ins, Placement: p, Mode: Parallel,
		NodeFailureProb: 0, AccessesPerClient: 50, Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if stats.SuccessRate != 1 || stats.FailedOutright != 0 || stats.Retries != 0 {
		t.Fatalf("lossless run: %+v", stats)
	}
	// With p=0, the latency must match the failure-free simulator's model.
	want := ins.AvgMaxDelay(p)
	if math.Abs(stats.AvgLatency-want)/want > 0.1 {
		t.Fatalf("avg latency %v far from analytic %v", stats.AvgLatency, want)
	}
}

func TestAllNodesDownMeansAllFail(t *testing.T) {
	ins, p := buildInstance(t)
	stats, err := RunWithFailures(FailureConfig{
		Instance: ins, Placement: p, Mode: Parallel,
		NodeFailureProb: 1, MaxRetries: 2, AccessesPerClient: 10, Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if stats.Succeeded != 0 || stats.SuccessRate != 0 {
		t.Fatalf("all-down run succeeded: %+v", stats)
	}
	if stats.EmpiricalUnavail != 1 {
		t.Fatalf("EmpiricalUnavail = %v, want 1", stats.EmpiricalUnavail)
	}
}

// TestEmpiricalUnavailMatchesAnalytic: the sampled no-live-quorum rate
// converges to Instance.NodeFailureProbability.
func TestEmpiricalUnavailMatchesAnalytic(t *testing.T) {
	ins, p := buildInstance(t)
	prob := 0.3
	want, err := ins.NodeFailureProbability(p, prob)
	if err != nil {
		t.Fatal(err)
	}
	stats, err := RunWithFailures(FailureConfig{
		Instance: ins, Placement: p, Mode: Parallel,
		NodeFailureProb: prob, MaxRetries: 3, AccessesPerClient: 4000, Seed: 5,
	})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(stats.EmpiricalUnavail-want) > 0.02 {
		t.Fatalf("empirical unavailability %v, analytic %v", stats.EmpiricalUnavail, want)
	}
}

// TestRetriesImproveSuccessRate: with flaky nodes, a retry budget lifts the
// success rate, and the success rate with unlimited-ish retries approaches
// 1 - unavailability.
func TestRetriesImproveSuccessRate(t *testing.T) {
	ins, p := buildInstance(t)
	base, err := RunWithFailures(FailureConfig{
		Instance: ins, Placement: p, Mode: Parallel,
		NodeFailureProb: 0.3, MaxRetries: 0, AccessesPerClient: 2000, Seed: 7,
	})
	if err != nil {
		t.Fatal(err)
	}
	retried, err := RunWithFailures(FailureConfig{
		Instance: ins, Placement: p, Mode: Parallel,
		NodeFailureProb: 0.3, MaxRetries: 8, AccessesPerClient: 2000, Seed: 7,
	})
	if err != nil {
		t.Fatal(err)
	}
	if retried.SuccessRate <= base.SuccessRate {
		t.Fatalf("retries did not help: %v vs %v", retried.SuccessRate, base.SuccessRate)
	}
	if retried.Retries == 0 {
		t.Fatal("no retries recorded despite failures")
	}
}

func TestRetryPenaltyIncreasesLatency(t *testing.T) {
	ins, p := buildInstance(t)
	cheap, err := RunWithFailures(FailureConfig{
		Instance: ins, Placement: p, Mode: Parallel,
		NodeFailureProb: 0.4, MaxRetries: 5, RetryPenalty: 0,
		AccessesPerClient: 1500, Seed: 9,
	})
	if err != nil {
		t.Fatal(err)
	}
	costly, err := RunWithFailures(FailureConfig{
		Instance: ins, Placement: p, Mode: Parallel,
		NodeFailureProb: 0.4, MaxRetries: 5, RetryPenalty: 10,
		AccessesPerClient: 1500, Seed: 9,
	})
	if err != nil {
		t.Fatal(err)
	}
	if costly.AvgLatency <= cheap.AvgLatency {
		t.Fatalf("penalty did not raise latency: %v vs %v", costly.AvgLatency, cheap.AvgLatency)
	}
}

// TestColocationHurtsAvailability: placing all elements on one node makes
// the system exactly as fragile as that node, while spreading them out
// keeps the quorum-system redundancy.
func TestColocationHurtsAvailability(t *testing.T) {
	ins, spread := buildInstance(t)
	colocated := placement.NewPlacement([]int{4, 4, 4, 4})
	p := 0.3
	fCo, err := ins.NodeFailureProbability(colocated, p)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(fCo-p) > 1e-12 {
		t.Fatalf("colocated failure probability %v, want %v (single point of failure)", fCo, p)
	}
	fSpread, err := ins.NodeFailureProbability(spread, p)
	if err != nil {
		t.Fatal(err)
	}
	// Spread over 4 nodes, Grid(2) needs a row+column alive: still better
	// than a single point of failure at p=0.3? For Grid(2) on 4 distinct
	// nodes the system survives only specific patterns; compare against
	// the quorum-level failure probability instead of asserting an
	// inequality blindly.
	want, err := quorum.FailureProbability(ins.Sys, p)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(fSpread-want) > 1e-12 {
		t.Fatalf("bijective placement failure prob %v != element-level %v", fSpread, want)
	}
}

func TestPlacementResilience(t *testing.T) {
	ins, spread := buildInstance(t)
	// Bijective placement: node resilience equals element resilience.
	rSpread, err := ins.PlacementResilience(spread)
	if err != nil {
		t.Fatal(err)
	}
	if want, err := quorum.Resilience(ins.Sys); err != nil || rSpread != want {
		t.Fatalf("spread resilience %d, element-level %d", rSpread, want)
	}
	colocated := placement.NewPlacement([]int{2, 2, 2, 2})
	rCo, err := ins.PlacementResilience(colocated)
	if err != nil {
		t.Fatal(err)
	}
	if rCo != 0 {
		t.Fatalf("colocated resilience %d, want 0", rCo)
	}
}

// TestCrashDrawsPerAccess pins netsim.crash_draws: a failure run peeks the
// crash state of each hosting node once per access, not of every node and
// not of every element, at every worker count.
func TestCrashDrawsPerAccess(t *testing.T) {
	for name, g := range goldenInstances(t) {
		hosts := len(hostingNodes(g.pl))
		for _, workers := range []int{1, 3} {
			col := obs.Enable(obs.NewCollector())
			stats, err := RunWithFailures(FailureConfig{Instance: g.ins, Placement: g.pl, Mode: Parallel,
				NodeFailureProb: 0.3, MaxRetries: 2, AccessesPerClient: 20, Seed: 5, Workers: workers})
			obs.Disable()
			if err != nil {
				t.Fatal(err)
			}
			got, want := col.Snapshot().Counter("netsim.crash_draws"), int64(stats.Accesses*hosts)
			if got != want || hosts >= g.ins.M.N() {
				t.Errorf("%s workers=%d: %d crash draws, want %d accesses × %d hosts of %d nodes",
					name, workers, got, stats.Accesses, hosts, g.ins.M.N())
			}
		}
	}
}
