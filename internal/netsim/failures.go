package netsim

import (
	"fmt"

	"quorumplace/internal/heat"
	"quorumplace/internal/placement"
)

// Failure-injection simulation: nodes crash independently per access epoch,
// and clients retry with freshly sampled quorums until one is fully alive
// or the retry budget is exhausted. This measures the placed system's
// availability (cf. Instance.NodeFailureProbability) together with the
// latency cost of retries — the fault-tolerance dimension of the paper's
// load-dispersion motivation (§1, §2).

// FailureConfig describes a failure-injection run.
type FailureConfig struct {
	Instance  *placement.Instance
	Placement placement.Placement
	Mode      Mode
	// NodeFailureProb is the per-access probability that a given node is
	// down. Failures are resampled independently for every access (a
	// memoryless crash/recovery model).
	NodeFailureProb float64
	// MaxRetries is the number of additional quorum samples a client tries
	// after a failed attempt. 0 means one attempt only.
	MaxRetries int
	// RetryPenalty is the virtual-time latency charged for each failed
	// attempt (e.g. a timeout), including the final attempt of an access
	// that exhausts its retry budget: an access aborted after k failed
	// attempts has latency k·RetryPenalty, and a successful access pays one
	// penalty per preceding failed attempt on top of the successful
	// attempt's latency.
	RetryPenalty      float64
	AccessesPerClient int
	Seed              int64
	// Recorder, when non-nil, captures per-access traces (no time series);
	// probes of failed attempts carry Failed=true and the access records
	// its retry count. Nil turns tracing off. Accesses are laid out
	// back-to-back per client on the virtual timeline and run on the same
	// propagation worker as Run; with NodeFailureProb = 0 and MaxRetries =
	// 0 the run consumes randomness identically to Run and reproduces its
	// per-access latencies and traces exactly.
	Recorder *Recorder
	// Heat, when non-nil, folds every access into the workload sketch;
	// nodes probed by failed attempts count as messages (the load landed).
	// Nil turns observation off.
	Heat *heat.Sketch
	// Workers is the number of worker shards, with the same contract as
	// Config.Workers: 0 runs one worker, and the output is bitwise
	// invariant over the count (crash states are drawn from per-client
	// streams).
	Workers int
}

// FailureStats is the outcome of a failure-injection run.
type FailureStats struct {
	Accesses         int
	Succeeded        int
	FailedOutright   int     // accesses that exhausted the retry budget
	Retries          int     // total failed attempts that were retried
	SuccessRate      float64 // Succeeded / Accesses
	AvgLatency       float64 // mean latency of successful accesses (incl. penalties)
	EmpiricalUnavail float64 // fraction of *first attempts* that found no live quorum in the sampled state
}

// RunWithFailures executes the failure-injection simulation.
func RunWithFailures(cfg FailureConfig) (*FailureStats, error) {
	ins := cfg.Instance
	if err := validateRun(ins, cfg.Placement, cfg.AccessesPerClient, cfg.Workers); err != nil {
		return nil, err
	}
	if err := checkFinite("NodeFailureProb", cfg.NodeFailureProb); err != nil {
		return nil, err
	}
	if err := checkFinite("RetryPenalty", cfg.RetryPenalty); err != nil {
		return nil, err
	}
	if cfg.NodeFailureProb < 0 || cfg.NodeFailureProb > 1 {
		return nil, fmt.Errorf("netsim: NodeFailureProb = %v outside [0,1]", cfg.NodeFailureProb)
	}
	if cfg.MaxRetries < 0 || cfg.RetryPenalty < 0 {
		return nil, fmt.Errorf("netsim: negative retry settings")
	}
	ws, _, latencySum, err := propagate(&cfg, 0, true)
	if err != nil {
		return nil, err
	}
	stats := &FailureStats{}
	var noLive int
	for _, w := range ws {
		stats.Accesses += w.accesses
		stats.Succeeded += w.succeeded
		stats.FailedOutright += w.aborted
		stats.Retries += int(w.retries)
		noLive += w.noLive
	}
	stats.SuccessRate = float64(stats.Succeeded) / float64(stats.Accesses)
	if stats.Succeeded > 0 {
		stats.AvgLatency = latencySum / float64(stats.Succeeded)
	}
	stats.EmpiricalUnavail = float64(noLive) / float64(stats.Accesses)
	return stats, nil
}

func anyQuorumAlive(ins *placement.Instance, pl placement.Placement, alive []bool) bool {
	for qi := 0; qi < ins.Sys.NumQuorums(); qi++ {
		ok := true
		for _, u := range ins.Sys.Quorum(qi) {
			if !alive[pl.Node(u)] {
				ok = false
				break
			}
		}
		if ok {
			return true
		}
	}
	return false
}
