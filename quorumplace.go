// Package quorumplace places quorum systems onto networks so that client
// access delay is approximately minimized while every node's load stays
// within a bounded factor of its capacity. It implements the algorithms of
// Gupta, Maggs, Oprea and Reiter, "Quorum Placement in Networks to Minimize
// Access Delays" (PODC 2005), together with all the substrates the paper
// relies on: graphs and shortest-path metrics, quorum-system constructions
// and access strategies, an LP solver, Shmoys–Tardos GAP rounding, exact
// solvers for ground truth, and a discrete-event access simulator.
//
// # Quick start
//
//	g := quorumplace.RandomGeometric(20, 0.4, rng)
//	m, _ := quorumplace.NewMetricFromGraph(g)
//	sys := quorumplace.Grid(3)
//	ins, _ := quorumplace.NewInstance(m, caps, sys, quorumplace.Uniform(sys.NumQuorums()))
//	res, _ := quorumplace.SolveQPP(ins, 2.0) // Theorem 1.2, α = 2
//	fmt.Println(res.AvgMaxDelay, ins.CapacityViolation(res.Placement))
//
// The three main solver entry points mirror the paper's results:
//
//   - SolveQPP (Theorem 1.2): average max-delay within 5α/(α-1) of optimal,
//     loads within (α+1)·cap;
//   - SolveGridQPP / SolveMajorityQPP (Theorem 1.3): delay within 5× of
//     optimal with capacities respected exactly, for the Grid and Majority
//     systems under the uniform strategy;
//   - SolveTotalDelay (Theorem 1.4): average total-delay no worse than the
//     best capacity-respecting placement, loads within 2·cap.
//
// This package is a thin facade over the internal packages; every exported
// name is a type alias or function re-export, so values flow freely between
// the facade and the internals.
package quorumplace

import (
	"io"
	"math/rand"

	"quorumplace/internal/agg"
	"quorumplace/internal/daemon"
	"quorumplace/internal/graph"
	"quorumplace/internal/heat"
	"quorumplace/internal/migrate"
	"quorumplace/internal/netsim"
	"quorumplace/internal/obs"
	"quorumplace/internal/placement"
	"quorumplace/internal/quorum"
	"quorumplace/internal/recommend"
	"quorumplace/internal/treedp"
)

// --- network substrate -------------------------------------------------------

// Graph is a weighted undirected network topology.
type Graph = graph.Graph

// Metric is a finite shortest-path metric over network nodes.
type Metric = graph.Metric

// NewGraph returns an empty graph on n vertices.
func NewGraph(n int) *Graph { return graph.New(n) }

// NewMetricFromGraph computes the all-pairs shortest-path metric of g.
func NewMetricFromGraph(g *Graph) (*Metric, error) { return graph.NewMetricFromGraph(g) }

// NewMetricFromMatrix builds a metric from an explicit distance matrix.
func NewMetricFromMatrix(d [][]float64) (*Metric, error) { return graph.NewMetricFromMatrix(d) }

// BuildMetric is the scale-aware metric constructor: it computes the dense
// all-pairs metric with the parallel builder when the graph has at most
// DefaultDenseLimit nodes, and refuses with ErrMetricTooLarge — naming the
// sparse alternatives — rather than silently attempting an n² build. Prefer
// it over NewMetricFromGraph anywhere the input size is not fixed by
// construction.
func BuildMetric(g *Graph) (*Metric, error) { return graph.BuildMetric(g) }

// LandmarkMetric is the sparse landmark (beacon) distance oracle: k Dijkstra
// rows instead of n², with certified upper/lower bounds per pair.
type LandmarkMetric = graph.LandmarkMetric

// Sparse-metric constructors and limits (see internal/graph for semantics).
var (
	ErrMetricTooLarge = graph.ErrMetricTooLarge
	NewLandmarkMetric = graph.NewLandmarkMetric
)

// DefaultDenseLimit is the node count above which BuildMetric refuses a
// dense build.
const DefaultDenseLimit = graph.DefaultDenseLimit

// Topology generators. Random generators take a *rand.Rand for
// reproducibility; see the graph package for parameter semantics.
var (
	Path                = graph.Path
	Cycle               = graph.Cycle
	Star                = graph.Star
	Complete            = graph.Complete
	Grid2D              = graph.Grid2D
	RandomTree          = graph.RandomTree
	ErdosRenyiConnected = graph.ErdosRenyiConnected
	Broom               = graph.Broom
	StarWithLongEdge    = graph.StarWithLongEdge
	Hypercube           = graph.Hypercube
	RingOfCliques       = graph.RingOfCliques
)

// Edge-list serialization for feeding measured topologies to the solvers.
var (
	WriteEdgeList = graph.WriteEdgeList
	ParseEdgeList = graph.ParseEdgeList
)

// RandomGeometric places n points uniformly in the unit square and connects
// pairs within the radius (Euclidean edge lengths) — the standard synthetic
// WAN topology.
func RandomGeometric(n int, radius float64, rng *rand.Rand) *Graph {
	return graph.RandomGeometric(n, radius, rng)
}

// --- quorum systems ----------------------------------------------------------

// System is a quorum system: a family of pairwise-intersecting subsets of a
// logical universe.
type System = quorum.System

// Strategy is a probability distribution over a system's quorums.
type Strategy = quorum.Strategy

// NewSystem validates and builds a quorum system from explicit quorums.
func NewSystem(name string, universe int, quorums [][]int) (*System, error) {
	return quorum.NewSystem(name, universe, quorums)
}

// Quorum-system constructions (see internal/quorum for definitions).
var (
	Grid             = quorum.Grid
	Majority         = quorum.Majority
	SingletonSystem  = quorum.Singleton
	StarSystem       = quorum.Star
	Wheel            = quorum.Wheel
	FPP              = quorum.FPP
	CrumblingWalls   = quorum.CrumblingWalls
	TreeSystem       = quorum.Tree
	WeightedMajority = quorum.WeightedMajority
)

// ParseSystem builds the quorum system a command-line spec such as grid:3
// or majority:5:3 names, and returns an error for a malformed spec.
func ParseSystem(spec string) (*System, error) { return quorum.Parse(spec) }

// SystemGrammar is the spec grammar ParseSystem accepts.
const SystemGrammar = quorum.Grammar

// NewStrategy validates p as a probability distribution over quorums.
func NewStrategy(p []float64) (Strategy, error) { return quorum.NewStrategy(p) }

// Uniform returns the uniform strategy over m quorums.
func Uniform(m int) Strategy { return quorum.Uniform(m) }

// OptimalStrategy computes the load-minimizing access strategy of a system
// (the Naor–Wool LP) and the optimal load.
func OptimalStrategy(s *System) (Strategy, float64, error) { return quorum.OptimalStrategy(s) }

// --- placement problems -------------------------------------------------------

// Instance is a Quorum Placement Problem instance (Problem 1.1).
type Instance = placement.Instance

// Placement is a map from logical elements to network nodes.
type Placement = placement.Placement

// Results of the solvers.
type (
	QPPResult        = placement.QPPResult
	SSQPPResult      = placement.SSQPPResult
	GridResult       = placement.GridResult
	MajorityResult   = placement.MajorityResult
	TotalDelayResult = placement.TotalDelayResult
)

// NewInstance validates the inputs and builds a placement instance.
func NewInstance(m *Metric, cap []float64, sys *System, strat Strategy) (*Instance, error) {
	return placement.NewInstance(m, cap, sys, strat)
}

// AutoCapacity is the uniform node capacity qpp and quorumstat default to:
// total load / n × 1.3, and never below the largest element load.
func AutoCapacity(sys *System, strat Strategy, n int) (float64, error) {
	return placement.AutoCapacity(sys, strat, n)
}

// NewPlacement wraps an element→node map.
func NewPlacement(f []int) Placement { return placement.NewPlacement(f) }

// SolveQPP runs the Theorem 1.2 algorithm: average max-delay within
// 5α/(α-1) of the optimal capacity-respecting placement, with loads within
// (α+1)·cap.
func SolveQPP(ins *Instance, alpha float64) (*QPPResult, error) {
	return placement.SolveQPP(ins, alpha)
}

// SolveSSQPP runs the Theorem 3.7 single-source pipeline for source v0.
// Large instances with small quorum universes are transparently routed
// through the exact subset DP (see SolveSSQPPExact) instead of the LP.
func SolveSSQPP(ins *Instance, v0 int, alpha float64) (*SSQPPResult, error) {
	return placement.SolveSSQPP(ins, v0, alpha)
}

// SolveSSQPPExact solves the single-source problem to optimality with the
// O(n·3^U) subset DP — exponential only in the universe size, so fast
// whenever the quorum system is over a small logical universe. The returned
// certificate carries the optimum itself as LPBound.
func SolveSSQPPExact(ins *Instance, v0 int, alpha float64) (*SSQPPResult, error) {
	return placement.SolveSSQPPExact(ins, v0, alpha)
}

// TreeQPPResult is the outcome of SolveQPPTree.
type TreeQPPResult = treedp.Result

// SolveQPPTree solves QPP on a tree topology without materializing the n²
// metric: O(n) tree-distance vectors per candidate source, the exact subset
// DP per source, and exact objective evaluation via per-quorum diametral
// pairs. rates may be nil for uniform clients. This is the path that takes
// 10⁵-node networks with aggregated million-client demand in seconds.
func SolveQPPTree(g *Graph, caps []float64, sys *System, strat Strategy, rates []float64) (*TreeQPPResult, error) {
	return treedp.SolveQPP(g, caps, sys, strat, rates)
}

// --- demand aggregation ------------------------------------------------------

// Demand accumulates per-node client weight; Client is one raw demand
// source. See internal/agg: the objective is linear in client weight, so
// arbitrarily large client populations collapse losslessly into one weight
// per node, and with integer weights the collapse is bitwise deterministic
// under any arrival order.
type (
	Demand = agg.Demand
	Client = agg.Client
)

// Demand constructors and the per-client reference evaluator.
var (
	NewDemand            = agg.NewDemand
	PerClientAvgMaxDelay = agg.PerClientAvgMaxDelay
)

// SSQPPLowerBound returns the LP (9)–(14) lower bound on the single-source
// optimum.
func SSQPPLowerBound(ins *Instance, v0 int) (float64, error) {
	return placement.SSQPPLowerBound(ins, v0)
}

// SolveGridQPP places a Grid system optimally per source and returns the
// best (Theorem 1.3); capacities are respected exactly.
func SolveGridQPP(ins *Instance) (*GridResult, float64, error) {
	return placement.SolveGridQPP(ins)
}

// SolveMajorityQPP is the Majority-system counterpart of SolveGridQPP.
func SolveMajorityQPP(ins *Instance, threshold int) (*MajorityResult, float64, error) {
	return placement.SolveMajorityQPP(ins, threshold)
}

// SolveTotalDelay runs the Theorem 1.4/5.1 algorithm for the total-delay
// objective: delay no worse than the capacity-respecting optimum, loads
// within 2·cap.
func SolveTotalDelay(ins *Instance) (*TotalDelayResult, error) {
	return placement.SolveTotalDelay(ins)
}

// RelayFactor measures the Lemma 3.1 detour factor of a placement (≤ 5).
func RelayFactor(ins *Instance, p Placement) (factor float64, v0 int) {
	return placement.RelayFactor(ins, p)
}

// SolveQPPAveragedStrategies solves the §6 per-client-strategy extension by
// averaging the strategies.
func SolveQPPAveragedStrategies(ins *Instance, perClient []Strategy, alpha float64) (*QPPResult, error) {
	return placement.SolveQPPAveragedStrategies(ins, perClient, alpha)
}

// Baseline placements.
var (
	RandomFeasiblePlacement = placement.RandomFeasiblePlacement
	GreedyClosestPlacement  = placement.GreedyClosestPlacement
	BestGreedyPlacement     = placement.BestGreedyPlacement
)

// --- simulation ----------------------------------------------------------------

// SimConfig configures a discrete-event quorum-access simulation.
type SimConfig = netsim.Config

// SimStats is the outcome of a simulation run.
type SimStats = netsim.Stats

// SimMode selects the access cost model of the simulator.
type SimMode = netsim.Mode

// Simulation access modes.
const (
	SimParallel   = netsim.Parallel   // max-delay accesses (Eq. 1)
	SimSequential = netsim.Sequential // total-delay accesses (§5)
)

// RunSim executes a discrete-event simulation of quorum accesses.
func RunSim(cfg SimConfig) (*SimStats, error) { return netsim.Run(cfg) }

// --- access tracing ------------------------------------------------------------

// SimRecorder captures per-access traces (one probe span per contacted
// quorum member) and virtual-time time-series samples from simulation runs
// into a bounded ring buffer; attach one via SimConfig.Recorder.
type SimRecorder = netsim.Recorder

// SimAccessTrace is one traced quorum access.
type SimAccessTrace = netsim.AccessTrace

// SimProbeSpan is one quorum-member contact within a traced access.
type SimProbeSpan = netsim.ProbeSpan

// SimTimeSample is one time-series snapshot of simulator gauges.
type SimTimeSample = netsim.TSample

// NewSimRecorder returns a recorder holding up to capacity traces (≤0 for
// the default 4096), tracing a deterministic 1-in-sampleEvery sample of the
// accesses (≤1 for all), and sampling gauges every tsInterval virtual-time
// units (≤0 disables).
func NewSimRecorder(capacity, sampleEvery int, tsInterval float64) *SimRecorder {
	return netsim.NewRecorder(capacity, sampleEvery, tsInterval)
}

// Trace-sampling presets for -trace-sample flags: "fine" keeps enough
// per-access detail to diagnose a placement, "coarse" keeps Perfetto
// exports of multi-million-access parallel runs small.
const (
	SimTraceSampleFine   = netsim.TraceSampleFine
	SimTraceSampleCoarse = netsim.TraceSampleCoarse
)

// ParseSimTraceSample parses a -trace-sample flag value: a positive
// integer k (trace a deterministic 1-in-k sample of the accesses) or a
// preset name, "fine" (1 in 16) or "coarse" (1 in 1024).
func ParseSimTraceSample(s string) (int, error) { return netsim.ParseTraceSample(s) }

// ChromeTrace accumulates events in the Chrome trace-event format that
// Perfetto (ui.perfetto.dev) and chrome://tracing load; recorder contents
// and telemetry snapshots can be appended into one file.
type ChromeTrace = obs.ChromeTrace

// --- availability & resilience -------------------------------------------------

// Quorum-system quality measures (element-level, Naor–Wool): exact failure
// probability, resilience, and the load lower bound.
var (
	FailureProbability = quorum.FailureProbability
	Resilience         = quorum.Resilience
	MinQuorumSize      = quorum.MinQuorumSize
	LoadLowerBound     = quorum.LoadLowerBound
	RecursiveMajority  = quorum.RecursiveMajority
)

// --- local search & ablations ---------------------------------------------------

// LocalSearchConfig configures ImproveLocalSearch.
type LocalSearchConfig = placement.LocalSearchConfig

// LocalSearchObjective selects what a local search optimizes.
type LocalSearchObjective = placement.Objective

// Local-search objectives.
const (
	ObjectiveAvgMaxDelay    = placement.ObjectiveAvgMaxDelay
	ObjectiveAvgTotalDelay  = placement.ObjectiveAvgTotalDelay
	ObjectiveSourceMaxDelay = placement.ObjectiveSourceMaxDelay
)

// ImproveLocalSearch hill-climbs a placement with relocations and swaps,
// never worsening the objective and never exceeding MaxLoadFactor·cap.
func ImproveLocalSearch(ins *Instance, p Placement, cfg LocalSearchConfig) (Placement, float64, error) {
	return placement.ImproveLocalSearch(ins, p, cfg)
}

// SolveSSQPPArgmax is the no-load-guarantee ablation of SolveSSQPP (see the
// E12 experiment); it keeps the α/(α-1)·Z* delay bound only.
func SolveSSQPPArgmax(ins *Instance, v0 int, alpha float64) (*SSQPPResult, error) {
	return placement.SolveSSQPPArgmax(ins, v0, alpha)
}

// --- failure-injection simulation -----------------------------------------------

// FailureSimConfig configures a crash/retry simulation.
type FailureSimConfig = netsim.FailureConfig

// FailureSimStats is the outcome of a crash/retry simulation.
type FailureSimStats = netsim.FailureStats

// RunSimWithFailures simulates quorum accesses under random node crashes
// with client retries.
func RunSimWithFailures(cfg FailureSimConfig) (*FailureSimStats, error) {
	return netsim.RunWithFailures(cfg)
}

// --- windowed SLOs -----------------------------------------------------------------

// SimSLOTargets declares per-window service-level objectives for simulation
// runs; zero fields are unchecked. Enable accounting on a SimRecorder with
// its EnableSLO method and read windows back with SLOWindows / CheckSLO.
type SimSLOTargets = netsim.SLOTargets

// SimSLOWindow is one finalized rolling virtual-time window of a run:
// access-delay quantiles, load skew and failure burn rates.
type SimSLOWindow = netsim.SLOWindow

// SimSLOViolation is one SLO target breached by one window.
type SimSLOViolation = netsim.SLOViolation

// CheckSimSLO grades windows against targets, returning every breach.
func CheckSimSLO(windows []SimSLOWindow, t SimSLOTargets) []SimSLOViolation {
	return netsim.CheckSLO(windows, t)
}

// ParseSimSLOTargets parses a spec like "p99=4,p999=6,skew=2.5,abort=0.01".
func ParseSimSLOTargets(spec string) (SimSLOTargets, error) {
	return netsim.ParseSLOTargets(spec)
}

// FormatSimSLOWindows renders windows as an aligned table.
func FormatSimSLOWindows(windows []SimSLOWindow) string {
	return netsim.FormatSLOWindows(windows)
}

// --- workload heat & drift ---------------------------------------------------------

// HeatSketch accumulates a stream of quorum accesses into deterministic,
// mergeable workload sketches: per-client/per-node EWMA rates over virtual
// time, heavy-hitter summaries, and drift scores against the demand the
// placement was solved for. Attach one per run via SimConfig.Heat.
type HeatSketch = heat.Sketch

// HeatOptions configures a HeatSketch (epoch length, EWMA half-life).
type HeatOptions = heat.Options

// HeatTopEntry is one heavy hitter: a client or node index and its exact
// count.
type HeatTopEntry = heat.TopEntry

// HeatDriftReport is the total-variation drift of a live demand estimate
// from a plan demand vector, with per-client contributions.
type HeatDriftReport = heat.DriftReport

// HeatAttribution is the plan-vs-actual delay gap decomposed into drift,
// queueing, failure and residual components.
type HeatAttribution = heat.Attribution

// NewHeatSketch returns an empty workload sketch.
func NewHeatSketch(o HeatOptions) *HeatSketch { return heat.New(o) }

// HeatDrift compares a live demand estimate against a plan demand vector
// (nil plan means uniform); both are unnormalized non-negative weights.
func HeatDrift(live, plan []float64) (*HeatDriftReport, error) {
	return heat.Drift(live, plan)
}

// AttributeDelayGap decomposes measured−predicted delay into drift vs
// queueing vs failures vs residual.
func AttributeDelayGap(predictedPlan, predictedLive, measured, queueWait, failurePenalty float64) HeatAttribution {
	return heat.Attribute(predictedPlan, predictedLive, measured, queueWait, failurePenalty)
}

// PredictDelayUnderRates re-evaluates a placement's analytic delay
// objective under an alternative demand vector (the drift leg of the
// attribution).
func PredictDelayUnderRates(ins *Instance, pl Placement, sequential bool, rates []float64) (float64, error) {
	return heat.PredictUnderRates(ins, pl, sequential, rates)
}

// --- strategy re-optimization & migration -----------------------------------------

// OptimizeStrategyForPlacement re-optimizes the access strategy for a fixed
// placement, minimizing average max-delay subject to node capacities.
func OptimizeStrategyForPlacement(ins *Instance, p Placement) (Strategy, float64, error) {
	return placement.OptimizeStrategyForPlacement(ins, p)
}

// MigrationPlan is the outcome of PlanMigration.
type MigrationPlan = migrate.Plan

// MigrationCost returns Σ_u load(u)·d(old(u), new(u)).
func MigrationCost(ins *Instance, oldP, newP Placement) (float64, error) {
	return migrate.Cost(ins, oldP, newP)
}

// PlanMigration finds a placement minimizing AvgΓ + λ·movement via the
// Theorem 5.1 GAP machinery (loads within 2·cap).
func PlanMigration(ins *Instance, oldP Placement, lambda float64) (*MigrationPlan, error) {
	return migrate.Solve(ins, oldP, lambda)
}

// MigrationParetoSweep traces the delay/movement frontier over λ values.
func MigrationParetoSweep(ins *Instance, oldP Placement, lambdas []float64) ([]*MigrationPlan, error) {
	return migrate.ParetoSweep(ins, oldP, lambdas)
}

// MigrationPlanner pre-builds the migration LP for a fixed element subset
// and retains the previous solve's simplex basis, so a repeated re-plan
// (new demand, λ, or capacities over the same structure) warm-starts
// instead of solving from scratch. The first solve is bitwise identical to
// PlanMigration.
type MigrationPlanner = migrate.Planner

// MigrationShardPlan is the outcome of one MigrationPlanner solve over its
// element subset.
type MigrationShardPlan = migrate.ShardPlan

// NewMigrationPlanner builds a warm-capable planner for the given element
// subset (nil for the full universe).
func NewMigrationPlanner(ins *Instance, elems []int) (*MigrationPlanner, error) {
	return migrate.NewPlanner(ins, elems)
}

// --- placement daemon ---------------------------------------------------------------

// PlacementDaemon is the long-lived placement service: it ingests access
// observations into a HeatSketch, watches recent drift against the demand
// the running placement was planned for, and re-plans one shard of the
// universe per tick through warm-started migration LPs. See cmd/quorumd.
type PlacementDaemon = daemon.Daemon

// DaemonConfig configures a PlacementDaemon.
type DaemonConfig = daemon.Config

// DaemonTickRecord is the deterministic log entry of one daemon tick.
type DaemonTickRecord = daemon.TickRecord

// DaemonMigration is one element move applied by a daemon tick.
type DaemonMigration = daemon.Migration

// DaemonStatus is the daemon's control-plane summary (GET /status).
type DaemonStatus = daemon.Status

// NewDaemon validates cfg and builds a placement daemon.
func NewDaemon(cfg DaemonConfig) (*PlacementDaemon, error) {
	return daemon.New(cfg)
}

// --- queueing simulation -----------------------------------------------------------

// QueueSimConfig configures the queueing simulator, which couples node load
// to access delay through FIFO service queues.
type QueueSimConfig = netsim.QueueConfig

// QueueSimStats is the outcome of a queueing simulation.
type QueueSimStats = netsim.QueueStats

// RunSimWithQueueing simulates quorum accesses with per-node service queues
// (open-loop Poisson arrivals, exponential service).
func RunSimWithQueueing(cfg QueueSimConfig) (*QueueSimStats, error) {
	return netsim.RunQueueing(cfg)
}

// SolveQPPParallel is SolveQPP with per-source solves spread over a worker
// pool; results are identical to the sequential solver.
func SolveQPPParallel(ins *Instance, alpha float64, workers int) (*QPPResult, error) {
	return placement.SolveQPPParallel(ins, alpha, workers)
}

// --- read/write quorum systems ----------------------------------------------------

// RWSystem is a read/write (bicoterie) quorum system; see GiffordVoting.
type RWSystem = quorum.RWSystem

// GiffordVoting builds the read/write threshold system on n elements.
var GiffordVoting = quorum.GiffordVoting

// NewRWSystem validates and builds a read/write quorum system.
func NewRWSystem(name string, universe int, reads, writes [][]int) (*RWSystem, error) {
	return quorum.NewRWSystem(name, universe, reads, writes)
}

// --- coterie theory ------------------------------------------------------------------

// Coterie-theoretic tools (Garcia-Molina–Barbara / Ibaraki–Kameda): minimal
// quorums, minimal transversals (the quorums of the dual), and
// non-domination.
var (
	MinimalQuorums = quorum.MinimalQuorums
	Transversals   = quorum.Transversals
	IsNonDominated = quorum.IsNonDominated
)

// --- instance serialization -----------------------------------------------------------

// InstanceSpec is the JSON form of a placement instance (network, caps,
// quorum system, strategy, optional rates).
type InstanceSpec = placement.InstanceSpec

// Spec extracts the serializable form of an instance built on g.
func Spec(name string, g *Graph, ins *Instance) (*InstanceSpec, error) {
	return placement.Spec(name, g, ins)
}

// Serialization of instance specs as indented JSON.
var (
	WriteSpec = placement.WriteSpec
	ReadSpec  = placement.ReadSpec
)

// OptimizePerClientStrategies computes per-client access strategies (the §6
// extension) minimizing the average max-delay of a fixed placement subject
// to the averaged-strategy load model.
func OptimizePerClientStrategies(ins *Instance, p Placement) ([]Strategy, float64, error) {
	return placement.OptimizePerClientStrategies(ins, p)
}

// AuditReport is the one-call placement health report (see Instance.Audit).
type AuditReport = placement.AuditReport

// --- configuration planning --------------------------------------------------------

// PlannerRequirements are the operator constraints for Recommend.
type PlannerRequirements = recommend.Requirements

// PlannerRecommendation is one evaluated configuration.
type PlannerRecommendation = recommend.Recommendation

// Recommend evaluates the built-in quorum-system portfolio on a network and
// returns configurations ranked by delay, feasible first.
func Recommend(m *Metric, caps []float64, req PlannerRequirements) ([]PlannerRecommendation, error) {
	return recommend.Recommend(m, caps, req)
}

// --- observability -------------------------------------------------------------

// TelemetryCollector records spans, counters, gauges and histograms emitted
// by the solver pipeline while enabled. Telemetry is off by default and
// costs roughly a nanosecond per instrumentation site when disabled.
type TelemetryCollector = obs.Collector

// TelemetrySnapshot is an immutable copy of a collector's recorded data.
type TelemetrySnapshot = obs.Snapshot

// TelemetrySpanRecord is one completed span in a snapshot.
type TelemetrySpanRecord = obs.SpanRecord

// Telemetry returns the currently active collector, or nil when telemetry
// is disabled.
func Telemetry() *TelemetryCollector { return obs.Active() }

// EnableTelemetry switches telemetry on with a fresh in-memory collector
// and returns it. Solver calls made while enabled record spans (LP phases,
// flow runs, rounding, simulation) and counters; read them with Snapshot.
func EnableTelemetry() *TelemetryCollector { return obs.Enable(nil) }

// EnableTrace switches telemetry on with a collector that additionally
// streams every completed span to w as JSON Lines. Counters, gauges and
// histograms are not streamed; fetch them via Snapshot and WriteJSONL.
func EnableTrace(w io.Writer) *TelemetryCollector {
	c := obs.NewCollector()
	c.AddSink(obs.NewJSONLWriter(w))
	return obs.Enable(c)
}

// DisableTelemetry switches telemetry off and returns the collector that
// was active, if any; its recorded data stays readable via Snapshot.
func DisableTelemetry() *TelemetryCollector { return obs.Disable() }

// Snapshot captures the active collector's recorded telemetry, or returns
// nil when telemetry is disabled.
func Snapshot() *TelemetrySnapshot {
	c := obs.Active()
	if c == nil {
		return nil
	}
	return c.Snapshot()
}
