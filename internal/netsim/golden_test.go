package netsim

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"reflect"
	"sort"
	"strings"
	"testing"

	"quorumplace/internal/graph"
	"quorumplace/internal/heat"
	"quorumplace/internal/obs"
	"quorumplace/internal/placement"
	"quorumplace/internal/quorum"
)

// TestSimulatorOutputGolden pins every output bit of the three simulators
// on a table of configurations: the stats structs field by field (floats
// through math.Float64bits, the raw latency stream included), and, when
// telemetry is attached, the recorder's traces, time series and SLO
// windows, the heat sketch's totals and rates, and the run's netsim
// counters. The digests were recorded once and must never be re-recorded
// to make a change pass: an optimization of the simulators' inner loops
// is only correct if it reproduces them.
//
// The table covers several elements placed on one node (fewer hosting
// nodes than elements), node failure probabilities 0.05, 0.5 and 1,
// retry budgets 0 and 3, both access modes, rated clients with think
// time, a strategy with zero-probability quorums (first, inner and last),
// a one-quorum system, queueing with and without service time, and
// Workers 1 and 3.
func TestSimulatorOutputGolden(t *testing.T) {
	ins := goldenInstances(t)
	cases := []struct {
		name string
		tel  bool // attach a recorder, a heat sketch and a collector
		run  func(rec *Recorder, ht *heat.Sketch) (interface{}, error)
	}{
		{"run/colocated/parallel/think/w1", true, func(rec *Recorder, ht *heat.Sketch) (interface{}, error) {
			return Run(Config{Instance: ins["colocated"].ins, Placement: ins["colocated"].pl, Mode: Parallel,
				AccessesPerClient: 30, InterAccessTime: 0.3, Seed: 3, Workers: 1, Recorder: rec, Heat: ht})
		}},
		{"run/colocated/sequential/w3", true, func(rec *Recorder, ht *heat.Sketch) (interface{}, error) {
			return Run(Config{Instance: ins["colocated"].ins, Placement: ins["colocated"].pl, Mode: Sequential,
				AccessesPerClient: 30, Seed: 4, Workers: 3, Recorder: rec, Heat: ht})
		}},
		{"run/rated/think/w3", true, func(rec *Recorder, ht *heat.Sketch) (interface{}, error) {
			return Run(Config{Instance: ins["rated"].ins, Placement: ins["rated"].pl, Mode: Parallel,
				AccessesPerClient: 25, InterAccessTime: 0.7, Seed: 5, Workers: 3, Recorder: rec, Heat: ht})
		}},
		{"run/zeroprob/sequential/w1", false, func(rec *Recorder, ht *heat.Sketch) (interface{}, error) {
			return Run(Config{Instance: ins["zeroprob"].ins, Placement: ins["zeroprob"].pl, Mode: Sequential,
				AccessesPerClient: 40, InterAccessTime: 0.2, Seed: 6, Workers: 1})
		}},
		{"run/onequorum/parallel/w3", false, func(rec *Recorder, ht *heat.Sketch) (interface{}, error) {
			return Run(Config{Instance: ins["onequorum"].ins, Placement: ins["onequorum"].pl, Mode: Parallel,
				AccessesPerClient: 20, Seed: 7, Workers: 3})
		}},
		{"failures/colocated/p0.05/r0/parallel/w1", true, func(rec *Recorder, ht *heat.Sketch) (interface{}, error) {
			return RunWithFailures(FailureConfig{Instance: ins["colocated"].ins, Placement: ins["colocated"].pl, Mode: Parallel,
				NodeFailureProb: 0.05, MaxRetries: 0, RetryPenalty: 0.5,
				AccessesPerClient: 40, Seed: 8, Workers: 1, Recorder: rec, Heat: ht})
		}},
		{"failures/colocated/p0.5/r3/sequential/w3", true, func(rec *Recorder, ht *heat.Sketch) (interface{}, error) {
			return RunWithFailures(FailureConfig{Instance: ins["colocated"].ins, Placement: ins["colocated"].pl, Mode: Sequential,
				NodeFailureProb: 0.5, MaxRetries: 3, RetryPenalty: 0.25,
				AccessesPerClient: 40, Seed: 9, Workers: 3, Recorder: rec, Heat: ht})
		}},
		{"failures/colocated/p1/r3/parallel/w1", true, func(rec *Recorder, ht *heat.Sketch) (interface{}, error) {
			return RunWithFailures(FailureConfig{Instance: ins["colocated"].ins, Placement: ins["colocated"].pl, Mode: Parallel,
				NodeFailureProb: 1, MaxRetries: 3, RetryPenalty: 0.5,
				AccessesPerClient: 10, Seed: 10, Workers: 1, Recorder: rec, Heat: ht})
		}},
		{"failures/colocated/p0.05/r3/parallel/w3", false, func(rec *Recorder, ht *heat.Sketch) (interface{}, error) {
			return RunWithFailures(FailureConfig{Instance: ins["colocated"].ins, Placement: ins["colocated"].pl, Mode: Parallel,
				NodeFailureProb: 0.05, MaxRetries: 3, RetryPenalty: 1,
				AccessesPerClient: 60, Seed: 11, Workers: 3})
		}},
		{"failures/zeroprob/p0.5/r3/sequential/w3", true, func(rec *Recorder, ht *heat.Sketch) (interface{}, error) {
			return RunWithFailures(FailureConfig{Instance: ins["zeroprob"].ins, Placement: ins["zeroprob"].pl, Mode: Sequential,
				NodeFailureProb: 0.5, MaxRetries: 3, RetryPenalty: 0.5,
				AccessesPerClient: 30, Seed: 12, Workers: 3, Recorder: rec, Heat: ht})
		}},
		{"failures/onequorum/p0.5/r0/parallel/w1", false, func(rec *Recorder, ht *heat.Sketch) (interface{}, error) {
			return RunWithFailures(FailureConfig{Instance: ins["onequorum"].ins, Placement: ins["onequorum"].pl, Mode: Parallel,
				NodeFailureProb: 0.5, MaxRetries: 0, RetryPenalty: 0.5,
				AccessesPerClient: 30, Seed: 13, Workers: 1})
		}},
		{"failures/rated/p0.05/r3/parallel/w3", true, func(rec *Recorder, ht *heat.Sketch) (interface{}, error) {
			return RunWithFailures(FailureConfig{Instance: ins["rated"].ins, Placement: ins["rated"].pl, Mode: Parallel,
				NodeFailureProb: 0.05, MaxRetries: 3, RetryPenalty: 0.5,
				AccessesPerClient: 25, Seed: 14, Workers: 3, Recorder: rec, Heat: ht})
		}},
		{"queueing/colocated/svc0/w1", true, func(rec *Recorder, ht *heat.Sketch) (interface{}, error) {
			return RunQueueing(QueueConfig{Instance: ins["colocated"].ins, Placement: ins["colocated"].pl,
				ArrivalRate: 0.5, ServiceMean: 0, AccessesPerClient: 25, Seed: 15, Workers: 1, Recorder: rec, Heat: ht})
		}},
		{"queueing/colocated/svc0.3/w3", true, func(rec *Recorder, ht *heat.Sketch) (interface{}, error) {
			return RunQueueing(QueueConfig{Instance: ins["colocated"].ins, Placement: ins["colocated"].pl,
				ArrivalRate: 0.5, ServiceMean: 0.3, AccessesPerClient: 25, Seed: 16, Workers: 3, Recorder: rec, Heat: ht})
		}},
		{"queueing/zeroprob/svc0.2/w1", false, func(rec *Recorder, ht *heat.Sketch) (interface{}, error) {
			return RunQueueing(QueueConfig{Instance: ins["zeroprob"].ins, Placement: ins["zeroprob"].pl,
				ArrivalRate: 0.8, ServiceMean: 0.2, AccessesPerClient: 30, Seed: 17, Workers: 1})
		}},
		{"queueing/onequorum/svc0.5/w3", true, func(rec *Recorder, ht *heat.Sketch) (interface{}, error) {
			return RunQueueing(QueueConfig{Instance: ins["onequorum"].ins, Placement: ins["onequorum"].pl,
				ArrivalRate: 0.4, ServiceMean: 0.5, AccessesPerClient: 20, Seed: 18, Workers: 3, Recorder: rec, Heat: ht})
		}},
	}
	for _, c := range cases {
		var d outputDigest
		if c.tel {
			rec := NewRecorder(1<<12, 3, 0.5)
			rec.EnableSLO(2.0)
			ht := heat.New(heat.Options{EpochLen: 1, HalfLife: 4})
			prev := obs.Active()
			col := obs.Enable(obs.NewCollector())
			stats, err := c.run(rec, ht)
			obs.Enable(prev)
			if err != nil {
				t.Fatalf("%s: %v", c.name, err)
			}
			d.stats(stats)
			d.value(reflect.ValueOf(rec.Traces()))
			d.value(reflect.ValueOf(rec.Series()))
			d.value(reflect.ValueOf(rec.SLOWindows()))
			d.u64(uint64(rec.Recorded()), uint64(rec.Dropped()))
			d.u64(uint64(ht.Accesses()), uint64(ht.Messages()), uint64(ht.Late()), uint64(ht.Epochs()))
			d.value(reflect.ValueOf(ht.ClientTotals()))
			d.value(reflect.ValueOf(ht.NodeTotals()))
			d.value(reflect.ValueOf(ht.ClientRates()))
			d.value(reflect.ValueOf(ht.NodeRates()))
			snap := col.Snapshot()
			var names []string
			for k := range snap.Counters {
				// netsim.crash_draws postdates the recorded digests;
				// TestCrashDrawsPerAccess pins it exactly.
				if strings.HasPrefix(k, "netsim.") && k != "netsim.crash_draws" {
					names = append(names, k)
				}
			}
			sort.Strings(names)
			for _, k := range names {
				d.str(k)
				d.u64(uint64(snap.Counters[k]))
			}
			d.u64(uint64(snap.Histograms["netsim.access_latency"].Count))
		} else {
			stats, err := c.run(nil, nil)
			if err != nil {
				t.Fatalf("%s: %v", c.name, err)
			}
			d.stats(stats)
		}
		got := fmt.Sprintf("%016x", d.sum())
		if want := simulatorGolden[c.name]; got != want {
			t.Errorf("%s: output digest %s, want %s", c.name, got, want)
		}
	}
}

// simulatorGolden holds the digests TestSimulatorOutputGolden compares.
var simulatorGolden = map[string]string{
	"run/colocated/parallel/think/w1":          "058c925dddd85d4e",
	"run/colocated/sequential/w3":              "64274f4b05686644",
	"run/rated/think/w3":                       "7aa2c76b2cf414f9",
	"run/zeroprob/sequential/w1":               "2340bffd6b882e45",
	"run/onequorum/parallel/w3":                "da6c29ea94ebbcb4",
	"failures/colocated/p0.05/r0/parallel/w1":  "39fc7149f1b7ee2e",
	"failures/colocated/p0.5/r3/sequential/w3": "9bac3120e3f9200a",
	"failures/colocated/p1/r3/parallel/w1":     "04c5818deb619525",
	"failures/colocated/p0.05/r3/parallel/w3":  "6c088fa61c84645b",
	"failures/zeroprob/p0.5/r3/sequential/w3":  "81714013431f508d",
	"failures/onequorum/p0.5/r0/parallel/w1":   "0e8f1ce8939cde5d",
	"failures/rated/p0.05/r3/parallel/w3":      "eda01e75e3ec448a",
	"queueing/colocated/svc0/w1":               "dfe4f4be1326042a",
	"queueing/colocated/svc0.3/w3":             "e9566b073dae09bc",
	"queueing/zeroprob/svc0.2/w1":              "a54219c333dd40bd",
	"queueing/onequorum/svc0.5/w3":             "a231af2d108363a1",
}

type goldenInstance struct {
	ins *placement.Instance
	pl  placement.Placement
}

// goldenInstances builds the golden table's instances: Majority(9,5) on a
// 4×3 grid with nine elements on six nodes ("colocated"), the same
// placement under rated clients one of which issues nothing ("rated"),
// Grid(3) under a strategy whose first, inner and last quorums have
// probability zero ("zeroprob"), and a one-quorum system with two of its
// three elements on one node ("onequorum").
func goldenInstances(t *testing.T) map[string]goldenInstance {
	t.Helper()
	g := graph.Grid2D(4, 3)
	m, err := graph.NewMetricFromGraph(g)
	if err != nil {
		t.Fatal(err)
	}
	n := m.N()
	caps := make([]float64, n)
	for v := range caps {
		caps[v] = 1 + float64(v%3)
	}
	build := func(sys *quorum.System, st quorum.Strategy, nodes []int, rates []float64) goldenInstance {
		ins, err := placement.NewInstance(m, caps, sys, st)
		if err != nil {
			t.Fatal(err)
		}
		if rates != nil {
			if err := ins.SetRates(rates); err != nil {
				t.Fatal(err)
			}
		}
		return goldenInstance{ins: ins, pl: placement.NewPlacement(nodes)}
	}
	maj := quorum.Majority(9, 5)
	colocated := []int{0, 0, 0, 4, 4, 7, 9, 11, 2}
	rates := make([]float64, n)
	for v := range rates {
		rates[v] = float64(1 + v%4)
	}
	rates[5] = 0
	zp, err := quorum.NewStrategy([]float64{0, 0.25, 0, 0.125, 0, 0.5, 0.125, 0, 0})
	if err != nil {
		t.Fatal(err)
	}
	one, err := quorum.NewSystem("one", 3, [][]int{{0, 1, 2}})
	if err != nil {
		t.Fatal(err)
	}
	return map[string]goldenInstance{
		"colocated": build(maj, quorum.Uniform(maj.NumQuorums()), colocated, nil),
		"rated":     build(maj, quorum.Uniform(maj.NumQuorums()), colocated, rates),
		"zeroprob":  build(quorum.Grid(3), zp, []int{1, 3, 5, 6, 8, 10, 11, 0, 7}, nil),
		"onequorum": build(one, quorum.Uniform(1), []int{6, 6, 2}, nil),
	}
}

// outputDigest is an FNV-1a hash over simulator outputs.
type outputDigest struct {
	buf []byte
}

func (d *outputDigest) u64(xs ...uint64) {
	for _, x := range xs {
		d.buf = binary.LittleEndian.AppendUint64(d.buf, x)
	}
}

func (d *outputDigest) str(s string) {
	d.u64(uint64(len(s)))
	d.buf = append(d.buf, s...)
}

// stats hashes a stats struct, unexported fields included; for Stats it
// also hashes the p50 and p99 (which fill the sorted-latency cache).
func (d *outputDigest) stats(v interface{}) {
	if s, ok := v.(*Stats); ok {
		d.u64(math.Float64bits(s.Percentile(0.5)), math.Float64bits(s.Percentile(0.99)))
	}
	d.value(reflect.ValueOf(v))
}

// value hashes v by walking it: floats as their bits, slices with their
// length, pointers with a nil marker, structs field by field.
func (d *outputDigest) value(v reflect.Value) {
	switch v.Kind() {
	case reflect.Ptr:
		if v.IsNil() {
			d.u64(0)
			return
		}
		d.u64(1)
		d.value(v.Elem())
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			d.value(v.Field(i))
		}
	case reflect.Slice:
		if v.IsNil() {
			d.u64(math.MaxUint64)
			return
		}
		d.u64(uint64(v.Len()))
		for i := 0; i < v.Len(); i++ {
			d.value(v.Index(i))
		}
	case reflect.Float64:
		d.u64(math.Float64bits(v.Float()))
	case reflect.Int, reflect.Int32, reflect.Int64:
		d.u64(uint64(v.Int()))
	case reflect.Bool:
		if v.Bool() {
			d.u64(1)
		} else {
			d.u64(0)
		}
	case reflect.String:
		d.str(v.String())
	default:
		panic(fmt.Sprintf("outputDigest: unsupported kind %v", v.Kind()))
	}
}

func (d *outputDigest) sum() uint64 {
	h := fnv.New64a()
	h.Write(d.buf)
	return h.Sum64()
}
