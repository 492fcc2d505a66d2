package daemon

import (
	"fmt"
	"math/rand"
	"testing"

	"quorumplace/internal/graph"
	"quorumplace/internal/obs"
	"quorumplace/internal/placement"
	"quorumplace/internal/quorum"
)

// benchDaemon builds a steady-state daemon over a mid-size instance
// (universe 16, 32 nodes) with a single shard, so every tick re-solves the
// full shard LP — the shape both benchmark modes share.
func benchDaemon(b *testing.B) *Daemon {
	d := newBenchDaemon(b)
	// A deterministic hot-spot so the tick has real drift to chew on.
	for i := 0; i < 64; i++ {
		d.Observe(0.1*float64(i), i%3, []int{i % 16})
	}
	return d
}

// newBenchDaemon builds benchDaemon's daemon before any observation.
func newBenchDaemon(b *testing.B) *Daemon {
	b.Helper()
	rng := rand.New(rand.NewSource(99))
	n := 32
	g := graph.ErdosRenyiConnected(n, 0.25, 1, 4, rng)
	m, err := graph.NewMetricFromGraph(g)
	if err != nil {
		b.Fatal(err)
	}
	sys := quorum.Majority(16, 9)
	caps := make([]float64, n)
	for i := range caps {
		caps[i] = 1.2
	}
	ins, err := placement.NewInstance(m, caps, sys, quorum.Uniform(sys.NumQuorums()))
	if err != nil {
		b.Fatal(err)
	}
	initial, err := placement.RandomFeasiblePlacement(ins, rng, 100)
	if err != nil {
		b.Fatal(err)
	}
	d, err := New(Config{
		Instance:     ins,
		Initial:      initial,
		Shards:       1,
		Lambda:       0.5,
		AlwaysReplan: true,
	})
	if err != nil {
		b.Fatal(err)
	}
	return d
}

// BenchmarkDaemonTick measures one control-loop tick in steady-state repair
// mode. mode=cold discards the retained LP basis before every tick (every
// solve rebuilds the tableau and runs phase 1); mode=warm reuses the basis
// recorded by the previous tick. cmd/benchdiff's table holds warm ≥ 3×
// faster than cold. Each mode reports its tick's simplex pivots
// (lp.pivots), counted in one untimed telemetry-on tick before the timed
// loop, so the count is exact and does not depend on b.N; the table gates
// it.
func BenchmarkDaemonTick(b *testing.B) {
	b.Run("mode=cold", func(b *testing.B) {
		d := benchDaemon(b)
		if _, err := d.Tick(); err != nil {
			b.Fatal(err)
		}
		pivots := tickPivots(b, func() (TickRecord, error) {
			d.ResetWarm()
			return d.Tick()
		})
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			d.ResetWarm()
			if _, err := d.Tick(); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(float64(pivots), "pivots/op")
	})
	b.Run("mode=warm", func(b *testing.B) {
		d := benchDaemon(b)
		// Warm-up until the loop reaches steady state: the first tick is
		// necessarily cold, and a tick that still moves elements changes
		// the residual capacities enough to force the next solve cold too.
		warmed := false
		for i := 0; i < 8 && !warmed; i++ {
			rec, err := d.Tick()
			if err != nil {
				b.Fatal(err)
			}
			warmed = rec.Warm
		}
		if !warmed {
			b.Fatal("daemon never reached a warm steady state")
		}
		tick := func() (TickRecord, error) {
			rec, err := d.Tick()
			if err == nil && !rec.Warm {
				b.Fatal("steady-state tick fell back to cold")
			}
			return rec, err
		}
		pivots := tickPivots(b, tick)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := tick(); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(float64(pivots), "pivots/op")
	})
}

// tickPivots runs tick once with telemetry on and returns its simplex
// pivots.
func tickPivots(b *testing.B, tick func() (TickRecord, error)) int64 {
	b.Helper()
	c := obs.Enable(nil)
	_, err := tick()
	obs.Disable()
	if err != nil {
		b.Fatal(err)
	}
	return c.Snapshot().Counter("lp.pivots")
}

// BenchmarkDaemonUptime measures one tick after a long uptime, on
// benchDaemon's instance in steady-state repair mode. Set-up observes the
// given number of epochs, four accesses each, through Observe alone and
// runs one untimed tick; each timed iteration observes the next epoch and
// ticks. A tick's rate read folds at most the heat window of W+1 epochs
// plus the one it seals, whatever the uptime. folded_epochs/op counts that
// work exactly: one untimed tick with telemetry on, after set-up and
// before the timed loop, so it does not depend on b.N. cmd/benchdiff's
// table gates it.
func BenchmarkDaemonUptime(b *testing.B) {
	nodes := make([][]int, 16)
	for v := range nodes {
		nodes[v] = []int{v}
	}
	observeEpoch := func(d *Daemon, e int) {
		for j := 0; j < 4; j++ {
			i := 4*e + j
			d.Observe(float64(e)+(float64(j)+0.5)/4, i%3, nodes[i%16])
		}
	}
	for _, epochs := range []int{10, 1000, 100000} {
		b.Run(fmt.Sprintf("epochs=%d", epochs), func(b *testing.B) {
			d := newBenchDaemon(b)
			for e := 0; e < epochs; e++ {
				observeEpoch(d, e)
			}
			if _, err := d.Tick(); err != nil {
				b.Fatal(err)
			}
			c := obs.Enable(nil)
			observeEpoch(d, epochs)
			_, err := d.Tick()
			obs.Disable()
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				observeEpoch(d, epochs+1+i)
				if _, err := d.Tick(); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(c.Snapshot().Counter("heat.folded_epochs")), "folded_epochs/op")
		})
	}
}
