// Package agg collapses large client populations into the per-node demand
// vectors the solvers consume. The QPP objective (Problem 2.1 with the §6
// rate extension) is linear in client weight: two clients at the same node
// contribute exactly like one client carrying their combined weight, so a
// population of millions reduces to one weight per network node — the Rates
// vector of placement.Instance — with no loss of information. Aggregation
// is therefore the scaling lever for the client dimension: solver cost
// depends on the n-node network, never on the raw client count.
//
// Determinism contract: a Demand accumulates per-node partial sums, and a
// node's sum is the only float state a client touches. When client weights
// are integers (the common "k clients at node v" shape), every per-node sum
// is exact until 2^53, so any arrival order yields the bitwise-identical
// Rates vector — and hence a bitwise-identical solve. Fractional weights
// are subject to ordinary summation rounding; the tests pin them to 1e-12
// relative agreement across orderings.
package agg

import (
	"fmt"
	"math"

	"quorumplace/internal/obs"
)

// Client is one demand source: Weight (access rate, relative) attached to a
// network node. Weight must be non-negative and finite.
type Client struct {
	Node   int
	Weight float64
}

// Demand is an accumulating per-node weight vector for an n-node network.
// The zero Demand is not usable; construct with NewDemand.
type Demand struct {
	w       []float64
	clients int64
}

// NewDemand returns an empty demand vector for an n-node network.
func NewDemand(n int) *Demand {
	if n <= 0 {
		panic(fmt.Sprintf("agg: demand over %d nodes", n))
	}
	return &Demand{w: make([]float64, n)}
}

// Nodes returns the network size the demand is defined over.
func (d *Demand) Nodes() int { return len(d.w) }

// Clients returns the number of clients accumulated so far (not their
// weight — see Total).
func (d *Demand) Clients() int64 { return d.clients }

// Total returns the accumulated weight across all nodes.
func (d *Demand) Total() float64 {
	s := 0.0
	for _, x := range d.w {
		s += x
	}
	return s
}

// Add accumulates one client of the given weight at node v.
func (d *Demand) Add(v int, weight float64) error {
	if v < 0 || v >= len(d.w) {
		return fmt.Errorf("agg: client node %d out of range [0,%d)", v, len(d.w))
	}
	if weight < 0 || math.IsNaN(weight) || math.IsInf(weight, 0) {
		return fmt.Errorf("agg: client weight %v at node %d", weight, v)
	}
	d.w[v] += weight
	d.clients++
	return nil
}

// AddClients accumulates a batch of clients. On error the demand is left
// with every client before the offending one applied. This is the
// million-client ingestion hot path: the loop touches only the per-node sum
// table, so it runs at memory speed, a few nanoseconds per client.
func (d *Demand) AddClients(cs []Client) error {
	w := d.w
	n := len(w)
	for i, c := range cs {
		if uint(c.Node) >= uint(n) || c.Weight < 0 || math.IsNaN(c.Weight) || math.IsInf(c.Weight, 0) {
			d.clients += int64(i)
			if uint(c.Node) >= uint(n) {
				return fmt.Errorf("agg: client node %d out of range [0,%d)", c.Node, n)
			}
			return fmt.Errorf("agg: client weight %v at node %d", c.Weight, c.Node)
		}
		w[c.Node] += c.Weight
	}
	d.clients += int64(len(cs))
	obs.Count("agg.clients", int64(len(cs)))
	return nil
}

// Rates returns a copy of the per-node weight vector, ready for
// placement.Instance.SetRates. At least one client with positive weight
// must have been accumulated (SetRates rejects all-zero rates).
func (d *Demand) Rates() []float64 { return append([]float64(nil), d.w...) }
