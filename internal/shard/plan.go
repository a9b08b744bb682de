// Package shard breaks the one-graph-per-process ceiling: it partitions a
// graph — materialised or streamed — into per-shard CSR + feature slabs
// with halo (boundary) tables, runs K-hop propagation across shard edges by
// exchanging halo rows between hops, and exports a model's served logits
// table from the shards (Table): embedding and head per shard, rows
// scattered to global ids. Sharding bounds what a process holds while
// filling; the table itself is the same N×C matrix at every shard count, so
// decoupled architectures (SGC, GAMLP, MLP) answer bit-identically to the
// unsharded server however they were filled, and message-passing
// architectures, whose whole serving state is that table, have nothing to
// shard. Construction is partition-aware: ownership comes from
// internal/partition's METIS on the graph (or on the community quotient of a
// streamed spec), so shard boundaries cut few edges and halos stay small.
package shard

import (
	"fmt"
	"math/rand"

	"repro/internal/datasets"
	"repro/internal/graph"
	"repro/internal/partition"
)

// Plan assigns every node to exactly one shard and fixes the global↔local
// id mapping: shard s owns the nodes {v : Owner(v) = s}, in ascending
// global order, and LocalID(v) is v's rank within its owner. Plans are
// immutable once built.
type Plan struct {
	shards int
	owner  []int32 // owner[v] = shard of global node v
	rank   []int32 // rank[v] = v's local id within its owner shard
	counts []int   // counts[s] = nodes owned by shard s
}

// NewPlan builds a plan from an ownership vector. Every owner must be in
// [0, shards) and every shard must own at least one node.
func NewPlan(owner []int32, shards int) (*Plan, error) {
	if shards < 1 {
		return nil, fmt.Errorf("shard: NewPlan: %d shards < 1", shards)
	}
	if len(owner) < shards {
		return nil, fmt.Errorf("shard: NewPlan: %d nodes < %d shards", len(owner), shards)
	}
	p := &Plan{
		shards: shards,
		owner:  owner,
		rank:   make([]int32, len(owner)),
		counts: make([]int, shards),
	}
	for v, s := range owner {
		if s < 0 || int(s) >= shards {
			return nil, fmt.Errorf("shard: NewPlan: node %d owned by shard %d outside [0,%d)", v, s, shards)
		}
		p.rank[v] = int32(p.counts[s])
		p.counts[s]++
	}
	for s, c := range p.counts {
		if c == 0 {
			return nil, fmt.Errorf("shard: NewPlan: shard %d owns no nodes", s)
		}
	}
	return p, nil
}

// NumShards returns the shard count.
func (p *Plan) NumShards() int { return p.shards }

// N returns the total node count.
func (p *Plan) N() int { return len(p.owner) }

// Owner returns the shard owning global node v.
func (p *Plan) Owner(v int) int { return int(p.owner[v]) }

// LocalID returns v's local row index within its owner shard.
func (p *Plan) LocalID(v int) int { return int(p.rank[v]) }

// Size returns the number of nodes shard s owns.
func (p *Plan) Size(s int) int { return p.counts[s] }

// NodesByShard returns, per shard, the sorted global ids it owns (index i
// of shard s's slice is the node with LocalID i).
func (p *Plan) NodesByShard() [][]int {
	out := make([][]int, p.shards)
	for s, c := range p.counts {
		out[s] = make([]int, 0, c)
	}
	for v, s := range p.owner {
		out[s] = append(out[s], v)
	}
	return out
}

// PlanFromGraph plans shards for a materialised graph with METIS (balanced
// k-way edge-cut partitioning), so cross-shard edges — and with them halo
// sizes and exchange traffic — stay low. shards=1 yields the trivial plan.
func PlanFromGraph(g *graph.Graph, shards int, seed int64) (*Plan, error) {
	if shards < 1 {
		return nil, fmt.Errorf("shard: PlanFromGraph: %d shards < 1", shards)
	}
	if g.N < shards {
		return nil, fmt.Errorf("shard: PlanFromGraph: %d nodes < %d shards", g.N, shards)
	}
	owner := make([]int32, g.N)
	if shards > 1 {
		part := partition.Metis(g, shards, rand.New(rand.NewSource(seed)))
		for v, s := range part {
			owner[v] = int32(s)
		}
	}
	return NewPlan(owner, shards)
}

// PlanFromStream plans shards for a streamed spec without materialising it:
// one bounded-memory pass accumulates the community quotient graph (spec
// communities as super-nodes, cross-community edge presence as super-
// edges), METIS partitions the quotient, and every node inherits its
// community's shard. Communities have near-equal sizes by construction, so
// balancing community counts balances node counts.
func PlanFromStream(spec datasets.StreamSpec, shards int, seed int64) (*Plan, error) {
	if err := spec.Validate(); err != nil {
		return nil, fmt.Errorf("shard: PlanFromStream: %w", err)
	}
	if shards < 1 {
		return nil, fmt.Errorf("shard: PlanFromStream: %d shards < 1", shards)
	}
	c := spec.NumCommunities()
	if c < shards {
		return nil, fmt.Errorf("shard: PlanFromStream: %d communities < %d shards", c, shards)
	}
	owner := make([]int32, spec.Nodes)
	if shards > 1 {
		cross := make([]bool, c*c)
		spec.ForEachEdge(func(u, v int) {
			a, b := spec.Community(u), spec.Community(v)
			if a != b {
				cross[a*c+b] = true
			}
		})
		var edges [][2]int
		for a := 0; a < c; a++ {
			for b := a + 1; b < c; b++ {
				if cross[a*c+b] || cross[b*c+a] {
					edges = append(edges, [2]int{a, b})
				}
			}
		}
		quotient := graph.New(c, edges, nil, nil, 0)
		part := partition.Metis(quotient, shards, rand.New(rand.NewSource(seed)))
		for v := range owner {
			owner[v] = int32(part[spec.Community(v)])
		}
	}
	return NewPlan(owner, shards)
}
