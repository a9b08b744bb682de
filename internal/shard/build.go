package shard

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/datasets"
	"repro/internal/graph"
	"repro/internal/matrix"
	"repro/internal/sparse"
)

// haloRef wires one halo (boundary) column of a shard to its owner: pos is
// the column position in this shard's Cols, and (owner, row) locate the
// node's live row in the owner shard's working slab. Exchange copies
// owner-slab rows into halo positions through these references.
type haloRef struct {
	pos   int32
	owner int32
	row   int32
}

// Shard is one partition's slice of the graph: the locally owned nodes with
// their feature rows and labels, plus the normalised adjacency rows of
// those nodes over the *column space* Cols — the locally owned nodes
// together with the halo (boundary) nodes reachable in one hop. Cols is
// sorted by global id, so a local SpMM accumulates each output row in
// ascending global-column order — exactly the order of the unsharded
// kernel, which is what makes sharded propagation bit-identical.
type Shard struct {
	// ID is the shard index within its Sharded set.
	ID int
	// Nodes lists the owned global ids, ascending; index i is local row i.
	Nodes []int
	// Cols lists the column-space global ids (locals ∪ halo), ascending.
	Cols []int
	// Adj is the len(Nodes) × len(Cols) normalised self-looped adjacency
	// slice, with column indices into Cols.
	Adj *sparse.CSR
	// X holds the owned nodes' feature rows (len(Nodes) × F).
	X *matrix.Dense
	// Labels holds the owned nodes' classes (nil when the source graph is
	// unlabelled).
	Labels []int

	plan       *sparse.Plan // blocked layout of Adj, built once
	colOfLocal []int32      // position in Cols of Nodes[i]
	halos      []haloRef
}

// Halo returns the number of halo (non-owned) columns of the shard.
func (s *Shard) Halo() int { return len(s.halos) }

// Bytes estimates the shard's resident memory: the CSR counted twice (the
// row layout plus its blocked propagation plan), the feature slab, labels
// and the id/halo tables. This is the per-process figure the scale bench
// tracks against shard count.
func (s *Shard) Bytes() int {
	csr := 8 * (len(s.Adj.RowPtr) + len(s.Adj.ColIdx) + len(s.Adj.Val))
	b := 2 * csr
	b += 8 * len(s.X.Data)
	b += 8 * len(s.Labels)
	b += 8 * (len(s.Nodes) + len(s.Cols))
	b += 4*len(s.colOfLocal) + 12*len(s.halos)
	return b
}

// Sharded is a complete sharded graph: every shard plus the plan that maps
// global ids to (owner, local row). It is the in-process stand-in for a
// shard-per-process fleet — each Shard only ever touches its own rows, and
// all cross-shard traffic goes through Exchange.
type Sharded struct {
	// Plan is the ownership and id mapping.
	Plan *Plan
	// Shards holds one entry per shard, indexed by shard id.
	Shards []*Shard
	// Features and Classes mirror the source graph's dimensions.
	Features, Classes int
	// Norm is the adjacency normalisation baked into every shard's Adj.
	Norm sparse.NormKind
}

// Bytes returns the summed Shard.Bytes across the set.
func (sh *Sharded) Bytes() int {
	total := 0
	for _, s := range sh.Shards {
		total += s.Bytes()
	}
	return total
}

// MaxShardBytes returns the largest single-shard footprint — the per-
// process peak a real fleet would see.
func (sh *Sharded) MaxShardBytes() int {
	max := 0
	for _, s := range sh.Shards {
		if b := s.Bytes(); b > max {
			max = b
		}
	}
	return max
}

// BuildFromGraph slices a materialised graph into shards under plan: each
// shard receives its rows of g's normalised adjacency (values copied
// verbatim, so they are bit-equal to the unsharded Ã), its feature rows and
// labels, and the halo tables. The graph must carry features.
func BuildFromGraph(g *graph.Graph, p *Plan, kind sparse.NormKind) (*Sharded, error) {
	if g.X == nil {
		return nil, fmt.Errorf("shard: BuildFromGraph: graph has no features")
	}
	if p.N() != g.N {
		return nil, fmt.Errorf("shard: BuildFromGraph: plan covers %d nodes, graph has %d", p.N(), g.N)
	}
	full := g.NormAdj(kind)
	sh := &Sharded{
		Plan: p, Shards: make([]*Shard, p.NumShards()),
		Features: g.X.Cols, Classes: g.Classes, Norm: kind,
	}
	nodesByShard := p.NodesByShard()
	// pos maps a global id to its position in the current shard's Cols. Each
	// shard writes the entries of its own Cols, the only ones it reads, so
	// entries left by earlier shards need no reset.
	pos := make([]int32, g.N)
	for s := range sh.Shards {
		nodes := nodesByShard[s]
		var cols []int
		for _, v := range nodes {
			cs, _ := full.Row(v)
			cols = append(cols, cs...)
		}
		cols = sortedUnique(cols)
		for i, c := range cols {
			pos[c] = int32(i)
		}
		adj := &sparse.CSR{NRows: len(nodes), NCols: len(cols), RowPtr: make([]int, len(nodes)+1)}
		for i, v := range nodes {
			cs, vs := full.Row(v)
			for k, c := range cs {
				adj.ColIdx = append(adj.ColIdx, int(pos[c]))
				adj.Val = append(adj.Val, vs[k])
			}
			adj.RowPtr[i+1] = len(adj.ColIdx)
		}
		var labels []int
		if g.Labels != nil {
			labels = make([]int, len(nodes))
			for i, v := range nodes {
				labels[i] = g.Labels[v]
			}
		}
		sh.Shards[s] = &Shard{
			ID: s, Nodes: nodes, Cols: cols, Adj: adj,
			X: matrix.SelectRows(g.X, nodes), Labels: labels,
		}
	}
	sh.finalize()
	return sh, nil
}

// BuildFromStream constructs the same sharded layout directly from an edge
// stream, never materialising the full edge list: per shard, one replay
// collects and deduplicates only that shard's adjacency rows. Two rounds
// run over all shards — round one records every node's degree (each shard
// knows its own nodes' degrees after deduplication; halo degrees come from
// the other shards' round-one results), round two rebuilds the rows and
// emits the normalised CSR. Peak transient memory beyond the finished
// shards is a single shard's rows plus the global degree vector.
func BuildFromStream(spec datasets.StreamSpec, p *Plan, kind sparse.NormKind) (*Sharded, error) {
	if err := spec.Validate(); err != nil {
		return nil, fmt.Errorf("shard: BuildFromStream: %w", err)
	}
	if p.N() != spec.Nodes {
		return nil, fmt.Errorf("shard: BuildFromStream: plan covers %d nodes, spec has %d", p.N(), spec.Nodes)
	}
	nodesByShard := p.NodesByShard()

	// Round one: per-shard row pass for the deduplicated degrees (self-loop
	// included, matching WithSelfLoops semantics on a stream with no
	// self-draws).
	deg := make([]int32, spec.Nodes)
	for s := 0; s < p.NumShards(); s++ {
		rows := streamRows(spec, p, s, nodesByShard[s])
		for i, v := range nodesByShard[s] {
			deg[v] = int32(len(rows[i]))
		}
	}

	sh := &Sharded{
		Plan: p, Shards: make([]*Shard, p.NumShards()),
		Features: spec.Features, Classes: spec.Classes, Norm: kind,
	}
	// Round two: rebuild each shard's rows and emit its normalised CSR,
	// feature slab and labels.
	pos := make([]int32, spec.Nodes) // as in BuildFromGraph
	for s := range sh.Shards {
		nodes := nodesByShard[s]
		rows := streamRows(spec, p, s, nodes)
		var cols []int
		for _, row := range rows {
			for _, c := range row {
				cols = append(cols, int(c))
			}
		}
		cols = sortedUnique(cols)
		for i, c := range cols {
			pos[c] = int32(i)
		}
		adj := &sparse.CSR{NRows: len(nodes), NCols: len(cols), RowPtr: make([]int, len(nodes)+1)}
		for i, row := range rows {
			u := nodes[i]
			for _, c := range row {
				adj.ColIdx = append(adj.ColIdx, int(pos[c]))
				adj.Val = append(adj.Val, normValue(kind, float64(deg[u]), float64(deg[c])))
			}
			adj.RowPtr[i+1] = len(adj.ColIdx)
		}
		x := matrix.New(len(nodes), spec.Features)
		labels := make([]int, len(nodes))
		for i, v := range nodes {
			spec.FeatureRow(v, x.Row(i))
			labels[i] = spec.Label(v)
		}
		sh.Shards[s] = &Shard{ID: s, Nodes: nodes, Cols: cols, Adj: adj, X: x, Labels: labels}
	}
	sh.finalize()
	return sh, nil
}

// streamRows replays the edge stream once and returns shard s's adjacency
// rows: for each owned node, the sorted, deduplicated global neighbour ids
// including the node itself (the Â = A + I self-loop).
func streamRows(spec datasets.StreamSpec, p *Plan, s int, nodes []int) [][]int32 {
	rows := make([][]int32, len(nodes))
	spec.ForEachEdge(func(u, v int) {
		if p.Owner(u) == s {
			rows[p.LocalID(u)] = append(rows[p.LocalID(u)], int32(v))
		}
		if p.Owner(v) == s {
			rows[p.LocalID(v)] = append(rows[p.LocalID(v)], int32(u))
		}
	})
	for i := range rows {
		rows[i] = append(rows[i], int32(nodes[i]))
		sort.Slice(rows[i], func(a, b int) bool { return rows[i][a] < rows[i][b] })
		rows[i] = uniqueSorted32(rows[i])
	}
	return rows
}

// normValue is the Eq. (1) entry value for a unit adjacency entry with row
// degree du and column degree dj — the exact floating-point expression
// sparse.Normalized applies to a unit Â entry, so stream-built shards are
// bit-equal to graph-built ones.
func normValue(kind sparse.NormKind, du, dj float64) float64 {
	switch kind {
	case sparse.NormRW:
		return 1 / dj
	case sparse.NormReverse:
		return 1 / du
	default:
		return 1 / (sqrt(du) * sqrt(dj))
	}
}

// finalize builds the per-shard local-column and halo tables; every shard's
// Nodes/Cols must be set.
func (sh *Sharded) finalize() {
	p := sh.Plan
	for _, s := range sh.Shards {
		s.colOfLocal = make([]int32, len(s.Nodes))
		local := 0
		for pos, v := range s.Cols {
			if p.Owner(v) == s.ID {
				s.colOfLocal[p.LocalID(v)] = int32(pos)
				local++
			}
		}
		s.halos = make([]haloRef, 0, len(s.Cols)-local)
	}
	// Halo references need every owner's colOfLocal, so wire them second.
	for _, s := range sh.Shards {
		for pos, v := range s.Cols {
			if o := p.Owner(v); o != s.ID {
				s.halos = append(s.halos, haloRef{
					pos:   int32(pos),
					owner: int32(o),
					row:   sh.Shards[o].colOfLocal[p.LocalID(v)],
				})
			}
		}
		s.plan = sparse.NewPlan(s.Adj)
	}
}

// sortedUnique sorts ints ascending and drops duplicates in place.
func sortedUnique(a []int) []int {
	sort.Ints(a)
	out := a[:0]
	for _, v := range a {
		if len(out) == 0 || v != out[len(out)-1] {
			out = append(out, v)
		}
	}
	return out
}

// uniqueSorted32 drops duplicates from a sorted int32 slice in place.
func uniqueSorted32(a []int32) []int32 {
	out := a[:0]
	for _, v := range a {
		if len(out) == 0 || v != out[len(out)-1] {
			out = append(out, v)
		}
	}
	return out
}

// sqrt mirrors sparse's normalisation helper (degrees here are always > 0
// thanks to the self-loop, but the guard keeps the expression identical).
func sqrt(x float64) float64 {
	if x <= 0 {
		return 0
	}
	return math.Sqrt(x)
}
