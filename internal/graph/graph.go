// Package graph defines the attributed-graph data model shared by every
// subsystem of the AdaFGL reproduction: node features, labels, train/val/test
// masks and an undirected topology, together with the homophily metrics of
// Eq. (2) of the paper and the structural operations (subgraph induction,
// edge perturbation) needed by the federated data-simulation pipelines.
package graph

import (
	"cmp"
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"sync"

	"repro/internal/matrix"
	"repro/internal/sparse"
)

// Graph is an undirected attributed graph for semi-supervised node
// classification. Edges holds each undirected edge once with u <= v; Adj is
// the symmetric adjacency derived from Edges (without self-loops unless a
// self-edge is present).
type Graph struct {
	N     int      // number of nodes
	Edges [][2]int // canonical undirected edge list, u <= v, no duplicates
	// X is the N x F feature matrix. Once a model is bound to the graph its
	// contents are immutable: PropagatedX caches products of it, keyed by
	// the matrix's identity. To change features, assign a new matrix — the
	// cache follows — never write into the bound one.
	X                            *matrix.Dense
	Labels                       []int // N class ids in [0, Classes)
	Classes                      int
	TrainMask, ValMask, TestMask []bool

	// Eval, when non-nil, marks this graph as the *observed* (training)
	// graph of an inductive protocol: models train on this graph's topology
	// but are evaluated on Eval (the full graph including unseen test nodes
	// and their edges). Transductive graphs leave Eval nil.
	Eval *Graph

	adjMu sync.Mutex  // guards adj, norm and propX: clients may share a graph across goroutines
	adj   *sparse.CSR // lazily built
	norm  map[sparse.NormKind]*sparse.Plan
	propX map[sparse.NormKind]propagated
}

// propagated is one PropagatedX cache entry: ax = plan·x. It is current only
// while the graph still holds that plan and that feature matrix.
type propagated struct {
	plan  *sparse.Plan
	x, ax *matrix.Dense
}

// New assembles a graph, canonicalising the edge list (deduplicated, u <= v).
func New(n int, edges [][2]int, x *matrix.Dense, labels []int, classes int) *Graph {
	if x != nil && x.Rows != n {
		panic(fmt.Sprintf("graph: X has %d rows for %d nodes", x.Rows, n))
	}
	if labels != nil && len(labels) != n {
		panic(fmt.Sprintf("graph: %d labels for %d nodes", len(labels), n))
	}
	g := &Graph{
		N: n, X: x, Labels: labels, Classes: classes,
		TrainMask: make([]bool, n), ValMask: make([]bool, n), TestMask: make([]bool, n),
	}
	g.Edges = Canonicalize(edges)
	return g
}

// Canonicalize deduplicates an undirected edge list and orders endpoints
// u <= v, dropping nothing else (self-loops are kept). A list that is already
// canonical — u <= v, strictly ascending, which is every list a checkpoint
// this repo wrote carries — is recognised in one pass and copied; anything
// else is deduplicated and sorted, so no caller's input is ever trusted. It
// allocates in proportion to len(edges) whatever ids the edges carry.
func Canonicalize(edges [][2]int) [][2]int {
	if isCanonical(edges) {
		return append(make([][2]int, 0, len(edges)), edges...)
	}
	out := make([][2]int, len(edges))
	lo, hi := edges[0][0], edges[0][0]
	for i, e := range edges {
		if e[0] > e[1] {
			e[0], e[1] = e[1], e[0]
		}
		out[i] = e
		lo, hi = min(lo, e[0]), max(hi, e[0])
	}
	// Node ids are dense in every graph this repo builds, so bucket by the
	// smaller endpoint with a counting pass and sort only inside buckets. Ids
	// spread wider than the list is long (the unsigned difference cannot
	// overflow) would size the counts by the id, not the input: sort whole.
	span := uint64(hi) - uint64(lo)
	if span > uint64(2*len(edges)) {
		slices.SortFunc(out, compareEdges)
		return slices.Compact(out)
	}
	// next[k] is where bucket lo+k's next edge goes: the bucket's start
	// before the scatter, its end after.
	next := make([]int, span+2)
	for _, e := range out {
		next[e[0]-lo+1]++
	}
	for k := range next[1:] {
		next[k+1] += next[k]
	}
	sorted := make([][2]int, len(out))
	for _, e := range out {
		k := e[0] - lo
		sorted[next[k]] = e
		next[k]++
	}
	start := 0
	for _, end := range next[:span+1] {
		slices.SortFunc(sorted[start:end], compareEdges)
		start = end
	}
	return slices.Compact(sorted)
}

// compareEdges orders edges by first endpoint, then second.
func compareEdges(a, b [2]int) int {
	if c := cmp.Compare(a[0], b[0]); c != 0 {
		return c
	}
	return cmp.Compare(a[1], b[1])
}

// isCanonical reports whether edges is exactly what Canonicalize would
// return: every endpoint pair ordered u <= v, the list strictly ascending.
func isCanonical(edges [][2]int) bool {
	for i, e := range edges {
		if e[0] > e[1] {
			return false
		}
		if i > 0 {
			p := edges[i-1]
			if p[0] > e[0] || (p[0] == e[0] && p[1] >= e[1]) {
				return false
			}
		}
	}
	return true
}

// M returns the number of undirected edges.
func (g *Graph) M() int { return len(g.Edges) }

// Adj returns the symmetric adjacency CSR (cached; safe for concurrent use
// as long as the topology is not mutated concurrently).
func (g *Graph) Adj() *sparse.CSR {
	g.adjMu.Lock()
	defer g.adjMu.Unlock()
	if g.adj == nil {
		g.adj = sparse.FromEdges(g.N, g.Edges)
	}
	return g.adj
}

// InvalidateAdj drops the cached adjacency (and the normalised plans and
// propagated features built from it) after a topology mutation.
func (g *Graph) InvalidateAdj() {
	g.adjMu.Lock()
	if len(g.norm) > 0 {
		telNormInvalidate.Inc()
	}
	if len(g.propX) > 0 {
		telPropXInvalidate.Inc()
	}
	g.adj = nil
	g.norm = nil
	g.propX = nil
	g.adjMu.Unlock()
}

// NormAdj returns the self-looped, normalised adjacency Ã per Eq. (1).
// The result is cached per NormKind and shared across callers, which must
// treat it as read-only (mutate topology via AddEdges/RemoveEdges instead).
func (g *Graph) NormAdj(kind sparse.NormKind) *sparse.CSR {
	return g.NormAdjPlan(kind).Matrix()
}

// NormAdjPlan returns a reusable propagation plan for Ã (the blocked SpMM
// layout of NormAdj, see sparse.Plan), built lazily once per NormKind. Every
// model and propagation loop bound to g shares the same plan, so the
// normalisation and panel reorganisation cost is paid once per graph rather
// than per product or per model.
func (g *Graph) NormAdjPlan(kind sparse.NormKind) *sparse.Plan {
	g.adjMu.Lock()
	defer g.adjMu.Unlock()
	if pl, ok := g.norm[kind]; ok {
		telNormHit.Inc()
		return pl
	}
	telNormMiss.Inc()
	if g.adj == nil {
		g.adj = sparse.FromEdges(g.N, g.Edges)
	}
	pl := sparse.NewPlan(g.adj.WithSelfLoops().Normalized(kind))
	if g.norm == nil {
		g.norm = make(map[sparse.NormKind]*sparse.Plan, 1)
	}
	g.norm[kind] = pl
	return pl
}

// PropagatedX returns Ã·X, the first hop of every message-passing forward
// pass, for the given normalisation. X never changes between the epochs of a
// training run or the batch windows of a server, so the product — the widest
// SpMM of a GCN, F columns against the hidden width of the second hop — is
// computed on first use and shared, read-only, by every model bound to g. The
// entry is dropped by InvalidateAdj and ignored once g.X or the plan has been
// replaced. The bits are NormAdjPlan(kind).MulDense(g.X)'s.
func (g *Graph) PropagatedX(kind sparse.NormKind) *matrix.Dense {
	plan := g.NormAdjPlan(kind)
	g.adjMu.Lock()
	x := g.X
	if e, ok := g.propX[kind]; ok && e.plan == plan && e.x == x {
		g.adjMu.Unlock()
		telPropXHit.Inc()
		return e.ax
	}
	g.adjMu.Unlock()
	telPropXMiss.Inc()

	// The product runs outside the lock: it fans out on the shared pool, and
	// a goroutine waiting there may be handed work that needs this graph.
	// Two callers racing on a cold entry both compute the same bits, and the
	// later store simply replaces the earlier one.
	ax := plan.MulDense(x)
	g.adjMu.Lock()
	defer g.adjMu.Unlock()
	if g.norm[kind] != plan || g.X != x {
		return ax // mutated meanwhile: right for this caller, stale for the cache
	}
	if g.propX == nil {
		g.propX = make(map[sparse.NormKind]propagated, 1)
	}
	g.propX[kind] = propagated{plan: plan, x: x, ax: ax}
	return ax
}

// Neighbors returns the neighbour ids of node v (no self).
func (g *Graph) Neighbors(v int) []int {
	cols, _ := g.Adj().Row(v)
	out := make([]int, 0, len(cols))
	for _, c := range cols {
		if c != v {
			out = append(out, c)
		}
	}
	return out
}

// Degrees returns per-node degree (self-loops excluded).
func (g *Graph) Degrees() []int {
	d := make([]int, g.N)
	for _, e := range g.Edges {
		if e[0] == e[1] {
			continue
		}
		d[e[0]]++
		d[e[1]]++
	}
	return d
}

// MaskIdx returns the indices where mask is true.
func MaskIdx(mask []bool) []int {
	var out []int
	for i, b := range mask {
		if b {
			out = append(out, i)
		}
	}
	return out
}

// CountMask returns the number of true entries.
func CountMask(mask []bool) int {
	n := 0
	for _, b := range mask {
		if b {
			n++
		}
	}
	return n
}

// EdgeHomophily computes H_edge of Eq. (2): the fraction of edges whose
// endpoints share a label. Self-loops count as homophilous. Returns 0 for
// edgeless graphs.
func (g *Graph) EdgeHomophily() float64 {
	if len(g.Edges) == 0 {
		return 0
	}
	same := 0
	for _, e := range g.Edges {
		if g.Labels[e[0]] == g.Labels[e[1]] {
			same++
		}
	}
	return float64(same) / float64(len(g.Edges))
}

// NodeHomophily computes H_node of Eq. (2): the mean over nodes of the
// fraction of same-label neighbours. Isolated nodes are skipped (they carry
// no topological evidence either way).
func (g *Graph) NodeHomophily() float64 {
	var total float64
	counted := 0
	for v := 0; v < g.N; v++ {
		nbrs := g.Neighbors(v)
		if len(nbrs) == 0 {
			continue
		}
		same := 0
		for _, u := range nbrs {
			if g.Labels[u] == g.Labels[v] {
				same++
			}
		}
		total += float64(same) / float64(len(nbrs))
		counted++
	}
	if counted == 0 {
		return 0
	}
	return total / float64(counted)
}

// Subgraph returns the node-induced subgraph on idx, copying features, labels
// and masks: new node i is old node idx[i]. Old ids map to new ones through a
// dense array of length N, -1 for the nodes left out.
func (g *Graph) Subgraph(idx []int) *Graph {
	remap := make([]int32, g.N)
	for i := range remap {
		remap[i] = -1
	}
	for newID, old := range idx {
		remap[old] = int32(newID)
	}
	var edges [][2]int
	for _, e := range g.Edges {
		nu, nv := remap[e[0]], remap[e[1]]
		if nu >= 0 && nv >= 0 {
			edges = append(edges, [2]int{int(nu), int(nv)})
		}
	}
	var x *matrix.Dense
	if g.X != nil {
		x = matrix.SelectRows(g.X, idx)
	}
	labels := make([]int, len(idx))
	sub := New(len(idx), edges, x, labels, g.Classes)
	for newID, old := range idx {
		labels[newID] = g.Labels[old]
		sub.TrainMask[newID] = g.TrainMask[old]
		sub.ValMask[newID] = g.ValMask[old]
		sub.TestMask[newID] = g.TestMask[old]
	}
	return sub
}

// Clone deep-copies the graph (including the inductive Eval graph, if any).
func (g *Graph) Clone() *Graph {
	edges := make([][2]int, len(g.Edges))
	copy(edges, g.Edges)
	labels := make([]int, len(g.Labels))
	copy(labels, g.Labels)
	var x *matrix.Dense
	if g.X != nil {
		x = g.X.Clone()
	}
	c := New(g.N, edges, x, labels, g.Classes)
	copy(c.TrainMask, g.TrainMask)
	copy(c.ValMask, g.ValMask)
	copy(c.TestMask, g.TestMask)
	if g.Eval != nil {
		c.Eval = g.Eval.Clone()
	}
	return c
}

// MakeInductive converts g into the inductive protocol: the returned graph
// is the node-induced subgraph on the non-test nodes (what training may
// observe), with Eval pointing at the full graph g for evaluation on the
// unseen test nodes and their edges.
func MakeInductive(g *Graph) *Graph {
	var keep []int
	for v := 0; v < g.N; v++ {
		if !g.TestMask[v] {
			keep = append(keep, v)
		}
	}
	observed := g.Subgraph(keep)
	observed.Eval = g
	return observed
}

// AddEdges inserts the given undirected edges (duplicates ignored) and
// invalidates the cached adjacency.
func (g *Graph) AddEdges(edges [][2]int) {
	combined := make([][2]int, 0, len(g.Edges)+len(edges))
	combined = append(combined, g.Edges...)
	combined = append(combined, edges...)
	g.Edges = Canonicalize(combined)
	g.InvalidateAdj()
}

// RemoveEdges deletes the given undirected edges (order-insensitive; absent
// edges are ignored) and invalidates the cached adjacency.
func (g *Graph) RemoveEdges(edges [][2]int) {
	if len(edges) == 0 {
		return
	}
	drop := make([][2]int, len(edges))
	for i, e := range edges {
		if e[0] > e[1] {
			e[0], e[1] = e[1], e[0]
		}
		drop[i] = e
	}
	slices.SortFunc(drop, compareEdges)
	kept := g.Edges[:0]
	for _, e := range g.Edges {
		if _, found := slices.BinarySearchFunc(drop, e, compareEdges); !found {
			kept = append(kept, e)
		}
	}
	g.Edges = kept
	g.InvalidateAdj()
}

// RemoveEdgesRandom deletes approximately frac of the edges uniformly at
// random (used for the edge-sparsity experiments of Fig. 10).
func (g *Graph) RemoveEdgesRandom(frac float64, rng *rand.Rand) {
	if frac <= 0 {
		return
	}
	kept := g.Edges[:0]
	for _, e := range g.Edges {
		if rng.Float64() >= frac {
			kept = append(kept, e)
		}
	}
	g.Edges = kept
	g.InvalidateAdj()
}

// HasEdge reports whether the undirected edge {u,v} exists.
func (g *Graph) HasEdge(u, v int) bool {
	if u > v {
		u, v = v, u
	}
	// Edges is sorted; binary search.
	i := sort.Search(len(g.Edges), func(i int) bool {
		if g.Edges[i][0] != u {
			return g.Edges[i][0] >= u
		}
		return g.Edges[i][1] >= v
	})
	return i < len(g.Edges) && g.Edges[i][0] == u && g.Edges[i][1] == v
}

// LabelDistribution returns the per-class node counts (Fig. 2(a) data).
func (g *Graph) LabelDistribution() []int {
	counts := make([]int, g.Classes)
	for _, c := range g.Labels {
		if c >= 0 && c < g.Classes {
			counts[c]++
		}
	}
	return counts
}

// SplitTransductive assigns train/val/test masks by the given fractions,
// stratified per class so every class appears in training (matching the
// 20/40/40 and 60/20/20 protocols of Table I).
func (g *Graph) SplitTransductive(trainFrac, valFrac float64, rng *rand.Rand) {
	byClass := make([][]int, g.Classes)
	for i, c := range g.Labels {
		byClass[c] = append(byClass[c], i)
	}
	for i := range g.TrainMask {
		g.TrainMask[i], g.ValMask[i], g.TestMask[i] = false, false, false
	}
	for _, nodes := range byClass {
		rng.Shuffle(len(nodes), func(i, j int) { nodes[i], nodes[j] = nodes[j], nodes[i] })
		nTrain := int(float64(len(nodes)) * trainFrac)
		if nTrain == 0 && len(nodes) > 0 {
			nTrain = 1
		}
		nVal := int(float64(len(nodes)) * valFrac)
		for i, v := range nodes {
			switch {
			case i < nTrain:
				g.TrainMask[v] = true
			case i < nTrain+nVal:
				g.ValMask[v] = true
			default:
				g.TestMask[v] = true
			}
		}
	}
}

// Stats is a compact numeric summary used by the Table I reproduction.
type Stats struct {
	Nodes, Edges, Features, Classes int
	EdgeHomophily, NodeHomophily    float64
	Train, Val, Test                int
}

// Summary computes Stats for g.
func (g *Graph) Summary() Stats {
	f := 0
	if g.X != nil {
		f = g.X.Cols
	}
	return Stats{
		Nodes: g.N, Edges: g.M(), Features: f, Classes: g.Classes,
		EdgeHomophily: g.EdgeHomophily(), NodeHomophily: g.NodeHomophily(),
		Train: CountMask(g.TrainMask), Val: CountMask(g.ValMask), Test: CountMask(g.TestMask),
	}
}
