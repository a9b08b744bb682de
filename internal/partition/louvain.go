// Package partition implements the two distributed-subgraph simulation
// strategies of the AdaFGL paper: community split (Louvain communities
// assigned to clients by the node-average principle) and structure Non-iid
// split (Definition 1: Metis-style balanced partitioning followed by
// per-client homophilous or heterophilous edge injection), plus the
// random-injection and meta-injection perturbation operators and the
// sparsity helpers used by the Fig. 10 experiments.
package partition

import (
	"math"
	"math/rand"
	"slices"

	"repro/internal/graph"
)

// Louvain runs the two-phase Louvain modularity optimisation (Blondel et al.
// 2008) and returns a community id per node. The rng only breaks move ties
// through node visiting order; the algorithm itself is standard.
func Louvain(g *graph.Graph, rng *rand.Rand) []int {
	// membership maps original node -> current community label chain.
	membership := make([]int, g.N)
	for i := range membership {
		membership[i] = i
	}
	// Work on a weighted graph that we coarsen level by level. Level 0 is the
	// edge list with self-loops dropped and parallel edges summed, which is
	// what coarsening under the identity assignment produces.
	current := edgeRows(g.N, g.Edges).coarsen(membership, g.N)
	for level := 0; level < 10; level++ {
		comm, moved := louvainOnePass(current, rng)
		if !moved {
			break
		}
		// Relabel communities densely, in order of first appearance.
		dense := make([]int, len(comm))
		for i := range dense {
			dense[i] = -1
		}
		nc := 0
		for i, c := range comm {
			if dense[c] < 0 {
				dense[c] = nc
				nc++
			}
			comm[i] = dense[c]
		}
		// Update membership of original nodes.
		for i := range membership {
			membership[i] = comm[membership[i]]
		}
		if nc == len(comm) {
			break // no coarsening progress
		}
		current = current.coarsen(comm, nc)
	}
	return membership
}

// weighted is the weighted graph Louvain coarsens, in CSR form: node u's
// neighbours are col[ptr[u]:ptr[u+1]], ascending and unique, with weights w.
// A self-loop carries a super-node's internal weight.
type weighted struct {
	ptr, col []int
	w        []float64
}

// edgeRows lays an undirected edge list out row by row, each edge under both
// endpoints with weight 1, self-loops dropped. Rows come out unordered and
// may repeat a neighbour; coarsen puts them in weighted's form.
func edgeRows(n int, edges [][2]int) weighted {
	ptr := make([]int, n+1)
	for _, e := range edges {
		if e[0] != e[1] {
			ptr[e[0]+1]++
			ptr[e[1]+1]++
		}
	}
	for u := 0; u < n; u++ {
		ptr[u+1] += ptr[u]
	}
	g := weighted{ptr: ptr, col: make([]int, ptr[n]), w: make([]float64, ptr[n])}
	next := append([]int(nil), ptr[:n]...)
	for _, e := range edges {
		if e[0] != e[1] {
			g.col[next[e[0]]], g.col[next[e[1]]] = e[1], e[0]
			next[e[0]]++
			next[e[1]]++
		}
	}
	for i := range g.w {
		g.w[i] = 1
	}
	return g
}

// coarsen builds the graph whose nc super-nodes are the communities of comm.
// Internal weight is kept as a self-loop (ordered-pair double counting gives
// the A_ii = 2·w_internal convention used by the degree sum). Each community
// accumulates its members' rows, in ascending member then stored order, into
// dense scratch of which only the touched entries are reset, and emits its
// row in ascending id order, so the float sums are reproducible.
func (g weighted) coarsen(comm []int, nc int) weighted {
	members := groupByPart(comm, nc)
	out := weighted{ptr: make([]int, nc+1)}
	acc := make([]float64, nc)
	seen := make([]bool, nc)
	var touched []int
	for c := 0; c < nc; c++ {
		for _, u := range members[c] {
			for k := g.ptr[u]; k < g.ptr[u+1]; k++ {
				d := comm[g.col[k]]
				if !seen[d] {
					seen[d] = true
					touched = append(touched, d)
				}
				acc[d] += g.w[k]
			}
		}
		slices.Sort(touched)
		for _, d := range touched {
			out.col = append(out.col, d)
			out.w = append(out.w, acc[d])
			acc[d], seen[d] = 0, false
		}
		touched = touched[:0]
		out.ptr[c+1] = len(out.col)
	}
	return out
}

// louvainOnePass greedily moves nodes between communities until no move
// improves modularity; returns the community assignment and whether any node
// moved.
func louvainOnePass(g weighted, rng *rand.Rand) ([]int, bool) {
	n := len(g.ptr) - 1
	comm := make([]int, n)
	degree := make([]float64, n)
	var m2 float64 // 2m = total weighted degree
	for i := range comm {
		comm[i] = i
		for _, w := range g.w[g.ptr[i]:g.ptr[i+1]] {
			degree[i] += w
		}
		m2 += degree[i]
	}
	if m2 == 0 {
		return comm, false
	}
	commDegree := make([]float64, n) // Σ degrees of community members
	copy(commDegree, degree)

	// Scratch shared by every node visit: toComm[c] is the weight from the
	// visited node to community c, cands the communities it touches. Only
	// those entries are reset after a visit.
	toComm := make([]float64, n)
	seen := make([]bool, n)
	var cands []int

	order := rng.Perm(n)
	movedAny := false
	for pass := 0; pass < 8; pass++ {
		movedPass := false
		for _, u := range order {
			cu := comm[u]
			// Weight from u to each neighbouring community. Self-loops move
			// with u, so they are constant across candidates and skipped.
			for k := g.ptr[u]; k < g.ptr[u+1]; k++ {
				v := g.col[k]
				if v == u {
					continue
				}
				c := comm[v]
				if !seen[c] {
					seen[c] = true
					cands = append(cands, c)
				}
				toComm[c] += g.w[k]
			}
			// Remove u from its community.
			commDegree[cu] -= degree[u]
			bestC := bestCommunity(cu, cands, toComm, commDegree, degree[u], m2)
			for _, c := range cands {
				toComm[c], seen[c] = 0, false
			}
			cands = cands[:0]
			commDegree[bestC] += degree[u]
			if bestC != cu {
				comm[u] = bestC
				movedPass = true
				movedAny = true
			}
		}
		if !movedPass {
			break
		}
	}
	return comm, movedAny
}

// bestCommunity returns the community a node of degree du, already removed
// from cu, joins: the result of sortedFold, found in one unsorted pass unless
// two gains lie within the fold's 1e-12 tie margin of each other. The pass
// takes the top gain and the runner-up over the candidates, with the fold's
// own expressions so every value rounds as there. If the top does not clear
// the fold's first threshold, no candidate can, and u stays. If it clears the
// runner-up by the margin, the fold takes it wherever it sits in ascending
// order: everything before it is at most the runner-up, everything after at
// most the top, and floating-point addition is monotone. Otherwise the fold
// itself decides.
func bestCommunity(cu int, cands []int, toComm, commDegree []float64, du, m2 float64) int {
	base := toComm[cu] - du*commDegree[cu]/m2
	top, runnerUp, topC := math.Inf(-1), math.Inf(-1), cu
	for _, c := range cands {
		gain := toComm[c] - du*commDegree[c]/m2
		if d := gain - base; d > top {
			top, runnerUp, topC = d, top, c
		} else if d > runnerUp {
			runnerUp = d
		}
	}
	switch {
	case !(top > 0+1e-12):
		return cu
	case top > runnerUp+1e-12:
		return topC
	}
	return sortedFold(cu, cands, toComm, commDegree, du, m2)
}

// sortedFold is the local-moving rule: candidates in ascending id order, a
// move only for a gain above the best so far by more than 1e-12, so ties go
// to the lowest id (reproducible experiments). It sorts cands in place.
func sortedFold(cu int, cands []int, toComm, commDegree []float64, du, m2 float64) int {
	slices.Sort(cands)
	bestC, bestGain := cu, 0.0
	base := toComm[cu] - du*commDegree[cu]/m2
	for _, c := range cands {
		// Modularity gain of joining c:
		// ΔQ ∝ w - du*commDegree[c]/2m.
		gain := toComm[c] - du*commDegree[c]/m2
		if gain-base > bestGain+1e-12 {
			bestGain = gain - base
			bestC = c
		}
	}
	return bestC
}

// Modularity computes the Newman modularity of the given assignment on g,
// used to validate Louvain quality in tests. Community ids are non-negative.
func Modularity(g *graph.Graph, comm []int) float64 {
	m := float64(g.M())
	if m == 0 {
		return 0
	}
	// Σ_c (e_c/m - (d_c/2m)²), both sums taken in community-id order so the
	// last bits do not depend on anything but the assignment.
	nc := slices.Max(comm) + 1 // m > 0, so there are nodes
	internal := make([]float64, nc)
	degSum := make([]float64, nc)
	for _, e := range g.Edges {
		if comm[e[0]] == comm[e[1]] {
			internal[comm[e[0]]]++
		}
	}
	for i, d := range g.Degrees() {
		degSum[comm[i]] += float64(d)
	}
	var q float64
	for _, ec := range internal {
		q += ec / m
	}
	for _, dc := range degSum {
		q -= (dc / (2 * m)) * (dc / (2 * m))
	}
	return q
}
