package partition

import (
	"math/rand"
	"slices"
	"sort"

	"repro/internal/graph"
	"repro/internal/sparse"
)

// Metis partitions g into k balanced parts with a multilevel-flavoured
// heuristic: BFS region growing from spread-out seeds (respecting a strict
// size cap) followed by Kernighan–Lin boundary refinement passes that reduce
// the edge cut while keeping parts balanced. This reproduces the property
// the paper needs from METIS: balanced, locality-preserving subgraphs that
// inherit the global graph's topology.
func Metis(g *graph.Graph, k int, rng *rand.Rand) []int {
	n := g.N
	if k <= 1 || n == 0 {
		return make([]int, n)
	}
	part := make([]int, n)
	for i := range part {
		part[i] = -1
	}
	cap1 := (n + k - 1) / k // per-part size cap (±1 balance)
	sizes := make([]int, k)

	// Seeds: BFS-farthest sweep for spread-out starting points.
	seeds := spreadSeeds(g, k, rng)
	queues := make([][]int, k)
	for p, s := range seeds {
		if part[s] == -1 {
			part[s] = p
			sizes[p]++
			queues[p] = append(queues[p], s)
		}
	}
	// Round-robin BFS growth under the size cap.
	active := true
	for active {
		active = false
		for p := 0; p < k; p++ {
			if sizes[p] >= cap1 || len(queues[p]) == 0 {
				continue
			}
			v := queues[p][0]
			queues[p] = queues[p][1:]
			for _, u := range g.Neighbors(v) {
				if part[u] == -1 && sizes[p] < cap1 {
					part[u] = p
					sizes[p]++
					queues[p] = append(queues[p], u)
					active = true
				}
			}
			if len(queues[p]) > 0 {
				active = true
			}
		}
	}
	// Unreached nodes (other components): assign to the smallest part.
	for v := 0; v < n; v++ {
		if part[v] == -1 {
			best := 0
			for p := 1; p < k; p++ {
				if sizes[p] < sizes[best] {
					best = p
				}
			}
			part[v] = best
			sizes[best]++
		}
	}
	klRefine(g, part, sizes, cap1, rng)
	return part
}

// spreadSeeds picks k seed nodes far apart via repeated BFS eccentricity.
func spreadSeeds(g *graph.Graph, k int, rng *rand.Rand) []int {
	n := g.N
	seeds := []int{rng.Intn(n)}
	dist := make([]int, n)
	for len(seeds) < k {
		for i := range dist {
			dist[i] = 1 << 30
		}
		queue := make([]int, 0, n)
		for _, s := range seeds {
			dist[s] = 0
			queue = append(queue, s)
		}
		for head := 0; head < len(queue); head++ {
			v := queue[head]
			for _, u := range g.Neighbors(v) {
				if dist[u] > dist[v]+1 {
					dist[u] = dist[v] + 1
					queue = append(queue, u)
				}
			}
		}
		far, fd := rng.Intn(n), -1
		for v := 0; v < n; v++ {
			d := dist[v]
			if d == 1<<30 {
				d = 1 << 20 // unreachable: very far but bounded
			}
			if d > fd {
				far, fd = v, d
			}
		}
		seeds = append(seeds, far)
	}
	return seeds
}

// klRefine performs greedy boundary moves that reduce the edge cut while
// respecting the balance cap: up to three passes, each over a fresh random
// node order.
func klRefine(g *graph.Graph, part, sizes []int, cap1 int, rng *rand.Rand) {
	adj := g.Adj()
	count := make([]int, len(sizes))
	touched := make([]int, 0, len(sizes))
	for pass := 0; pass < 3; pass++ {
		if klPass(adj, part, sizes, cap1, rng.Perm(g.N), count, touched) == 0 {
			break
		}
	}
}

// klPass visits the nodes in order and moves each, cap permitting, to the
// neighbouring part where it has the most more neighbours than in its own,
// if any; returns the number of moves. count (one zeroed entry per part) and
// touched (capacity for every part) are scratch: count[p] is the visited
// node's neighbours in part p, touched the parts it has any in, and only
// those entries are reset.
func klPass(adj *sparse.CSR, part, sizes []int, cap1 int, order, count, touched []int) int {
	moved := 0
	for _, v := range order {
		pv := part[v]
		cols, _ := adj.Row(v)
		for _, u := range cols {
			if u == v {
				continue
			}
			p := part[u]
			if count[p] == 0 {
				touched = append(touched, p)
			}
			count[p]++
		}
		// Gain of moving v to each neighbouring part, in ascending part
		// order so ties go to the lowest id.
		slices.Sort(touched)
		bestP, bestGain := pv, 0
		for _, p := range touched {
			if p == pv || sizes[p] >= cap1 {
				continue
			}
			if gain := count[p] - count[pv]; gain > bestGain {
				bestGain, bestP = gain, p
			}
		}
		for _, p := range touched {
			count[p] = 0
		}
		touched = touched[:0]
		if bestP != pv && sizes[pv] > 1 {
			sizes[pv]--
			sizes[bestP]++
			part[v] = bestP
			moved++
		}
	}
	return moved
}

// EdgeCut counts edges crossing part boundaries.
func EdgeCut(g *graph.Graph, part []int) int {
	cut := 0
	for _, e := range g.Edges {
		if part[e[0]] != part[e[1]] {
			cut++
		}
	}
	return cut
}

// PartSizes returns the size of each part given k parts.
func PartSizes(part []int, k int) []int {
	sizes := make([]int, k)
	for _, p := range part {
		sizes[p]++
	}
	return sizes
}

// groupByPart inverts an assignment into per-part node lists with
// deterministic ordering.
func groupByPart(part []int, k int) [][]int {
	out := make([][]int, k)
	for v, p := range part {
		out[p] = append(out[p], v)
	}
	for _, l := range out {
		sort.Ints(l)
	}
	return out
}
