package main

import (
	"hash/fnv"
	"math/rand"
	"strconv"
)

// subSeed derives an independent seed for one named stream from the run
// seed, so the dataset, split, fixture-training and traffic streams never
// share randomness and all follow from the one -seed argument.
func subSeed(seed int64, stream string) int64 {
	h := fnv.New64a()
	var b [8]byte
	for i := range b {
		b[i] = byte(uint64(seed) >> (8 * i))
	}
	h.Write(b[:])
	h.Write([]byte(stream))
	return int64(h.Sum64() >> 1)
}

// The request mix: 80% single-node, 15% 16-node and 5% 64-node requests. A
// 64-node request fills a stock batch window (MaxBatch 64) by itself.
var requestSizes = []struct {
	nodes int
	share float64
}{{1, 0.80}, {16, 0.15}, {64, 0.05}}

// traffic is one client's seeded request stream over a graph of n nodes.
// The program under test only ever sees the node lists it produces.
type traffic struct {
	rng *rand.Rand
	n   int
}

func newTraffic(seed int64, client, n int) *traffic {
	return &traffic{rng: rand.New(rand.NewSource(subSeed(seed, "traffic/"+strconv.Itoa(client)))), n: n}
}

// next draws the next request: a size from the mix, then that many distinct
// node ids (as many as the graph has, on a toy graph).
func (t *traffic) next() []int {
	u := t.rng.Float64()
	size := requestSizes[len(requestSizes)-1].nodes
	for _, s := range requestSizes {
		if u < s.share {
			size = s.nodes
			break
		}
		u -= s.share
	}
	return t.sized(size)
}

// sized draws a request of the given number of distinct nodes.
func (t *traffic) sized(size int) []int {
	if size > t.n {
		size = t.n
	}
	nodes := make([]int, 0, size)
	seen := make(map[int]bool, size)
	for len(nodes) < size {
		v := t.rng.Intn(t.n)
		if !seen[v] {
			seen[v] = true
			nodes = append(nodes, v)
		}
	}
	return nodes
}

// predictBody renders the JSON body of a predict request.
func predictBody(nodes []int) []byte {
	b := append(make([]byte, 0, 12+6*len(nodes)), `{"nodes":[`...)
	for i, v := range nodes {
		if i > 0 {
			b = append(b, ',')
		}
		b = strconv.AppendInt(b, int64(v), 10)
	}
	return append(b, "]}"...)
}
