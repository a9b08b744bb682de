package graph

import (
	"fmt"
	"math/bits"
)

// EdgeSet is a set of undirected edges for membership tests on the set-up
// path: rejection sampling in datasets.Generate and the edge injectors of
// partition. It is one flat open-addressing table with linear probing,
// sized once for the most edges it will hold and never more than half full.
// An edge {u, v} is stored once, as the key u<<32|v + 1 with u <= v, so a
// zero slot means empty. Node ids must lie in [0, 2^31).
type EdgeSet struct {
	slots []uint64
	shift uint // 64 - log2(len(slots)): a key's home slot is its hash's top bits
	n     int
}

// NewEdgeSet returns an empty set for at most capacity edges: a power-of-two
// table of at least 2·capacity slots.
func NewEdgeSet(capacity int) *EdgeSet {
	lg := bits.Len(uint(max(2*capacity, 2) - 1))
	return &EdgeSet{slots: make([]uint64, 1<<lg), shift: uint(64 - lg)}
}

// Has reports whether the undirected edge {u, v} is in the set.
func (s *EdgeSet) Has(u, v int) bool {
	_, found := s.find(edgeKey(u, v))
	return found
}

// Add inserts the undirected edge {u, v} and reports whether it was absent.
// Adding more edges than the set was made for panics.
func (s *EdgeSet) Add(u, v int) bool {
	key := edgeKey(u, v)
	i, found := s.find(key)
	if found {
		return false
	}
	if 2*(s.n+1) > len(s.slots) {
		panic(fmt.Sprintf("graph: EdgeSet made for %d edges, adding edge %d", len(s.slots)/2, s.n+1))
	}
	s.slots[i] = key
	s.n++
	return true
}

// find probes linearly from the key's home slot, the top bits of a
// Fibonacci-hashing multiply, and returns the slot holding key or else the
// empty slot that ends the probe.
func (s *EdgeSet) find(key uint64) (int, bool) {
	mask := len(s.slots) - 1
	for i := int((key * 0x9E3779B97F4A7C15) >> s.shift); ; i = (i + 1) & mask {
		switch s.slots[i] {
		case key:
			return i, true
		case 0:
			return i, false
		}
	}
}

// edgeKey orders the endpoints and packs them into a non-zero key.
func edgeKey(u, v int) uint64 {
	if u > v {
		u, v = v, u
	}
	if u < 0 || v >= 1<<31 {
		panic(fmt.Sprintf("graph: EdgeSet node id out of range in {%d, %d}", u, v))
	}
	return (uint64(u)<<32 | uint64(v)) + 1
}
