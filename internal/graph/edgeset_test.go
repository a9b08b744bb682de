package graph

import (
	"math/rand"
	"testing"
	"testing/quick"
)

// TestEdgeSetMatchesMap holds EdgeSet to a map of ordered pairs under random
// adds and lookups, in either endpoint order, up to the edges it was made for.
func TestEdgeSetMatchesMap(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(1<<rng.Intn(31))
		adds := rng.Intn(400)
		s := NewEdgeSet(adds)
		want := make(map[[2]int]bool)
		for i := 0; i < adds; i++ {
			// Small n repeats pairs, in either endpoint order.
			u, v := rng.Intn(n), rng.Intn(n)
			k := [2]int{min(u, v), max(u, v)}
			if s.Has(u, v) != want[k] {
				return false
			}
			if s.Add(u, v) == want[k] {
				return false
			}
			want[k] = true
			if !s.Has(v, u) || s.n != len(want) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestEdgeSetExtremeIDs: the largest id the key packs and a self-loop on it
// (whose key is the largest there is) are stored apart from their neighbours.
func TestEdgeSetExtremeIDs(t *testing.T) {
	const top = 1<<31 - 1
	s := NewEdgeSet(4)
	for _, e := range [][2]int{{top, top}, {0, top}, {0, 0}, {top - 1, top}} {
		if !s.Add(e[0], e[1]) {
			t.Fatalf("%v reported present before its add", e)
		}
	}
	if s.Has(1, top) || s.Has(top-1, top-1) || !s.Has(top, 0) || s.n != 4 {
		t.Fatal("extreme ids collide")
	}
}

// TestEdgeSetRejectsOutOfRangeIDs: an id the key cannot pack panics rather
// than aliasing another edge.
func TestEdgeSetRejectsOutOfRangeIDs(t *testing.T) {
	for _, e := range [][2]int{{-1, 3}, {3, 1 << 31}, {1 << 40, 0}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%v: no panic", e)
				}
			}()
			NewEdgeSet(1).Add(e[0], e[1])
		}()
	}
}

// TestEdgeSetSized: the table is the power of two of at least twice the
// capacity, takes that many edges and more up to half full, re-adds of a
// present edge included, and panics past that rather than fill up.
func TestEdgeSetSized(t *testing.T) {
	for _, capacity := range []int{0, 1, 5, 8, 100, 1 << 12} {
		s := NewEdgeSet(capacity)
		slots := len(s.slots)
		if slots < 2*capacity || slots&(slots-1) != 0 {
			t.Fatalf("capacity %d: %d slots", capacity, slots)
		}
		for i := 0; i < slots/2; i++ {
			if !s.Add(i, i+1) || s.Add(i+1, i) {
				t.Fatalf("capacity %d: add %d", capacity, i)
			}
		}
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("capacity %d: no panic past %d edges", capacity, slots/2)
				}
			}()
			s.Add(slots, slots+1)
		}()
	}
}
