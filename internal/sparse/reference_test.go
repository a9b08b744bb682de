package sparse

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"
)

// referenceFromCoords is FromCoords as it stood before the counting-sort
// build: one comparison sort over a copy of the entries. It is kept as the
// statement of what FromCoords must return. Its sort is unstable, so it sums
// three or more duplicates of a cell in an order it does not define; the
// tests below keep to inputs where that order cannot reach the sum.
func referenceFromCoords(nRows, nCols int, entries []Coord) *CSR {
	sorted := make([]Coord, len(entries))
	copy(sorted, entries)
	sort.Slice(sorted, func(i, j int) bool {
		if sorted[i].Row != sorted[j].Row {
			return sorted[i].Row < sorted[j].Row
		}
		return sorted[i].Col < sorted[j].Col
	})
	m := &CSR{NRows: nRows, NCols: nCols, RowPtr: make([]int, nRows+1)}
	for i := 0; i < len(sorted); {
		j := i
		v := 0.0
		for j < len(sorted) && sorted[j].Row == sorted[i].Row && sorted[j].Col == sorted[i].Col {
			v += sorted[j].Val
			j++
		}
		m.ColIdx = append(m.ColIdx, sorted[i].Col)
		m.Val = append(m.Val, v)
		m.RowPtr[sorted[i].Row+1]++
		i = j
	}
	for r := 0; r < nRows; r++ {
		m.RowPtr[r+1] += m.RowPtr[r]
	}
	return m
}

// referenceFromEdges is FromEdges as it stood before: a map keyed by ordered
// pair drops repeated edges ahead of the build.
func referenceFromEdges(n int, edges [][2]int) *CSR {
	seen := make(map[[2]int]bool, 2*len(edges))
	coords := make([]Coord, 0, 2*len(edges))
	add := func(u, v int) {
		k := [2]int{u, v}
		if !seen[k] {
			seen[k] = true
			coords = append(coords, Coord{u, v, 1})
		}
	}
	for _, e := range edges {
		add(e[0], e[1])
		if e[0] != e[1] {
			add(e[1], e[0])
		}
	}
	return referenceFromCoords(n, n, coords)
}

// assertSameCSR requires got and want to agree in shape, structure and every
// value bit.
func assertSameCSR(t *testing.T, tag string, got, want *CSR) {
	t.Helper()
	if got.NRows != want.NRows || got.NCols != want.NCols {
		t.Fatalf("%s: shape %dx%d, want %dx%d", tag, got.NRows, got.NCols, want.NRows, want.NCols)
	}
	if len(got.RowPtr) != len(want.RowPtr) || len(got.ColIdx) != len(want.ColIdx) || len(got.Val) != len(want.Val) {
		t.Fatalf("%s: lengths %d/%d/%d, want %d/%d/%d", tag,
			len(got.RowPtr), len(got.ColIdx), len(got.Val), len(want.RowPtr), len(want.ColIdx), len(want.Val))
	}
	for i := range want.RowPtr {
		if got.RowPtr[i] != want.RowPtr[i] {
			t.Fatalf("%s: RowPtr[%d] = %d, want %d", tag, i, got.RowPtr[i], want.RowPtr[i])
		}
	}
	for k := range want.ColIdx {
		if got.ColIdx[k] != want.ColIdx[k] || math.Float64bits(got.Val[k]) != math.Float64bits(want.Val[k]) {
			t.Fatalf("%s: entry %d = (%d, %v), want (%d, %v)", tag, k, got.ColIdx[k], got.Val[k], want.ColIdx[k], want.Val[k])
		}
	}
}

// randomCoords draws count entries of an nr x nc matrix from rows [0, rowSpan)
// only, so rowSpan < nr leaves trailing rows empty. With integer values any
// cell may repeat any number of times (small-integer sums are exact in every
// order); otherwise values are Gaussian and a cell repeats at most twice, the
// most the reference's sum is defined for (so count <= 2·rowSpan·nc).
func randomCoords(rng *rand.Rand, nr, nc, rowSpan, count int, integer bool) []Coord {
	coords := make([]Coord, 0, count)
	uses := map[[2]int]int{}
	for len(coords) < count {
		r, c := rng.Intn(rowSpan), rng.Intn(nc)
		if rng.Intn(4) == 0 && len(coords) > 0 { // aim at an occupied cell
			prev := coords[rng.Intn(len(coords))]
			r, c = prev.Row, prev.Col
		}
		if integer {
			coords = append(coords, Coord{r, c, float64(rng.Intn(7) - 3)})
			continue
		}
		if uses[[2]int{r, c}] == 2 {
			continue
		}
		uses[[2]int{r, c}]++
		coords = append(coords, Coord{r, c, rng.NormFloat64()})
	}
	return coords
}

// TestFromCoordsMatchesReference holds the counting-sort build to the
// comparison-sort one over shapes with empty rows, rows past the insertion
// cutoff of sortRow, single rows and columns, and duplicate-heavy inputs.
func TestFromCoordsMatchesReference(t *testing.T) {
	shapes := []struct{ nr, nc, rowSpan, count int }{
		{1, 1, 1, 2}, {1, 200, 1, 150}, {200, 1, 200, 90}, {5, 5, 5, 40},
		{40, 40, 25, 300}, {64, 300, 64, 4000}, {300, 8, 7, 100}, {3, 500, 2, 700},
	}
	for si, sh := range shapes {
		for _, integer := range []bool{true, false} {
			for seed := int64(0); seed < 4; seed++ {
				rng := rand.New(rand.NewSource(seed*100 + int64(si)))
				coords := randomCoords(rng, sh.nr, sh.nc, sh.rowSpan, sh.count, integer)
				tag := fmt.Sprintf("%dx%d integer=%v seed %d", sh.nr, sh.nc, integer, seed)
				got := FromCoords(sh.nr, sh.nc, coords)
				checkWellFormed(t, got)
				assertSameCSR(t, tag, got, referenceFromCoords(sh.nr, sh.nc, coords))
			}
		}
	}
	assertSameCSR(t, "no entries", FromCoords(4, 3, nil), referenceFromCoords(4, 3, nil))
	assertSameCSR(t, "no rows", FromCoords(0, 0, nil), referenceFromCoords(0, 0, nil))
}

// TestFromCoordsSumsDuplicatesInInputOrder pins the part of the contract the
// reference left to its sort: three values whose sum depends on the order
// they are added in come out as ((a + b) + c), wherever they sit in the input.
func TestFromCoordsSumsDuplicatesInInputOrder(t *testing.T) {
	a, b, c := 1e16, 1.0, -1e16
	if (a+b)+c == (a+c)+b {
		t.Fatal("the three values must not sum associatively")
	}
	m := FromCoords(2, 3, []Coord{{1, 2, a}, {0, 1, 5}, {1, 2, b}, {1, 0, 7}, {1, 2, c}})
	if got, want := m.At(1, 2), (a+b)+c; got != want {
		t.Fatalf("sum of duplicates = %v, want input order %v", got, want)
	}
	var long []Coord // the same through the long-row path of sortRow
	for col := 59; col >= 0; col-- {
		long = append(long, Coord{0, col, 1})
	}
	long = append(long[:20], append([]Coord{{0, 7, a}}, long[20:]...)...)
	long = append(long, Coord{0, 7, b}, Coord{0, 7, c})
	if got, want := FromCoords(1, 60, long).At(0, 7), ((1+a)+b)+c; got != want {
		t.Fatalf("long row: sum of duplicates = %v, want input order %v", got, want)
	}
}

// TestFromEdgesMatchesReference holds the map-free FromEdges to the
// map-deduplicated one on edge lists with repeats, both orientations of an
// edge, self-loops (repeated too), isolated nodes and no edges.
func TestFromEdgesMatchesReference(t *testing.T) {
	for seed := int64(0); seed < 30; seed++ {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(60)
		span := 1 + rng.Intn(n) // nodes >= span stay isolated
		edges := make([][2]int, rng.Intn(6*n))
		for i := range edges {
			edges[i] = [2]int{rng.Intn(span), rng.Intn(span)}
			if i > 0 && rng.Intn(5) == 0 {
				prev := edges[rng.Intn(i)]
				edges[i] = [2]int{prev[1], prev[0]}
			}
		}
		got := FromEdges(n, edges)
		checkWellFormed(t, got)
		assertSameCSR(t, fmt.Sprintf("seed %d", seed), got, referenceFromEdges(n, edges))
	}
	assertSameCSR(t, "no nodes", FromEdges(0, nil), referenceFromEdges(0, nil))
}
