package sparse

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/matrix"
)

// pathGraph returns the adjacency of a path 0-1-2-...-(n-1).
func pathGraph(n int) *CSR {
	edges := make([][2]int, 0, n-1)
	for i := 0; i < n-1; i++ {
		edges = append(edges, [2]int{i, i + 1})
	}
	return FromEdges(n, edges)
}

func TestFromEdgesSymmetric(t *testing.T) {
	m := FromEdges(4, [][2]int{{0, 1}, {1, 2}, {2, 3}, {0, 1}}) // duplicate edge
	if m.NNZ() != 6 {
		t.Fatalf("NNZ = %d, want 6", m.NNZ())
	}
	if m.At(0, 1) != 1 || m.At(1, 0) != 1 {
		t.Fatal("edge (0,1) must be symmetric with value 1")
	}
	if m.At(0, 2) != 0 {
		t.Fatal("non-edge must be 0")
	}
}

func TestFromEdgesSelfLoop(t *testing.T) {
	m := FromEdges(2, [][2]int{{0, 0}, {0, 1}})
	if m.At(0, 0) != 1 {
		t.Fatal("self-loop missing")
	}
	if m.NNZ() != 3 {
		t.Fatalf("NNZ = %d, want 3", m.NNZ())
	}
}

func TestFromCoordsDuplicatesSummed(t *testing.T) {
	m := FromCoords(2, 2, []Coord{{0, 1, 2}, {0, 1, 3}})
	if m.At(0, 1) != 5 {
		t.Fatalf("At(0,1) = %v, want 5", m.At(0, 1))
	}
	if m.NNZ() != 1 {
		t.Fatalf("NNZ = %d, want 1", m.NNZ())
	}
}

func TestDegrees(t *testing.T) {
	m := pathGraph(4)
	d := m.Degrees()
	want := []float64{1, 2, 2, 1}
	for i := range want {
		if d[i] != want[i] {
			t.Fatalf("Degrees[%d] = %v, want %v", i, d[i], want[i])
		}
	}
}

func TestWithSelfLoops(t *testing.T) {
	m := pathGraph(3).WithSelfLoops()
	for i := 0; i < 3; i++ {
		if m.At(i, i) != 1 {
			t.Fatalf("diagonal %d missing self-loop", i)
		}
	}
	// Idempotent on diagonal: applying again must not double it.
	m2 := m.WithSelfLoops()
	if m2.At(1, 1) != 1 {
		t.Fatalf("self-loop doubled: %v", m2.At(1, 1))
	}
}

func TestNormalizedSymRowSumsOnRegularGraph(t *testing.T) {
	// On a d-regular graph with self-loops, sym-normalised rows sum to 1.
	// Cycle of 4 nodes: degree 2 + self-loop = 3 for every node.
	m := FromEdges(4, [][2]int{{0, 1}, {1, 2}, {2, 3}, {3, 0}}).WithSelfLoops()
	norm := m.Normalized(NormSym)
	for i := 0; i < 4; i++ {
		_, vals := norm.Row(i)
		var s float64
		for _, v := range vals {
			s += v
		}
		if math.Abs(s-1) > 1e-12 {
			t.Fatalf("row %d sums to %v, want 1", i, s)
		}
	}
}

func TestNormalizedReverseRowStochastic(t *testing.T) {
	m := pathGraph(5).WithSelfLoops()
	norm := m.Normalized(NormReverse)
	for i := 0; i < 5; i++ {
		_, vals := norm.Row(i)
		var s float64
		for _, v := range vals {
			s += v
		}
		if math.Abs(s-1) > 1e-12 {
			t.Fatalf("D^{-1}A row %d sums to %v, want 1", i, s)
		}
	}
}

func TestNormalizedRWColumnStochastic(t *testing.T) {
	m := pathGraph(5).WithSelfLoops()
	norm := m.Normalized(NormRW).Transpose()
	// Columns of A·D^{-1} are rows of its transpose and must sum to 1.
	for i := 0; i < 5; i++ {
		_, vals := norm.Row(i)
		var s float64
		for _, v := range vals {
			s += v
		}
		if math.Abs(s-1) > 1e-12 {
			t.Fatalf("AD^{-1} column %d sums to %v, want 1", i, s)
		}
	}
}

func TestNormalizedZeroDegree(t *testing.T) {
	// Node 2 is isolated with no self-loop; normalisation must not NaN.
	m := FromEdges(3, [][2]int{{0, 1}})
	norm := m.Normalized(NormSym)
	for _, v := range norm.Val {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			t.Fatal("normalisation produced NaN/Inf on zero-degree node")
		}
	}
}

func TestMulDenseMatchesDense(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	m := FromEdges(6, [][2]int{{0, 1}, {1, 2}, {2, 3}, {3, 4}, {4, 5}, {0, 5}, {1, 4}}).WithSelfLoops().Normalized(NormSym)
	x := matrix.New(6, 3)
	matrix.RandomNormal(x, 0, 1, rng)
	got := m.MulDense(x)
	want := matrix.Mul(m.Dense(), x)
	if !matrix.Equal(got, want, 1e-10) {
		t.Fatal("SpMM disagrees with dense reference")
	}
}

func TestMulVec(t *testing.T) {
	m := pathGraph(3)
	got := m.MulVec([]float64{1, 10, 100})
	want := []float64{10, 101, 10}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("MulVec[%d] = %v, want %v", i, got[i], want[i])
		}
	}
}

func TestTransposeSymmetricAdjacency(t *testing.T) {
	m := FromEdges(5, [][2]int{{0, 1}, {1, 3}, {2, 4}})
	tr := m.Transpose()
	if !matrix.Equal(m.Dense(), tr.Dense(), 0) {
		t.Fatal("undirected adjacency must be symmetric under transpose")
	}
}

func TestTransposeGeneral(t *testing.T) {
	m := FromCoords(2, 3, []Coord{{0, 2, 5}, {1, 0, -1}})
	tr := m.Transpose()
	if tr.NRows != 3 || tr.NCols != 2 {
		t.Fatalf("transpose shape %dx%d", tr.NRows, tr.NCols)
	}
	if tr.At(2, 0) != 5 || tr.At(0, 1) != -1 {
		t.Fatal("transpose values wrong")
	}
}

func TestRowViews(t *testing.T) {
	m := FromEdges(3, [][2]int{{0, 1}, {0, 2}})
	cols, vals := m.Row(0)
	if len(cols) != 2 || cols[0] != 1 || cols[1] != 2 {
		t.Fatalf("Row(0) cols = %v", cols)
	}
	if vals[0] != 1 {
		t.Fatalf("Row(0) vals = %v", vals)
	}
}

// Property: for random graphs, (Mᵀ)ᵀ = M and SpMM agrees with the dense path.
func TestQuickTransposeInvolutionAndSpMM(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(8)
		var edges [][2]int
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				if rng.Float64() < 0.4 {
					edges = append(edges, [2]int{i, j})
				}
			}
		}
		m := FromEdges(n, edges).WithSelfLoops().Normalized(NormSym)
		if !matrix.Equal(m.Dense(), m.Transpose().Transpose().Dense(), 1e-12) {
			return false
		}
		x := matrix.New(n, 2)
		matrix.RandomNormal(x, 0, 1, rng)
		return matrix.Equal(m.MulDense(x), matrix.Mul(m.Dense(), x), 1e-10)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

// Property: sym-normalised adjacency has spectral radius <= 1, checked via
// power iteration on random graphs (the key stability property for deep
// propagation in Eq. (7)).
func TestQuickSymNormSpectralRadius(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 3 + rng.Intn(10)
		var edges [][2]int
		for i := 0; i < n-1; i++ {
			edges = append(edges, [2]int{i, i + 1})
		}
		for k := 0; k < n; k++ {
			edges = append(edges, [2]int{rng.Intn(n), rng.Intn(n)})
		}
		m := FromEdges(n, edges).WithSelfLoops().Normalized(NormSym)
		v := make([]float64, n)
		for i := range v {
			v[i] = rng.NormFloat64()
		}
		for it := 0; it < 50; it++ {
			v = m.MulVec(v)
			var norm float64
			for _, x := range v {
				norm += x * x
			}
			norm = math.Sqrt(norm)
			if norm == 0 {
				return true
			}
			for i := range v {
				v[i] /= norm
			}
		}
		w := m.MulVec(v)
		var rayleigh float64
		for i := range v {
			rayleigh += v[i] * w[i]
		}
		return rayleigh <= 1+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkMulDenseSmall(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	n := 2000
	var edges [][2]int
	for i := 0; i < n; i++ {
		for k := 0; k < 5; k++ {
			edges = append(edges, [2]int{i, rng.Intn(n)})
		}
	}
	m := FromEdges(n, edges).WithSelfLoops().Normalized(NormSym)
	x := matrix.New(n, 64)
	matrix.RandomNormal(x, 0, 1, rng)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.MulDense(x)
	}
}
