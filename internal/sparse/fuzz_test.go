package sparse

import (
	"math"
	"testing"

	"repro/internal/matrix"
)

// Native fuzz targets for the CSR layer. Seed corpora live in
// testdata/fuzz/<Target>/ (also replayed by plain `go test`); CI runs each
// target for a bounded window. Run locally with:
//
//	go test -run='^$' -fuzz='^FuzzCSRFromEdges$' -fuzztime=30s ./internal/sparse
//
// Inputs are raw bytes decoded into small graphs/matrices, so the fuzzer
// explores structure (duplicates, self-loops, empty rows, dimension edges)
// rather than huge payloads.

// decodeEdges turns fuzz bytes into (n, edge list): first byte sizes the
// graph, the rest pair up into endpoints reduced mod n. Capped at 512 edges
// so adversarial inputs stay cheap.
func decodeEdges(data []byte) (int, [][2]int) {
	if len(data) == 0 {
		return 1, nil
	}
	n := 1 + int(data[0])%32
	rest := data[1:]
	if len(rest) > 1024 {
		rest = rest[:1024]
	}
	var edges [][2]int
	for i := 0; i+1 < len(rest); i += 2 {
		edges = append(edges, [2]int{int(rest[i]) % n, int(rest[i+1]) % n})
	}
	return n, edges
}

// checkWellFormed asserts the structural CSR invariants every constructor
// must uphold: consistent lengths, monotone row pointers, and sorted,
// unique, in-range column indices per row.
func checkWellFormed(t *testing.T, m *CSR) {
	t.Helper()
	if len(m.RowPtr) != m.NRows+1 {
		t.Fatalf("RowPtr len %d, want %d", len(m.RowPtr), m.NRows+1)
	}
	if m.RowPtr[0] != 0 || m.RowPtr[m.NRows] != m.NNZ() {
		t.Fatalf("RowPtr ends %d..%d, want 0..%d", m.RowPtr[0], m.RowPtr[m.NRows], m.NNZ())
	}
	if len(m.Val) != len(m.ColIdx) {
		t.Fatalf("Val len %d vs ColIdx len %d", len(m.Val), len(m.ColIdx))
	}
	for i := 0; i < m.NRows; i++ {
		lo, hi := m.RowPtr[i], m.RowPtr[i+1]
		if lo > hi {
			t.Fatalf("row %d: RowPtr decreases (%d > %d)", i, lo, hi)
		}
		for k := lo; k < hi; k++ {
			c := m.ColIdx[k]
			if c < 0 || c >= m.NCols {
				t.Fatalf("row %d: column %d outside [0,%d)", i, c, m.NCols)
			}
			if k > lo && m.ColIdx[k-1] >= c {
				t.Fatalf("row %d: columns not strictly ascending at %d", i, k)
			}
		}
	}
}

func FuzzCSRFromEdges(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0x05, 0x00, 0x01, 0x01, 0x02, 0x03, 0x03})
	f.Add([]byte{0x1f, 0x00, 0x00, 0x01, 0x02, 0x02, 0x01, 0x01, 0x02})
	f.Fuzz(func(t *testing.T, data []byte) {
		n, edges := decodeEdges(data)
		m := FromEdges(n, edges)
		if m.NRows != n || m.NCols != n {
			t.Fatalf("FromEdges(%d) built %dx%d", n, m.NRows, m.NCols)
		}
		checkWellFormed(t, m)
		// Every requested edge must be present with unit weight, in both
		// directions (FromEdges builds undirected adjacency).
		for _, e := range edges {
			if m.At(e[0], e[1]) != 1 || m.At(e[1], e[0]) != 1 {
				t.Fatalf("edge %v not symmetric unit entries", e)
			}
		}
		// Global symmetry: the transpose must be identical.
		if !matrix.Equal(m.Dense(), m.Transpose().Dense(), 0) {
			t.Fatal("adjacency not symmetric")
		}
		// Degrees (value sums) must add up to NNZ since all values are 1.
		var degSum float64
		for _, d := range m.Degrees() {
			degSum += d
		}
		if degSum != float64(m.NNZ()) {
			t.Fatalf("degree sum %v, want nnz %d", degSum, m.NNZ())
		}
		// Self-loop closure must keep the diagonal at exactly 1 everywhere.
		withLoops := m.WithSelfLoops()
		checkWellFormed(t, withLoops)
		for i := 0; i < n; i++ {
			if withLoops.At(i, i) != 1 {
				t.Fatalf("WithSelfLoops diagonal (%d,%d) = %v", i, i, withLoops.At(i, i))
			}
		}
	})
}

// decodeSpMM turns fuzz bytes into a small CSR plus a dense right-hand side:
// three header bytes size the operands, then byte triples become coordinate
// entries and the tail fills the dense matrix.
func decodeSpMM(data []byte) (*CSR, *matrix.Dense) {
	nr, nc, xc := 1, 1, 1
	if len(data) > 0 {
		nr = 1 + int(data[0])%16
	}
	if len(data) > 1 {
		nc = 1 + int(data[1])%16
	}
	if len(data) > 2 {
		xc = 1 + int(data[2])%8
	}
	var rest []byte
	if len(data) > 3 {
		rest = data[3:]
	}
	nCoords := len(rest) / 3
	if nCoords > 256 {
		nCoords = 256
	}
	coords := make([]Coord, 0, nCoords)
	for i := 0; i < nCoords; i++ {
		b := rest[3*i : 3*i+3]
		coords = append(coords, Coord{
			Row: int(b[0]) % nr,
			Col: int(b[1]) % nc,
			Val: float64(int(b[2])-128) / 32,
		})
	}
	m := FromCoords(nr, nc, coords)
	x := matrix.New(nc, xc)
	tail := rest[3*nCoords:]
	for i := range x.Data {
		if i < len(tail) {
			x.Data[i] = float64(int(tail[i])-128) / 64
		}
	}
	return m, x
}

func FuzzSpMMEquivalence(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0x03, 0x04, 0x02, 0x00, 0x01, 0xff, 0x02, 0x03, 0x40, 0x10, 0x20, 0x30, 0x40})
	f.Add([]byte{0x0f, 0x0f, 0x07, 0x05, 0x05, 0x00, 0x05, 0x05, 0x80, 0x01, 0x02, 0x7f})
	f.Fuzz(func(t *testing.T, data []byte) {
		m, x := decodeSpMM(data)
		got := m.MulDense(x)
		want := matrix.MulNaive(m.Dense(), x)
		if !matrix.Equal(got, want, 1e-9) {
			t.Fatalf("SpMM diverges from dense reference for %dx%d (nnz %d) · %dx%d",
				m.NRows, m.NCols, m.NNZ(), x.Rows, x.Cols)
		}
		// The blocked engine must reproduce the row-streamed kernel
		// bit-for-bit at every panel width, including widths that split the
		// columns into many panels. The width is derived from the input so
		// the fuzzer explores panel-boundary interactions.
		pw := 1
		if len(data) > 1 {
			pw = 1 + int(data[1])%8
		}
		for _, panel := range []int{pw, m.NCols} {
			pl := NewPlanBlocking(m, Blocking{Panel: panel})
			blocked := pl.MulDense(x)
			for i, v := range blocked.Data {
				if v != got.Data[i] {
					t.Fatalf("blocked (panel=%d) diverges from row-streamed kernel at %d: %v vs %v",
						panel, i, v, got.Data[i])
				}
			}
			// Plan.MulDenseInto must overwrite stale dst contents too.
			pdst := matrix.New(m.NRows, x.Cols)
			pdst.Fill(math.Pi)
			pl.MulDenseInto(pdst, x)
			if !matrix.Equal(pdst, want, 1e-9) {
				t.Fatalf("Plan.MulDenseInto (panel=%d) accumulated into stale dst", panel)
			}
		}
		// MulDenseInto must overwrite stale dst contents, not accumulate.
		dst := matrix.New(m.NRows, x.Cols)
		dst.Fill(math.Pi)
		m.MulDenseInto(dst, x)
		if !matrix.Equal(dst, want, 1e-9) {
			t.Fatal("MulDenseInto accumulated into stale dst")
		}
		// SpMV on the first column must agree with the SpMM column.
		v := make([]float64, m.NCols)
		for i := 0; i < m.NCols; i++ {
			v[i] = x.At(i, 0)
		}
		mv := m.MulVec(v)
		for i, s := range mv {
			if math.Abs(s-got.At(i, 0)) > 1e-9 {
				t.Fatalf("MulVec row %d = %v, SpMM column gives %v", i, s, got.At(i, 0))
			}
		}
	})
}
