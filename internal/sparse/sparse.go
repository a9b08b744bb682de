// Package sparse implements compressed sparse row (CSR) matrices for graph
// adjacency structures, including the generalized degree normalisation
// D^{r-1}·Â·D^{-r} from Eq. (1) of the AdaFGL paper and sparse-dense matrix
// multiplication (SpMM), the hot path of every GNN in this repository.
package sparse

import (
	"fmt"
	"math"
	"sort"
	"sync"
	"unsafe"

	"repro/internal/matrix"
	"repro/internal/parallel"
)

// CSR is a sparse matrix in compressed sparse row format. Column indices
// within each row are sorted ascending and unique.
type CSR struct {
	NRows, NCols int
	RowPtr       []int     // len NRows+1
	ColIdx       []int     // len nnz
	Val          []float64 // len nnz
}

// NNZ returns the number of stored entries.
func (m *CSR) NNZ() int { return len(m.ColIdx) }

// Coord is a coordinate-format entry used to assemble CSR matrices.
type Coord struct {
	Row, Col int
	Val      float64
}

// FromCoords builds an nRows x nCols CSR matrix from coordinate entries.
// Duplicate (row, col) pairs are summed in input order. Entries summing to
// exactly zero are kept.
func FromCoords(nRows, nCols int, entries []Coord) *CSR {
	// Bucket by row with a counting pass, which keeps input order within a
	// row; then order each row by column, stably, and fold duplicates.
	m := &CSR{NRows: nRows, NCols: nCols, RowPtr: make([]int, nRows+1)}
	for _, e := range entries {
		if e.Row < 0 || e.Row >= nRows || e.Col < 0 || e.Col >= nCols {
			panic(fmt.Sprintf("sparse: FromCoords entry (%d,%d) outside %dx%d", e.Row, e.Col, nRows, nCols))
		}
		m.RowPtr[e.Row+1]++
	}
	if len(entries) == 0 {
		return m // ColIdx and Val stay nil
	}
	for r := 0; r < nRows; r++ {
		m.RowPtr[r+1] += m.RowPtr[r]
	}
	cols, vals := make([]int, len(entries)), make([]float64, len(entries))
	next := append([]int(nil), m.RowPtr[:nRows]...)
	for _, e := range entries {
		k := next[e.Row]
		cols[k], vals[k] = e.Col, e.Val
		next[e.Row]++
	}
	// Fold in place: the write index never passes the read index.
	nnz := 0
	for r := 0; r < nRows; r++ {
		lo, hi := m.RowPtr[r], m.RowPtr[r+1]
		sortRow(cols[lo:hi], vals[lo:hi])
		m.RowPtr[r] = nnz
		for i := lo; i < hi; {
			c, v := cols[i], 0.0
			for ; i < hi && cols[i] == c; i++ {
				v += vals[i]
			}
			cols[nnz], vals[nnz] = c, v
			nnz++
		}
	}
	m.RowPtr[nRows] = nnz
	m.ColIdx, m.Val = cols[:nnz], vals[:nnz]
	return m
}

// sortRow orders one row's entries by column, equal columns staying in input
// order. Rows are short (a node's degree), so insertion does it; a long row
// goes to the library's stable sort, which is never quadratic.
func sortRow(cols []int, vals []float64) {
	if len(cols) > 32 {
		sort.Stable(byCol{cols, vals})
		return
	}
	for i := 1; i < len(cols); i++ {
		c, v := cols[i], vals[i]
		j := i
		for ; j > 0 && cols[j-1] > c; j-- {
			cols[j], vals[j] = cols[j-1], vals[j-1]
		}
		cols[j], vals[j] = c, v
	}
}

// byCol sorts a row's parallel column and value slices by column.
type byCol struct {
	cols []int
	vals []float64
}

func (r byCol) Len() int           { return len(r.cols) }
func (r byCol) Less(i, j int) bool { return r.cols[i] < r.cols[j] }
func (r byCol) Swap(i, j int) {
	r.cols[i], r.cols[j] = r.cols[j], r.cols[i]
	r.vals[i], r.vals[j] = r.vals[j], r.vals[i]
}

// FromEdges builds an n x n unweighted adjacency CSR from an undirected edge
// list. Each edge {u,v} contributes entries (u,v) and (v,u) with value 1;
// self-loops contribute a single diagonal 1. Duplicate edges collapse to a
// single unit entry.
func FromEdges(n int, edges [][2]int) *CSR {
	coords := make([]Coord, 0, 2*len(edges))
	for _, e := range edges {
		coords = append(coords, Coord{e[0], e[1], 1})
		if e[0] != e[1] {
			coords = append(coords, Coord{e[1], e[0], 1})
		}
	}
	// FromCoords folds a repeated edge into one entry holding its count.
	m := FromCoords(n, n, coords)
	for i := range m.Val {
		m.Val[i] = 1
	}
	return m
}

// Clone returns a deep copy.
func (m *CSR) Clone() *CSR {
	c := &CSR{
		NRows: m.NRows, NCols: m.NCols,
		RowPtr: make([]int, len(m.RowPtr)),
		ColIdx: make([]int, len(m.ColIdx)),
		Val:    make([]float64, len(m.Val)),
	}
	copy(c.RowPtr, m.RowPtr)
	copy(c.ColIdx, m.ColIdx)
	copy(c.Val, m.Val)
	return c
}

// At returns element (i, j) via binary search within row i.
func (m *CSR) At(i, j int) float64 {
	lo, hi := m.RowPtr[i], m.RowPtr[i+1]
	idx := sort.SearchInts(m.ColIdx[lo:hi], j)
	if lo+idx < hi && m.ColIdx[lo+idx] == j {
		return m.Val[lo+idx]
	}
	return 0
}

// Row returns views of the column indices and values in row i.
func (m *CSR) Row(i int) (cols []int, vals []float64) {
	lo, hi := m.RowPtr[i], m.RowPtr[i+1]
	return m.ColIdx[lo:hi], m.Val[lo:hi]
}

// Degrees returns the per-row sums of values — for an unweighted adjacency
// matrix this is the node degree (self-loop counted once).
func (m *CSR) Degrees() []float64 {
	d := make([]float64, m.NRows)
	m.degreesInto(d)
	return d
}

// degreesInto computes per-row value sums into d (len NRows). Internal
// callers pass pooled scratch so the hot normalisation path allocates
// nothing per call.
func (m *CSR) degreesInto(d []float64) {
	parallel.ForWork(m.NRows, m.NNZ(), func(rlo, rhi int) {
		for i := rlo; i < rhi; i++ {
			lo, hi := m.RowPtr[i], m.RowPtr[i+1]
			var s float64
			for _, v := range m.Val[lo:hi] {
				s += v
			}
			d[i] = s
		}
	})
}

// WithSelfLoops returns a copy of m (square) with the diagonal set to at
// least 1 (Â = A + I semantics: existing diagonal entries are left alone).
func (m *CSR) WithSelfLoops() *CSR {
	if m.NRows != m.NCols {
		panic(fmt.Sprintf("sparse: WithSelfLoops requires a square matrix, got %dx%d", m.NRows, m.NCols))
	}
	coords := make([]Coord, 0, m.NNZ()+m.NRows)
	for i := 0; i < m.NRows; i++ {
		cols, vals := m.Row(i)
		hasDiag := false
		for k, c := range cols {
			coords = append(coords, Coord{i, c, vals[k]})
			if c == i {
				hasDiag = true
			}
		}
		if !hasDiag {
			coords = append(coords, Coord{i, i, 1})
		}
	}
	return FromCoords(m.NRows, m.NCols, coords)
}

// NormKind selects the degree-normalisation variant of Eq. (1).
type NormKind int

const (
	// NormSym is D^{-1/2} Â D^{-1/2} (GCN, r = 1/2).
	NormSym NormKind = iota
	// NormRW is Â D^{-1} (random walk, r = 1).
	NormRW
	// NormReverse is D^{-1} Â (reverse transition, r = 0).
	NormReverse
)

// Normalized returns the degree-normalised version of m per Eq. (1),
// D^{r-1}·Â·D^{-r}. m should already include self-loops for GCN semantics
// (use WithSelfLoops). Zero-degree rows are left as zero rows.
func (m *CSR) Normalized(kind NormKind) *CSR {
	degBuf := getF64(m.NRows)
	deg := *degBuf
	m.degreesInto(deg)
	out := m.Clone()
	parallel.ForWorkGrain(out.NRows, out.NNZ(), blockGrain, func(rlo, rhi int) {
		for i := rlo; i < rhi; i++ {
			normalizeRow(out, deg, i, kind)
		}
	})
	f64Pool.Put(degBuf)
	return out
}

// f64Pool recycles the degree scratch of Normalized — the hottest per-call
// allocation of the sparse layer in training loops. Zeroing is never needed:
// every element handed out is overwritten before it is read. Get/Put move
// the same holder pointer, mirroring matrix.packBuffers.
var f64Pool = sync.Pool{New: func() any { return new([]float64) }}

func getF64(n int) *[]float64 {
	buf := f64Pool.Get().(*[]float64)
	if cap(*buf) < n {
		*buf = make([]float64, n)
	}
	*buf = (*buf)[:n]
	return buf
}

// normalizeRow applies the Eq. (1) scaling to one row of out.
func normalizeRow(out *CSR, deg []float64, i int, kind NormKind) {
	lo, hi := out.RowPtr[i], out.RowPtr[i+1]
	for k := lo; k < hi; k++ {
		j := out.ColIdx[k]
		di, dj := deg[i], deg[j]
		switch kind {
		case NormSym:
			if di > 0 && dj > 0 {
				out.Val[k] /= sqrt(di) * sqrt(dj)
			} else {
				out.Val[k] = 0
			}
		case NormRW:
			// Â D^{-r} with r=1: divide by column degree.
			if dj > 0 {
				out.Val[k] /= dj
			} else {
				out.Val[k] = 0
			}
		case NormReverse:
			// D^{r-1} Â with r=0: divide by row degree.
			if di > 0 {
				out.Val[k] /= di
			} else {
				out.Val[k] = 0
			}
		}
	}
}

func sqrt(x float64) float64 {
	if x <= 0 {
		return 0
	}
	return math.Sqrt(x)
}

// MulDense computes m · x (SpMM) into a new dense matrix on the row-streamed
// kernel — the reference every Plan product is held bit-identical to. A
// caller that multiplies the same matrix more than once declares that by
// building a Plan, which runs the blocked engine (see blocked.go).
func (m *CSR) MulDense(x *matrix.Dense) *matrix.Dense {
	if m.NCols != x.Rows {
		panic(fmt.Sprintf("sparse: MulDense %dx%d · %dx%d", m.NRows, m.NCols, x.Rows, x.Cols))
	}
	out := matrix.New(m.NRows, x.Cols)
	m.MulDenseInto(out, x)
	return out
}

// MulDenseInto computes dst = m·x. dst must be m.NRows x x.Cols and must not
// alias x. It is the row-streamed SpMM kernel: each dst row accumulates its
// entries in ascending column order; row blocks write disjoint dst rows, so
// the parallel path is exact.
func (m *CSR) MulDenseInto(dst, x *matrix.Dense) {
	if m.NCols != x.Rows || dst.Rows != m.NRows || dst.Cols != x.Cols {
		panic(fmt.Sprintf("sparse: MulDenseInto dst %dx%d for %dx%d · %dx%d",
			dst.Rows, dst.Cols, m.NRows, m.NCols, x.Rows, x.Cols))
	}
	checkNoAlias("MulDenseInto", dst, x)
	dst.Zero()
	p := x.Cols
	parallel.ForWork(m.NRows, m.NNZ()*p, func(rlo, rhi int) {
		for i := rlo; i < rhi; i++ {
			lo, hi := m.RowPtr[i], m.RowPtr[i+1]
			drow := dst.Data[i*p : (i+1)*p]
			for k := lo; k < hi; k++ {
				v := m.Val[k]
				xrow := x.Data[m.ColIdx[k]*p : (m.ColIdx[k]+1)*p]
				for j, xv := range xrow {
					drow[j] += v * xv
				}
			}
		}
	})
}

// checkNoAlias panics with a named-op message when dst's backing array
// overlaps x's (including partial overlaps via subslices of one buffer):
// SpMM reads x rows after writing dst rows, so an aliased destination
// silently corrupts the product.
func checkNoAlias(op string, dst, x *matrix.Dense) {
	if dst != x && (len(dst.Data) == 0 || len(x.Data) == 0) {
		return
	}
	if dst != x {
		d0 := uintptr(unsafe.Pointer(&dst.Data[0]))
		dEnd := d0 + uintptr(len(dst.Data))*unsafe.Sizeof(dst.Data[0])
		x0 := uintptr(unsafe.Pointer(&x.Data[0]))
		xEnd := x0 + uintptr(len(x.Data))*unsafe.Sizeof(x.Data[0])
		if dEnd <= x0 || xEnd <= d0 {
			return
		}
	}
	panic(fmt.Sprintf("sparse: %s dst must not alias x", op))
}

// MulVec computes m · v for a dense vector v.
func (m *CSR) MulVec(v []float64) []float64 {
	if m.NCols != len(v) {
		panic(fmt.Sprintf("sparse: MulVec %dx%d · vector of len %d", m.NRows, m.NCols, len(v)))
	}
	out := make([]float64, m.NRows)
	parallel.ForWork(m.NRows, m.NNZ(), func(rlo, rhi int) {
		for i := rlo; i < rhi; i++ {
			lo, hi := m.RowPtr[i], m.RowPtr[i+1]
			var s float64
			for k := lo; k < hi; k++ {
				s += m.Val[k] * v[m.ColIdx[k]]
			}
			out[i] = s
		}
	})
	return out
}

// Transpose returns mᵀ.
func (m *CSR) Transpose() *CSR {
	coords := make([]Coord, 0, m.NNZ())
	for i := 0; i < m.NRows; i++ {
		cols, vals := m.Row(i)
		for k, c := range cols {
			coords = append(coords, Coord{c, i, vals[k]})
		}
	}
	return FromCoords(m.NCols, m.NRows, coords)
}

// Dense converts m to a dense matrix (for tests and small P matrices).
func (m *CSR) Dense() *matrix.Dense {
	out := matrix.New(m.NRows, m.NCols)
	for i := 0; i < m.NRows; i++ {
		cols, vals := m.Row(i)
		for k, c := range cols {
			out.Set(i, c, vals[k])
		}
	}
	return out
}
