// Blocked SpMM engine. The sparse layer has two SpMM kernels and the caller
// chooses between them by what it builds: CSR.MulDense is the row-streamed
// kernel, for a product computed once; a Plan, built by a caller that
// multiplies the same matrix repeatedly (k-step propagation, per-epoch GNN
// passes), is this engine. It mirrors the blocked GEMM engine of
// internal/matrix: the CSR is reorganised once, at plan construction, into
// column panels sized so the referenced slice of the dense operand stays
// L2-resident, each panel stores only its non-empty rows
// (compressed-sparse-block style, so empty row scans cost nothing), and the
// per-row entry runs are streamed through a vectorised axpy micro-kernel —
// AVX on amd64 with a portable scalar fallback. Work is distributed over
// grain-aligned row blocks with parallel.ForWorkGrain inside each panel
// sweep, so every dst row is written by exactly one worker block and each dst
// element accumulates its terms in ascending column order — the same order
// as the row-streamed kernel. The micro-kernel uses separate multiply and
// add (no FMA contraction), so plan results are bit-identical to
// CSR.MulDense and to themselves for every worker count and panel width.
package sparse

import (
	"fmt"
	"math"
	"sync/atomic"

	"repro/internal/matrix"
	"repro/internal/parallel"
)

// blockGrain aligns worker row-block boundaries in the blocked kernel and in
// Normalized: 64-row blocks keep each worker's dst stripe and RowPtr slice
// aligned to whole cache lines.
const blockGrain = 64

// Blocking holds the blocked-SpMM layout parameter:
//
//	Panel — sparse-matrix columns per panel. The dense-operand rows a panel
//	references span Panel x x.Cols float64s; the default keeps that slice
//	L2-resident for the 16-64 column operands of the GNN hot paths.
type Blocking struct {
	Panel int
}

// DefaultBlocking returns the default panel width: 4096 columns, a 2 MiB
// operand window at 64 columns.
func DefaultBlocking() Blocking { return Blocking{Panel: 4096} }

// currentBlocking holds the process-wide Blocking; nil means default.
var currentBlocking atomic.Pointer[Blocking]

// SetBlocking sets the process-wide blocked-SpMM panel width and returns the
// previous value so callers can restore it. Panel <= 0 falls back to the
// default. The panel width affects only performance, never results.
func SetBlocking(b Blocking) Blocking {
	prev := CurrentBlocking()
	if b.Panel <= 0 {
		b.Panel = DefaultBlocking().Panel
	}
	currentBlocking.Store(&b)
	return prev
}

// CurrentBlocking returns the panel width the blocked engine is using.
func CurrentBlocking() Blocking {
	if b := currentBlocking.Load(); b != nil {
		return *b
	}
	return DefaultBlocking()
}

// blockedCSR is the column-panel layout: panel i covers sparse columns
// [i*panel, (i+1)*panel). Each panel lists its non-empty rows ascending with
// CSR-style entry ranges; column indices stay absolute so the kernel indexes
// the dense operand directly. Index slices are int32 (the engine guards
// dimensions at build time), halving index traffic against []int.
type blockedCSR struct {
	nRows, nCols int
	panel        int
	panels       []spmmPanel
}

// spmmPanel is one column panel.
type spmmPanel struct {
	rows []int32   // non-empty row ids, ascending
	ptr  []int32   // len(rows)+1 entry ranges into cols/vals
	cols []int32   // absolute column indices, ascending within each row
	vals []float64 // entry values, aligned with cols
}

// blockable reports whether m's dimensions fit the int32 panel layout.
func (m *CSR) blockable() bool {
	return m.NRows <= math.MaxInt32 && m.NCols <= math.MaxInt32 && m.NNZ() <= math.MaxInt32
}

// newBlocked reorganises m into column panels of the given width. Two passes
// over the entries: size every panel exactly, then fill. The layout is a
// pure function of (m, panel).
func newBlocked(m *CSR, panel int) *blockedCSR {
	if !m.blockable() {
		panic(fmt.Sprintf("sparse: blocked layout needs int32-indexable dimensions, got %dx%d nnz %d",
			m.NRows, m.NCols, m.NNZ()))
	}
	nP := (m.NCols + panel - 1) / panel
	if nP < 1 {
		nP = 1
	}
	b := &blockedCSR{nRows: m.NRows, nCols: m.NCols, panel: panel, panels: make([]spmmPanel, nP)}

	// Pass 1: per-panel entry and non-empty-row counts. Runs are delimited by
	// panel-boundary comparison (columns are sorted), one division per run.
	nnzOf := make([]int, nP)
	rowsOf := make([]int, nP)
	for i := 0; i < m.NRows; i++ {
		lo, hi := m.RowPtr[i], m.RowPtr[i+1]
		for k := lo; k < hi; {
			p := m.ColIdx[k] / panel
			end := (p + 1) * panel
			j := k + 1
			for j < hi && m.ColIdx[j] < end {
				j++
			}
			nnzOf[p] += j - k
			rowsOf[p]++
			k = j
		}
	}

	// Carve every panel's slices out of two shared slabs.
	nnz := m.NNZ()
	totalRows := 0
	for _, r := range rowsOf {
		totalRows += r + 1 // +1 for each panel's ptr sentinel
	}
	i32 := make([]int32, 2*totalRows+nnz) // rows + ptr + cols
	f64 := make([]float64, nnz)
	carveI32 := func(n int) []int32 { s := i32[:n:n]; i32 = i32[n:]; return s }
	for p := range b.panels {
		b.panels[p] = spmmPanel{
			rows: carveI32(rowsOf[p])[:0],
			ptr:  carveI32(rowsOf[p] + 1)[:1],
			cols: carveI32(nnzOf[p])[:0],
		}
		b.panels[p].ptr[0] = 0
		b.panels[p].vals, f64 = f64[:nnzOf[p]:nnzOf[p]][:0], f64[nnzOf[p]:]
	}

	// Pass 2: fill. Rows are visited ascending and entries within a row are
	// already column-sorted, so every panel's rows and per-row columns come
	// out ascending.
	for i := 0; i < m.NRows; i++ {
		lo, hi := m.RowPtr[i], m.RowPtr[i+1]
		for k := lo; k < hi; {
			p := m.ColIdx[k] / panel
			end := (p + 1) * panel
			j := k + 1
			for j < hi && m.ColIdx[j] < end {
				j++
			}
			pn := &b.panels[p]
			pn.rows = append(pn.rows, int32(i))
			for t := k; t < j; t++ {
				pn.cols = append(pn.cols, int32(m.ColIdx[t]))
			}
			pn.vals = append(pn.vals, m.Val[k:j]...)
			pn.ptr = append(pn.ptr, int32(len(pn.cols)))
			k = j
		}
	}
	return b
}

// mulInto computes dst = blocked(m)·x. Panels are swept ascending (serial),
// and inside each panel rows are distributed over grain-aligned blocks; a
// worker locates its slice of the panel's non-empty rows by binary search.
// Every dst element therefore accumulates its terms in ascending column
// order regardless of the worker count — the row-streamed kernel's exact
// order.
func (b *blockedCSR) mulInto(dst, x *matrix.Dense) {
	dst.Zero()
	p := x.Cols
	if p == 0 {
		return
	}
	for pi := range b.panels {
		pn := &b.panels[pi]
		if len(pn.rows) == 0 {
			continue
		}
		parallel.ForWorkGrain(b.nRows, len(pn.cols)*p, blockGrain, func(rlo, rhi int) {
			lo := searchI32(pn.rows, int32(rlo))
			hi := searchI32(pn.rows, int32(rhi))
			for ri := lo; ri < hi; ri++ {
				i := int(pn.rows[ri])
				s, e := pn.ptr[ri], pn.ptr[ri+1]
				axpyRun(dst.Data[i*p:(i+1)*p], x.Data, p, pn.cols[s:e], pn.vals[s:e])
			}
		})
	}
}

// searchI32 returns the first index in the ascending slice s with s[i] >= v.
func searchI32(s []int32, v int32) int {
	lo, hi := 0, len(s)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if s[mid] < v {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// axpyRun accumulates dst += Σ_k vals[k]·x[cols[k]·p : +p], one run of
// same-row entries, ascending k. The AVX kernel and the scalar loop compute
// every element with a separate multiply and add in the same order, so the
// two are bit-identical.
func axpyRun(dst []float64, x []float64, p int, cols []int32, vals []float64) {
	if len(cols) == 0 {
		return
	}
	if useSIMD && p >= 4 {
		spmmRunAVX(&dst[0], &x[0], p, &cols[0], &vals[0], len(cols))
		return
	}
	for k, c := range cols {
		v := vals[k]
		xrow := x[int(c)*p : int(c)*p+p]
		for j, xv := range xrow {
			dst[j] += v * xv
		}
	}
}
