// Package matrix provides dense row-major float64 matrices and the linear
// algebra primitives used throughout the AdaFGL reproduction: matrix
// multiplication, elementwise arithmetic, row-wise softmax, norms, and
// deterministic random initialisation.
//
// All operations are CPU-only and allocation-explicit; functions that write
// into an existing destination are suffixed Into. The zero value of Dense is
// an empty 0x0 matrix ready for use.
package matrix

import (
	"errors"
	"fmt"
	"math"
	"math/rand"

	"repro/internal/parallel"
)

// Dense is a dense row-major matrix of float64 values.
type Dense struct {
	Rows, Cols int
	// Data holds Rows*Cols values; element (i,j) is Data[i*Cols+j].
	Data []float64
}

// New returns a zeroed rows x cols matrix.
func New(rows, cols int) *Dense {
	if rows < 0 || cols < 0 {
		panic(fmt.Sprintf("matrix: New negative dimensions %dx%d", rows, cols))
	}
	return &Dense{Rows: rows, Cols: cols, Data: make([]float64, rows*cols)}
}

// FromSlice wraps data (len rows*cols) as a rows x cols matrix without copying.
func FromSlice(rows, cols int, data []float64) *Dense {
	if len(data) != rows*cols {
		panic(fmt.Sprintf("matrix: FromSlice got %d values for %dx%d", len(data), rows, cols))
	}
	return &Dense{Rows: rows, Cols: cols, Data: data}
}

// FromRows builds a matrix from a slice of equal-length rows, copying data.
func FromRows(rows [][]float64) (*Dense, error) {
	if len(rows) == 0 {
		return New(0, 0), nil
	}
	cols := len(rows[0])
	m := New(len(rows), cols)
	for i, r := range rows {
		if len(r) != cols {
			return nil, fmt.Errorf("matrix: row %d has %d columns, want %d", i, len(r), cols)
		}
		copy(m.Data[i*cols:(i+1)*cols], r)
	}
	return m, nil
}

// Identity returns the n x n identity matrix.
func Identity(n int) *Dense {
	m := New(n, n)
	for i := 0; i < n; i++ {
		m.Data[i*n+i] = 1
	}
	return m
}

// At returns element (i, j).
func (m *Dense) At(i, j int) float64 { return m.Data[i*m.Cols+j] }

// Set assigns element (i, j).
func (m *Dense) Set(i, j int, v float64) { m.Data[i*m.Cols+j] = v }

// Row returns a view (no copy) of row i.
func (m *Dense) Row(i int) []float64 { return m.Data[i*m.Cols : (i+1)*m.Cols] }

// Clone returns a deep copy of m.
func (m *Dense) Clone() *Dense {
	c := New(m.Rows, m.Cols)
	copy(c.Data, m.Data)
	return c
}

// Zero sets every element to 0.
func (m *Dense) Zero() {
	for i := range m.Data {
		m.Data[i] = 0
	}
}

// Fill sets every element to v.
func (m *Dense) Fill(v float64) {
	for i := range m.Data {
		m.Data[i] = v
	}
}

// SameShape reports whether a and b have identical dimensions.
func SameShape(a, b *Dense) bool { return a.Rows == b.Rows && a.Cols == b.Cols }

// ErrShape is returned when operand dimensions are incompatible.
var ErrShape = errors.New("matrix: incompatible shapes")

// shapeCheck panics with a descriptive message on dimension mismatch.
// Internal invariant violations are programming errors, hence panic.
func shapeCheck(ok bool, op string, a, b *Dense) {
	if !ok {
		panic(fmt.Sprintf("matrix: %s shape mismatch %dx%d vs %dx%d", op, a.Rows, a.Cols, b.Rows, b.Cols))
	}
}

// Transpose returns mᵀ.
func Transpose(m *Dense) *Dense {
	out := New(m.Cols, m.Rows)
	for i := 0; i < m.Rows; i++ {
		for j := 0; j < m.Cols; j++ {
			out.Data[j*m.Rows+i] = m.Data[i*m.Cols+j]
		}
	}
	return out
}

// Add returns a+b.
func Add(a, b *Dense) *Dense {
	out := New(a.Rows, a.Cols)
	AddInto(out, a, b)
	return out
}

// AddInto computes dst = a+b. dst must have a's shape; it may be a or b
// (element i is read before it is written).
func AddInto(dst, a, b *Dense) {
	shapeCheck(SameShape(a, b), "AddInto", a, b)
	shapeCheck(SameShape(dst, a), "AddInto", dst, a)
	parallel.ForWork(len(a.Data), len(a.Data), func(lo, hi int) {
		for i := lo; i < hi; i++ {
			dst.Data[i] = a.Data[i] + b.Data[i]
		}
	})
}

// AddInPlace computes a += b.
func AddInPlace(a, b *Dense) {
	shapeCheck(SameShape(a, b), "AddInPlace", a, b)
	parallel.ForWork(len(a.Data), len(a.Data), func(lo, hi int) {
		for i := lo; i < hi; i++ {
			a.Data[i] += b.Data[i]
		}
	})
}

// AddScaled computes a += s*b.
func AddScaled(a *Dense, s float64, b *Dense) {
	shapeCheck(SameShape(a, b), "AddScaled", a, b)
	parallel.ForWork(len(a.Data), len(a.Data), func(lo, hi int) {
		for i := lo; i < hi; i++ {
			a.Data[i] += s * b.Data[i]
		}
	})
}

// Sub returns a-b.
func Sub(a, b *Dense) *Dense {
	out := New(a.Rows, a.Cols)
	SubInto(out, a, b)
	return out
}

// SubInto computes dst = a-b. dst must have a's shape; it may be a or b.
func SubInto(dst, a, b *Dense) {
	shapeCheck(SameShape(a, b), "SubInto", a, b)
	shapeCheck(SameShape(dst, a), "SubInto", dst, a)
	parallel.ForWork(len(a.Data), len(a.Data), func(lo, hi int) {
		for i := lo; i < hi; i++ {
			dst.Data[i] = a.Data[i] - b.Data[i]
		}
	})
}

// Scale returns s*m as a new matrix.
func Scale(s float64, m *Dense) *Dense {
	out := New(m.Rows, m.Cols)
	ScaleInto(out, s, m)
	return out
}

// ScaleInto computes dst = s*m. dst must have m's shape; it may be m.
func ScaleInto(dst *Dense, s float64, m *Dense) {
	shapeCheck(SameShape(dst, m), "ScaleInto", dst, m)
	parallel.ForWork(len(m.Data), len(m.Data), func(lo, hi int) {
		for i := lo; i < hi; i++ {
			dst.Data[i] = s * m.Data[i]
		}
	})
}

// ScaleInPlace multiplies every element of m by s.
func ScaleInPlace(m *Dense, s float64) {
	for i := range m.Data {
		m.Data[i] *= s
	}
}

// AddRowVector adds vector v (len Cols) to every row of m in place,
// implementing bias addition.
func AddRowVector(m *Dense, v []float64) {
	if len(v) != m.Cols {
		panic(fmt.Sprintf("matrix: AddRowVector len %d, want %d", len(v), m.Cols))
	}
	for i := 0; i < m.Rows; i++ {
		row := m.Row(i)
		for j, b := range v {
			row[j] += b
		}
	}
}

// ColSums returns the per-column sums of m (used for bias gradients).
func ColSums(m *Dense) []float64 {
	out := make([]float64, m.Cols)
	ColSumsInto(out, m)
	return out
}

// ColSumsInto writes the per-column sums of m into dst (len m.Cols).
func ColSumsInto(dst []float64, m *Dense) {
	if len(dst) != m.Cols {
		panic(fmt.Sprintf("matrix: ColSumsInto len %d, want %d", len(dst), m.Cols))
	}
	clear(dst)
	for i := 0; i < m.Rows; i++ {
		row := m.Row(i)
		for j, v := range row {
			dst[j] += v
		}
	}
}

// RowSums returns the per-row sums of m.
func RowSums(m *Dense) []float64 {
	out := make([]float64, m.Rows)
	for i := 0; i < m.Rows; i++ {
		var s float64
		for _, v := range m.Row(i) {
			s += v
		}
		out[i] = s
	}
	return out
}

// SoftmaxRows returns the row-wise softmax of m, numerically stabilised by
// subtracting the row max.
func SoftmaxRows(m *Dense) *Dense {
	out := New(m.Rows, m.Cols)
	SoftmaxRowsInto(out, m)
	return out
}

// SoftmaxRowsInto writes the row-wise softmax of m into dst, which must have
// m's shape; it may be m (each row is read before it is written).
func SoftmaxRowsInto(dst, m *Dense) {
	shapeCheck(SameShape(dst, m), "SoftmaxRowsInto", dst, m)
	// exp is expensive relative to a flop; weight the work estimate so
	// moderately sized logit matrices still parallelize.
	parallel.ForWork(m.Rows, 8*len(m.Data), func(lo, hi int) {
		for i := lo; i < hi; i++ {
			softmaxRow(m.Row(i), dst.Row(i), m.Cols)
		}
	})
}

// softmaxRow writes the stabilised softmax of row into orow.
func softmaxRow(row, orow []float64, cols int) {
	max := math.Inf(-1)
	for _, v := range row {
		if v > max {
			max = v
		}
	}
	if math.IsInf(max, -1) {
		// No logit beat -Inf. NaNs (invisible to the > comparison) must
		// propagate rather than be masked; a genuinely all--Inf row falls
		// back to uniform so fully-masked rows keep a finite loss.
		for _, v := range row {
			if math.IsNaN(v) {
				nan := math.NaN()
				for j := range orow {
					orow[j] = nan
				}
				return
			}
		}
		u := 1 / float64(cols)
		for j := range orow {
			orow[j] = u
		}
		return
	}
	// max > -Inf, so when it is finite the max element contributes
	// exp(0) == 1 and sum >= 1: the normalisation is well-defined. NaN
	// logits — and +Inf logits, for which exp(Inf-Inf) is NaN — make sum
	// NaN and propagate through the division.
	var sum float64
	for j, v := range row {
		e := math.Exp(v - max)
		orow[j] = e
		sum += e
	}
	inv := 1 / sum
	for j := range orow {
		orow[j] *= inv
	}
}

// ArgmaxRows returns, for each row, the index of its maximum element.
func ArgmaxRows(m *Dense) []int {
	out := make([]int, m.Rows)
	for i := 0; i < m.Rows; i++ {
		row := m.Row(i)
		best, bi := math.Inf(-1), 0
		for j, v := range row {
			if v > best {
				best, bi = v, j
			}
		}
		out[i] = bi
	}
	return out
}

// ConcatCols horizontally concatenates the given matrices, which must share a
// row count.
func ConcatCols(ms ...*Dense) *Dense {
	if len(ms) == 0 {
		return New(0, 0)
	}
	rows := ms[0].Rows
	total := 0
	for _, m := range ms {
		if m.Rows != rows {
			panic(fmt.Sprintf("matrix: ConcatCols row mismatch %d vs %d", m.Rows, rows))
		}
		total += m.Cols
	}
	out := New(rows, total)
	for i := 0; i < rows; i++ {
		off := 0
		orow := out.Row(i)
		for _, m := range ms {
			copy(orow[off:off+m.Cols], m.Row(i))
			off += m.Cols
		}
	}
	return out
}

// SelectRows returns a copy of the rows of m indexed by idx, in order.
func SelectRows(m *Dense, idx []int) *Dense {
	out := New(len(idx), m.Cols)
	for i, r := range idx {
		copy(out.Row(i), m.Row(r))
	}
	return out
}

// FrobeniusNorm returns the Frobenius norm sqrt(Σ m_ij²).
func FrobeniusNorm(m *Dense) float64 {
	var s float64
	for _, v := range m.Data {
		s += v * v
	}
	return math.Sqrt(s)
}

// MaxAbs returns max |m_ij|, used for gradient-clipping diagnostics.
func MaxAbs(m *Dense) float64 {
	var s float64
	for _, v := range m.Data {
		if a := math.Abs(v); a > s {
			s = a
		}
	}
	return s
}

// XavierUniform fills m with Glorot-uniform values in
// [-sqrt(6/(fanIn+fanOut)), +sqrt(6/(fanIn+fanOut))].
func XavierUniform(m *Dense, rng *rand.Rand) {
	bound := math.Sqrt(6.0 / float64(m.Rows+m.Cols))
	for i := range m.Data {
		m.Data[i] = (rng.Float64()*2 - 1) * bound
	}
}

// RandomNormal fills m with N(mean, std²) values.
func RandomNormal(m *Dense, mean, std float64, rng *rand.Rand) {
	for i := range m.Data {
		m.Data[i] = rng.NormFloat64()*std + mean
	}
}

// Equal reports whether a and b have the same shape and all elements within
// tol of each other. NaN is treated consistently: NaN matches NaN (so two
// kernels that both produce NaN at a position compare equal) and nothing
// else — previously |NaN-x| > tol was always false, silently equating NaN
// with every finite value.
func Equal(a, b *Dense, tol float64) bool {
	if !SameShape(a, b) {
		return false
	}
	for i, v := range a.Data {
		w := b.Data[i]
		if math.IsNaN(v) || math.IsNaN(w) {
			if math.IsNaN(v) != math.IsNaN(w) {
				return false
			}
			continue
		}
		if math.Abs(v-w) > tol {
			return false
		}
	}
	return true
}

// Mean returns the arithmetic mean of all elements (0 for empty matrices).
func Mean(m *Dense) float64 {
	if len(m.Data) == 0 {
		return 0
	}
	var s float64
	for _, v := range m.Data {
		s += v
	}
	return s / float64(len(m.Data))
}

// NormalizeRowsL1 scales each row of m in place to sum to 1. Rows summing to
// zero are left untouched.
func NormalizeRowsL1(m *Dense) {
	for i := 0; i < m.Rows; i++ {
		row := m.Row(i)
		var s float64
		for _, v := range row {
			s += math.Abs(v)
		}
		if s == 0 {
			continue
		}
		inv := 1 / s
		for j := range row {
			row[j] *= inv
		}
	}
}

// String renders small matrices for debugging.
func (m *Dense) String() string {
	if m.Rows*m.Cols > 400 {
		return fmt.Sprintf("Dense(%dx%d)", m.Rows, m.Cols)
	}
	s := fmt.Sprintf("Dense(%dx%d)[", m.Rows, m.Cols)
	for i := 0; i < m.Rows; i++ {
		if i > 0 {
			s += "; "
		}
		for j := 0; j < m.Cols; j++ {
			if j > 0 {
				s += " "
			}
			s += fmt.Sprintf("%.4g", m.At(i, j))
		}
	}
	return s + "]"
}
