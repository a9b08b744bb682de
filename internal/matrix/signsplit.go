package matrix

import "math"

// PositiveMask returns all ones when bits is the pattern of a float64 v > 0
// and zero otherwise (−x, ±0, every NaN): v > 0 exactly when bits lies in
// [1, bits(+Inf)], i.e. bits−1 is below bits(+Inf) unsigned — +0 wraps to
// the top, everything else non-positive already sits above. ReLU-shaped
// loops select with the mask (x & m) instead of branching on the sign, which
// is a coin flip per element and mispredicts about every other one; the
// conditional below compiles to a conditional move.
func PositiveMask(bits uint64) uint64 {
	var m uint64
	if bits-1 < 0x7FF0000000000000 {
		m = ^uint64(0)
	}
	return m
}

// RowL1Scales writes into dst, for every row i of m, the factor
// NormalizeRowsL1 multiplies row i by: 1/s_i for the row's L1 norm s_i,
// summed in ascending column order, or 1 for a row summing to zero, which
// NormalizeRowsL1 leaves as it is and v·1 is v bit for bit. Four rows' sums
// run side by side, each its own chain. dst must have m.Rows elements.
func RowL1Scales(dst []float64, m *Dense) {
	if len(dst) != m.Rows {
		panic("matrix: RowL1Scales dst length differs from the row count")
	}
	n := m.Cols
	i := 0
	for ; i+4 <= m.Rows; i += 4 {
		r0 := m.Data[i*n : (i+1)*n]
		r1 := m.Data[(i+1)*n : (i+2)*n][:len(r0)]
		r2 := m.Data[(i+2)*n : (i+3)*n][:len(r0)]
		r3 := m.Data[(i+3)*n : (i+4)*n][:len(r0)]
		var s0, s1, s2, s3 float64
		for j, v := range r0 {
			s0 += math.Abs(v)
			s1 += math.Abs(r1[j])
			s2 += math.Abs(r2[j])
			s3 += math.Abs(r3[j])
		}
		dst[i], dst[i+1], dst[i+2], dst[i+3] = l1Scale(s0), l1Scale(s1), l1Scale(s2), l1Scale(s3)
	}
	for ; i < m.Rows; i++ {
		var s float64
		for _, v := range m.Row(i) {
			s += math.Abs(v)
		}
		dst[i] = l1Scale(s)
	}
}

func l1Scale(s float64) float64 {
	if s == 0 {
		return 1
	}
	return 1 / s
}

// SignSplit writes rows [i0, i0+4) of the PoSign and NeSign halves of
// P = β·P̃ + (1−β)·(G∘S), AdaFGL's evolved propagation matrix of Eq. (11),
// into the row panels pos and neg in MulRowPanels' layout (element (s, r) at
// s·4 + r, the rows past pt.Rows +0 in both). S scales G's row i by scale[i]
// — with RowL1Scales' factors, G∘S is NormalizeRowsL1(G) bit for bit — or,
// with byCol, G's column s by scale[s]. Every element is
//
//	v = round(β·p̃) + round((1−β)·round(g·s)),
//
// the explicit roundings keeping any build from fusing a product into the
// add, then pos = v where v > 0, else +0, and neg = −v where not, else +0
// (so a zero lands in neg as −0, and so does every NaN, negated). On SIMD
// machines whole 4-row stripes run signSplitAVX over their 4-column groups,
// which does the same operations in vector lanes; the columns past the last
// group, and the last stripe when it has fewer than 4 rows, take the scalar
// loop. pt and g must have one shape, pos and neg at least 4·pt.Cols
// elements.
func SignSplit(pos, neg []float64, beta float64, pt, g *Dense, scale []float64, byCol bool, i0 int) {
	if !SameShape(pt, g) {
		panic("matrix: SignSplit operands differ in shape")
	}
	k := pt.Cols
	rows := min(mr, pt.Rows-i0)
	pos, neg = pos[:mr*k], neg[:mr*k]
	rest := 1 - beta
	s0 := 0
	if useSIMD && rows == mr && k >= nr {
		groups := k / nr
		// A row scale is a per-row broadcast: four copies of each of the
		// stripe's four factors, read in place of the next group's.
		var rowScale [mr * nr]float64
		sc, scRow, scStep := &rowScale[0], nr*8, 0
		if byCol {
			sc, scRow, scStep = &scale[0], 0, nr*8
		} else {
			for r := range rowScale {
				rowScale[r] = scale[i0+r/nr]
			}
		}
		signSplitAVX(&pos[0], &neg[0], &pt.Data[i0*k], &g.Data[i0*k], k, groups, beta, rest, sc, scRow, scStep)
		s0 = groups * nr
	}
	for s := s0; s < k; s++ {
		for r := 0; r < mr; r++ {
			if r >= rows {
				pos[s*mr+r], neg[s*mr+r] = 0, 0
				continue
			}
			i := i0 + r
			f := scale[i]
			if byCol {
				f = scale[s]
			}
			v := float64(beta*pt.Data[i*k+s]) + float64(rest*float64(g.Data[i*k+s]*f))
			bits := math.Float64bits(v)
			m := PositiveMask(bits)
			pos[s*mr+r] = math.Float64frombits(bits & m)
			neg[s*mr+r] = math.Float64frombits((bits ^ 1<<63) &^ m)
		}
	}
}
