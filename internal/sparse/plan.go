package sparse

import (
	"fmt"

	"repro/internal/matrix"
)

// Plan is a reusable propagation plan: the blocked layout of one CSR, built
// once and shared by every subsequent product with that matrix. The k-step
// propagation loops of the GNN hot paths (Eq. (7) smoothing, decoupled
// pre-propagation, label propagation, per-epoch GCN/GCNII passes) multiply
// the same normalized adjacency dozens to thousands of times; a Plan pays
// the panel reorganisation once for all of them. A Plan is immutable after
// construction and safe for concurrent use; it must be rebuilt if the
// underlying CSR is mutated.
type Plan struct {
	m *CSR
	b *blockedCSR
}

// NewPlan builds a propagation plan for m with the process-wide panel width
// (CurrentBlocking).
func NewPlan(m *CSR) *Plan { return NewPlanBlocking(m, CurrentBlocking()) }

// NewPlanBlocking builds a propagation plan for m with an explicit panel
// width. The layout affects only performance, never results.
func NewPlanBlocking(m *CSR, b Blocking) *Plan {
	if b.Panel <= 0 {
		b.Panel = DefaultBlocking().Panel
	}
	return &Plan{m: m, b: newBlocked(m, b.Panel)}
}

// Matrix returns the CSR the plan was built from. Callers must not mutate it.
func (pl *Plan) Matrix() *CSR { return pl.m }

// MulDense computes plan·x into a new dense matrix on the blocked engine.
func (pl *Plan) MulDense(x *matrix.Dense) *matrix.Dense {
	if pl.m.NCols != x.Rows {
		panic(fmt.Sprintf("sparse: Plan.MulDense %dx%d · %dx%d", pl.m.NRows, pl.m.NCols, x.Rows, x.Cols))
	}
	out := matrix.New(pl.m.NRows, x.Cols)
	pl.MulDenseInto(out, x)
	return out
}

// MulDenseInto computes dst = plan·x. dst must be NRows x x.Cols and must
// not alias x. Results are bit-identical to CSR.MulDense for every
// worker count and panel width.
func (pl *Plan) MulDenseInto(dst, x *matrix.Dense) {
	if pl.m.NCols != x.Rows || dst.Rows != pl.m.NRows || dst.Cols != x.Cols {
		panic(fmt.Sprintf("sparse: Plan.MulDenseInto dst %dx%d for %dx%d · %dx%d",
			dst.Rows, dst.Cols, pl.m.NRows, pl.m.NCols, x.Rows, x.Cols))
	}
	checkNoAlias("Plan.MulDenseInto", dst, x)
	pl.b.mulInto(dst, x)
}
