package matrix

import "repro/internal/telemetry"

// Kernel-dispatch telemetry: which engine each dense product took and how
// many register tiles the blocked engine ran, split into full 4x4 tiles (the
// fused multiply-add kernels, single or paired) and partial edge tiles
// (multiply-then-add). Both are computed once per call from the product's
// shape — never counted tile by tile — and are observation only: no dispatch
// consults a counter.
var (
	telGEMM = telemetry.Default().CounterVec("adafgl_matrix_gemm_total",
		"Dense products by the engine that ran them.", "path")
	telGEMMNaive   = telGEMM.With("naive")
	telGEMMBlocked = telGEMM.With("blocked")

	telTiles = telemetry.Default().CounterVec("adafgl_matrix_gemm_tiles_total",
		"Blocked-GEMM 4x4 register tiles run, by tile kind (a paired call runs two full tiles).", "kind")
	telTilesFull = telTiles.With("full")
	telTilesEdge = telTiles.With("edge")
)

// countBlocked records one blocked n x k · k x p product: every KC-deep slice
// runs ceil(n/mr)·ceil(p/nr) tiles, of which only the last tile row and last
// tile column are partial (row blocks and NC panels are tile-aligned).
func countBlocked(n, k, p, kc int) {
	if !telemetry.Enabled() {
		return
	}
	slices := (k + kc - 1) / kc
	full := (n / mr) * (p / nr) * slices
	all := (roundUp(n, mr) / mr) * (roundUp(p, nr) / nr) * slices
	telGEMMBlocked.Inc()
	telTilesFull.Add(uint64(full))
	telTilesEdge.Add(uint64(all - full))
}
