package shard

import (
	"fmt"
	"time"

	"repro/internal/matrix"
	"repro/internal/telemetry"
)

// The slab protocol: each shard's working state during propagation is a
// len(Cols) × F dense slab, one row per column-space node — owned rows live
// at colOfLocal positions, halo rows at the halo positions. A propagation
// hop is then purely local SpMM (the shard's Adj over its own slab) followed
// by one Exchange that refreshes every halo row from its owner's slab. In a
// real fleet Exchange is the network step; here it is a bounded set of row
// copies, which keeps the simulated fleet's numerics exactly those of the
// distributed one.

// FeatureSlabs builds the hop-zero slabs: every shard's feature rows
// scattered to their column positions, halos filled by one exchange.
func (sh *Sharded) FeatureSlabs() []*matrix.Dense {
	slabs := make([]*matrix.Dense, len(sh.Shards))
	for i, s := range sh.Shards {
		slab := matrix.New(len(s.Cols), sh.Features)
		for local, pos := range s.colOfLocal {
			copy(slab.Row(int(pos)), s.X.Row(local))
		}
		slabs[i] = slab
	}
	sh.Exchange(slabs)
	return slabs
}

// Exchange refreshes every shard's halo rows from the owners' slabs — the
// cross-shard traffic of one propagation hop. Halo rows are exact copies of
// the owner's rows, never recomputed, so a value observed through a halo is
// bit-equal to the value the owner holds. The exchanged bytes and wall time
// feed the adafgl_shard_exchange_* families (observation only).
func (sh *Sharded) Exchange(slabs []*matrix.Dense) {
	observe := telemetry.Enabled()
	var start time.Time
	if observe {
		start = time.Now()
	}
	var bytes uint64
	for i, s := range sh.Shards {
		for _, h := range s.halos {
			copy(slabs[i].Row(int(h.pos)), slabs[h.owner].Row(int(h.row)))
		}
		if observe {
			bytes += uint64(len(s.halos)) * uint64(slabs[i].Cols) * 8
		}
	}
	if observe {
		telExchanges.Inc()
		telExchangeBytes.Add(bytes)
		telExchangeSeconds.Observe(time.Since(start).Seconds())
	}
}

// PropagateSlabs runs one Ã·H hop: per shard, the local blocked SpMM over
// its slab produces the owned rows of the next layer, which are scattered
// into a fresh slab; one Exchange then fills the halo rows. Each owned
// output row accumulates its neighbour terms in ascending global-column
// order — the same order as the unsharded kernel — which is what keeps
// sharded propagation bit-identical to single-process propagation.
func (sh *Sharded) PropagateSlabs(slabs []*matrix.Dense) []*matrix.Dense {
	next := make([]*matrix.Dense, len(sh.Shards))
	for i, s := range sh.Shards {
		local := s.plan.MulDense(slabs[i])
		slab := matrix.New(len(s.Cols), local.Cols)
		for l, pos := range s.colOfLocal {
			copy(slab.Row(int(pos)), local.Row(l))
		}
		next[i] = slab
	}
	sh.Exchange(next)
	return next
}

// LocalRows gathers each shard's owned rows out of its slab, in local-id
// order — the per-shard slice of the global matrix the slabs represent.
func (sh *Sharded) LocalRows(slabs []*matrix.Dense) []*matrix.Dense {
	out := make([]*matrix.Dense, len(sh.Shards))
	for i, s := range sh.Shards {
		m := matrix.New(len(s.Nodes), slabs[i].Cols)
		for l, pos := range s.colOfLocal {
			copy(m.Row(l), slabs[i].Row(int(pos)))
		}
		out[i] = m
	}
	return out
}

// checkRecipe rejects an embedding recipe Embedding cannot run.
func checkRecipe(hops int, weights []float64) error {
	if hops < 0 {
		return fmt.Errorf("shard: Embedding: %d hops < 0", hops)
	}
	if weights != nil && len(weights) != hops+1 {
		return fmt.Errorf("shard: Embedding: %d weights for %d hops (want %d)", len(weights), hops, hops+1)
	}
	return nil
}

// Embedding materialises each shard's slice of a decoupled model's
// propagated embedding (models.EmbeddingSpec): K hops of halo-exchanged
// propagation, taking the final hop alone (weights nil) or combining all
// K+1 hops Σ_k weights[k]·X^(k) in ascending k order — the accumulation
// order GAMLP's combine uses, so the shard rows are bit-equal to the
// corresponding rows of the unsharded embedding.
func (sh *Sharded) Embedding(hops int, weights []float64) ([]*matrix.Dense, error) {
	if err := checkRecipe(hops, weights); err != nil {
		return nil, err
	}
	slabs := sh.FeatureSlabs()
	if weights == nil {
		for k := 0; k < hops; k++ {
			slabs = sh.PropagateSlabs(slabs)
		}
		return sh.LocalRows(slabs), nil
	}
	acc := make([]*matrix.Dense, len(sh.Shards))
	for i, s := range sh.Shards {
		acc[i] = matrix.New(len(s.Nodes), sh.Features)
	}
	for k := 0; k <= hops; k++ {
		if k > 0 {
			slabs = sh.PropagateSlabs(slabs)
		}
		locals := sh.LocalRows(slabs)
		for i := range acc {
			matrix.AddScaled(acc[i], weights[k], locals[i])
		}
	}
	return acc, nil
}
