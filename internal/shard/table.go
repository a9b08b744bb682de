package shard

import (
	"fmt"

	"repro/internal/matrix"
	"repro/internal/models"
)

// Table exports the N×C logits table of a decoupled model over an
// already-built shard set, indexed by global node id: the embedding recipe
// is replayed shard-locally (halo exchange at the boundaries), the shared
// head runs over each shard's slab (models.ApplyHead), and the rows are
// scattered to their global ids. It is bit-identical to the table
// checkpoint.FromResult fills on the whole graph, at every shard count; serve.NewFromTable serves it, with
// sh.Labels(), and sh need live no longer than this call.
func Table(sh *Sharded, head []models.HeadLayer, spec models.EmbeddingSpec) (*matrix.Dense, error) {
	if sh == nil {
		return nil, fmt.Errorf("shard: Table: nil shard set")
	}
	if sh.Norm != spec.Norm {
		return nil, fmt.Errorf("shard: Table: shards built with norm %v, spec wants %v", sh.Norm, spec.Norm)
	}
	locals, err := sh.Embedding(spec.Hops, spec.HopWeights)
	if err != nil {
		return nil, fmt.Errorf("shard: Table: %w", err)
	}
	table := matrix.New(sh.Plan.N(), sh.Classes)
	for i, shd := range sh.Shards {
		rows := models.ApplyHead(head, locals[i])
		for l, v := range shd.Nodes {
			copy(table.Row(v), rows.Row(l))
		}
	}
	return table, nil
}

// Labels gathers the shards' labels into one slice indexed by global node
// id — 8 B per node, nothing of the topology or the features — or returns
// nil when the shards carry none (an unlabelled source graph).
func (sh *Sharded) Labels() []int {
	var labels []int
	for _, shd := range sh.Shards {
		if shd.Labels != nil && labels == nil {
			labels = make([]int, sh.Plan.N())
		}
		for l, c := range shd.Labels {
			labels[shd.Nodes[l]] = c
		}
	}
	return labels
}
