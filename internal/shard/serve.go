package shard

import (
	"fmt"

	"repro/internal/matrix"
	"repro/internal/models"
	"repro/internal/serve"
)

// labelSource is the node universe of a sharded graph as a server sees it:
// global ids, the class count and (when the shards carry them) the labels —
// 8 B per node, nothing of the topology or the features.
type labelSource struct {
	labels  []int // nil when the source graph is unlabelled
	n       int
	classes int
}

func (src labelSource) NumNodes() int   { return src.n }
func (src labelSource) NumClasses() int { return src.classes }
func (src labelSource) Label(node int) (int, bool) {
	if node < 0 || node >= len(src.labels) {
		return 0, false
	}
	return src.labels[node], true
}

// NewFromParts starts a server for a decoupled model over an already-built
// shard set. It is the plain serve.Server — global node ids, one N×C logits
// table — with a sharded fill: the embedding recipe is replayed shard-locally
// (halo exchange at the boundaries), the shared head runs over each shard's
// slab, and the rows are scattered to their global ids. The fill runs in the
// first window that needs the table; after it the server holds the table and
// the labels only, so sh is referenced no longer than it takes to fill.
// Answers are bit-identical to the unsharded serve.New at every shard count.
func NewFromParts(sh *Sharded, arch string, head []models.HeadLayer, spec models.EmbeddingSpec, opt serve.Options) (*serve.Server, error) {
	if sh == nil {
		return nil, fmt.Errorf("shard: NewFromParts: nil shard set")
	}
	if sh.Norm != spec.Norm {
		return nil, fmt.Errorf("shard: NewFromParts: shards built with norm %v, spec wants %v", sh.Norm, spec.Norm)
	}
	if err := checkRecipe(spec.Hops, spec.HopWeights); err != nil {
		return nil, fmt.Errorf("shard: NewFromParts: %w", err)
	}
	n := sh.Plan.N()
	src := labelSource{n: n, classes: sh.Classes}
	for _, shd := range sh.Shards {
		if shd.Labels != nil && src.labels == nil {
			src.labels = make([]int, n)
		}
		for l, c := range shd.Labels {
			src.labels[shd.Nodes[l]] = c
		}
	}
	fill := func() *matrix.Dense {
		locals, err := sh.Embedding(spec.Hops, spec.HopWeights)
		if err != nil {
			panic(err)
		}
		table := matrix.New(n, sh.Classes)
		for i, shd := range sh.Shards {
			rows := serve.ApplyHead(head, locals[i])
			for l, v := range shd.Nodes {
				copy(table.Row(v), rows.Row(l))
			}
		}
		return table
	}
	return serve.NewFromFill(src, arch, fill, opt)
}
