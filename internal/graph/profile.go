package graph

// DefaultProfileLambda is the default high-degree cutoff for
// ProfileBatch's CAD computation. It matches the ABR controller's tuned
// λ (abr.Params), so a profile's CAD is on ABR's scale.
const DefaultProfileLambda = 256

// InputProfile is one batch's observed input-knowledge summary,
// computed by ProfileBatch. The shard repartitioner (internal/shard)
// steers on its degree skew.
//
// InputProfile values are immutable once constructed: they are passed
// by value and never updated in place.
type InputProfile struct {
	// Edges is the batch size in edge operations.
	Edges int
	// DeleteRatio is the fraction of the batch that is deletions.
	DeleteRatio float64
	// DegreeSkew is the fraction of the batch's edges aimed at its
	// single hottest destination — 1/n for a uniform batch, →1 for a
	// single-hub batch.
	DegreeSkew float64
	// CAD is the batch's CAD_λ: the average intra-batch in-degree of
	// destinations with degree > λ, 0 when the batch has none. The
	// formula mirrors internal/abr's accumulator (graph cannot import
	// abr — abr imports graph).
	CAD float64
}

// ProfileBatch computes an InputProfile in one pass over the batch's
// destination degrees. lambda is the CAD high-degree cutoff
// (DefaultProfileLambda matches the ABR controller).
func ProfileBatch(b *Batch, lambda int) InputProfile {
	p := InputProfile{Edges: len(b.Edges)}
	if len(b.Edges) == 0 {
		return p
	}
	deg := make(map[VertexID]int, len(b.Edges))
	deletes := 0
	for _, e := range b.Edges {
		deg[e.Dst]++
		if e.Delete {
			deletes++
		}
	}
	maxIn, hotEdges, hotVerts := 0, 0, 0
	for _, d := range deg {
		if d > maxIn {
			maxIn = d
		}
		if d > lambda {
			hotEdges += d
			hotVerts++
		}
	}
	p.DeleteRatio = float64(deletes) / float64(len(b.Edges))
	p.DegreeSkew = float64(maxIn) / float64(len(b.Edges))
	if hotVerts > 0 {
		p.CAD = float64(hotEdges) / float64(hotVerts)
	}
	return p
}
