// Package oracle is the repo's differential correctness gate. It
// holds a deliberately naive sequential reference model of the
// streaming graph (map-of-maps with the system-wide batch semantics)
// and a harness that replays one batch stream through every update
// engine × store combination — the edge-parallel locked baseline, the
// reordered engine with and without USC, the sequential Mutable path,
// the adjacency-list, DAH, tango and epoch stores, and the adaptive
// pipeline — asserting full-graph equivalence (edge sets, weights,
// degrees, in/out mirroring, per-vertex latest_bid) and
// compute-result equivalence after each batch.
//
// The paper's premise makes this load-bearing: ABR/USC/HAU/OCA pick
// different execution strategies per batch, so every strategy pair is
// a potential divergence bug. A reordered engine that drops a
// duplicate the baseline keeps, or a DAH adjacency that disagrees
// with the adjacency list, silently corrupts every downstream compute
// result. Every future performance PR must keep this package green.
//
// Batch semantics the model encodes (the contract all engines follow,
// see internal/update):
//
//   - within a batch, all insertions apply before all deletions;
//   - inserting an existing edge updates its weight; when a batch
//     inserts the same key repeatedly, the last insertion in batch
//     order wins;
//   - deleting an absent edge is a no-op;
//   - latest_bid(v) becomes the batch ID whenever v appears as either
//     endpoint of any edge in the batch, including no-op deletions.
package oracle

import (
	"fmt"
	"sort"

	"streamgraph/internal/graph"
)

// Model is the sequential reference state.
type Model struct {
	out    map[graph.VertexID]map[graph.VertexID]graph.Weight
	in     map[graph.VertexID]map[graph.VertexID]graph.Weight
	latest map[graph.VertexID]int32
	edges  int
	maxV   graph.VertexID
	anyV   bool
}

// NewModel returns an empty reference model.
func NewModel() *Model {
	return &Model{
		out:    make(map[graph.VertexID]map[graph.VertexID]graph.Weight),
		in:     make(map[graph.VertexID]map[graph.VertexID]graph.Weight),
		latest: make(map[graph.VertexID]int32),
	}
}

func (m *Model) touch(v graph.VertexID, bid int32) {
	m.latest[v] = bid
	if !m.anyV || v > m.maxV {
		m.maxV = v
		m.anyV = true
	}
}

func (m *Model) insert(src, dst graph.VertexID, w graph.Weight) {
	o := m.out[src]
	if o == nil {
		o = make(map[graph.VertexID]graph.Weight)
		m.out[src] = o
	}
	if _, exists := o[dst]; !exists {
		m.edges++
	}
	o[dst] = w
	i := m.in[dst]
	if i == nil {
		i = make(map[graph.VertexID]graph.Weight)
		m.in[dst] = i
	}
	i[src] = w
}

func (m *Model) delete(src, dst graph.VertexID) {
	o := m.out[src]
	if o == nil {
		return
	}
	if _, exists := o[dst]; !exists {
		return
	}
	delete(o, dst)
	delete(m.in[dst], src)
	m.edges--
}

// ApplyBatch applies one batch under the system-wide semantics.
func (m *Model) ApplyBatch(b *graph.Batch) {
	bid := int32(b.ID)
	for _, e := range b.Edges {
		m.touch(e.Src, bid)
		m.touch(e.Dst, bid)
		if !e.Delete {
			m.insert(e.Src, e.Dst, e.Weight)
		}
	}
	for _, e := range b.Edges {
		if e.Delete {
			m.delete(e.Src, e.Dst)
		}
	}
}

// NumEdges returns the model's directed edge count.
func (m *Model) NumEdges() int { return m.edges }

// MaxVertex returns the largest vertex ID ever referenced (0, false
// if none).
func (m *Model) MaxVertex() (graph.VertexID, bool) { return m.maxV, m.anyV }

// HasEdge reports whether src->dst exists in the model.
func (m *Model) HasEdge(src, dst graph.VertexID) bool {
	_, ok := m.out[src][dst]
	return ok
}

// Weight returns src->dst's weight and whether the edge exists.
func (m *Model) Weight(src, dst graph.VertexID) (graph.Weight, bool) {
	w, ok := m.out[src][dst]
	return w, ok
}

// LatestBID returns the model's latest_bid for v, or -1.
func (m *Model) LatestBID(v graph.VertexID) int32 {
	if b, ok := m.latest[v]; ok {
		return b
	}
	return -1
}

// Divergence describes one disagreement between a store and the
// model. Target and Batch are filled by the harness; Context carries
// the replay spec of the stream that exposed it.
type Divergence struct {
	Target  string
	Batch   int
	Context string
	Detail  string
}

// Error implements error.
func (d *Divergence) Error() string {
	msg := d.Detail
	if d.Target != "" {
		msg = fmt.Sprintf("target %q: %s", d.Target, msg)
	}
	if d.Batch >= 0 {
		msg = fmt.Sprintf("batch %d: %s", d.Batch, msg)
	}
	if d.Context != "" {
		msg = fmt.Sprintf("%s\nreplay: %s", msg, d.Context)
	}
	return msg
}

func diverge(format string, args ...any) *Divergence {
	return &Divergence{Batch: -1, Detail: fmt.Sprintf(format, args...)}
}

// Verify asserts full-graph equivalence between the store and the
// model: edge counts, per-vertex out/in degrees, exact neighbor sets
// with weights in both directions, and HasEdge agreement. The store
// must be quiescent. Returns nil or the first Divergence found.
//
// Vertex-space sizes are deliberately not compared: stores grow
// geometrically and along different call sequences, so NumVertices
// legitimately differs between representations. Only vertices the
// stream ever referenced are swept — sound because edge operations
// cannot touch other vertices, a stray out-edge elsewhere breaks the
// NumEdges comparison, and the harness's final graph.CheckMirror pass
// scans the entire store unconditionally.
func (m *Model) Verify(s graph.Store) *Divergence {
	if got := s.NumEdges(); got != m.edges {
		return diverge("NumEdges: store %d, model %d", got, m.edges)
	}
	for v := range m.latest {
		if d := m.verifyAdj(s, v, true); d != nil {
			return d
		}
		if d := m.verifyAdj(s, v, false); d != nil {
			return d
		}
	}
	return nil
}

// verifyAdj checks one direction of one vertex's adjacency.
func (m *Model) verifyAdj(s graph.Store, v graph.VertexID, out bool) *Divergence {
	var want map[graph.VertexID]graph.Weight
	dir, deg := "out", s.OutDegree(v)
	if out {
		want = m.out[v]
	} else {
		want = m.in[v]
		dir, deg = "in", s.InDegree(v)
	}
	if deg != len(want) {
		return diverge("vertex %d: %s-degree %d, model %d (model neighbors: %v)",
			v, dir, deg, len(want), sortedKeys(want))
	}
	seen := make(map[graph.VertexID]bool, deg)
	var d *Divergence
	visit := func(nb graph.Neighbor) {
		if d != nil {
			return
		}
		if seen[nb.ID] {
			d = diverge("vertex %d: duplicate %s-neighbor %d", v, dir, nb.ID)
			return
		}
		seen[nb.ID] = true
		w, ok := want[nb.ID]
		if !ok {
			d = diverge("vertex %d: stray %s-neighbor %d (weight %v) not in model", v, dir, nb.ID, nb.Weight)
			return
		}
		if w != nb.Weight {
			d = diverge("vertex %d: %s-neighbor %d weight %v, model %v", v, dir, nb.ID, nb.Weight, w)
		}
	}
	if out {
		s.ForEachOut(v, visit)
	} else {
		s.ForEachIn(v, visit)
	}
	if d != nil {
		return d
	}
	// Degrees matched and every visited neighbor was in the model, so
	// set equality holds; spot-check HasEdge on the out direction.
	if out {
		for dst := range want {
			if !s.HasEdge(v, dst) {
				return diverge("vertex %d: HasEdge(%d,%d) false but edge in model", v, v, dst)
			}
		}
	}
	return nil
}

// BIDReader is the slice of store behavior needed to audit per-vertex
// latest_bid fields: AdjacencyStore and EpochStore both satisfy it.
type BIDReader interface {
	NumVertices() int
	LatestBID(v graph.VertexID) int32
}

// VerifyLatestBIDs asserts the adjacency store's per-vertex
// latest_bid fields match the model. Only the AdjacencyStore-backed
// paths maintain latest_bid (OCA reads it); Mutable-path stores skip
// this check.
func (m *Model) VerifyLatestBIDs(s *graph.AdjacencyStore) *Divergence {
	return m.VerifyLatestBIDsOf(s)
}

// VerifyLatestBIDsOf is VerifyLatestBIDs for any latest_bid-bearing
// store (the epoch store maintains the field without being an
// AdjacencyStore).
func (m *Model) VerifyLatestBIDsOf(s BIDReader) *Divergence {
	n := s.NumVertices()
	for v, want := range m.latest {
		var got int32 = -1
		if int(v) < n {
			got = s.LatestBID(v)
		}
		if got != want {
			return diverge("vertex %d: latest_bid %d, model %d", v, got, want)
		}
	}
	return nil
}

func sortedKeys(m map[graph.VertexID]graph.Weight) []graph.VertexID {
	out := make([]graph.VertexID, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}
