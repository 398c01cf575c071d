package graph

import (
	"sync"
	"sync/atomic"
)

// Tier thresholds for the GraphTango-style store. A vertex's adjacency
// (per direction) lives in exactly one of three representations chosen
// by its current degree:
//
//	inline  degree <= tangoInlineCap    neighbors packed in the vertex
//	                                    record itself, zero heap objects
//	sorted  degree <= tangoHashMin      ID-sorted array, binary-search
//	                                    duplicate checks, grown in
//	                                    cache-line blocks
//	hash    degree >  tangoHashMin      robin-hood map (rhMap, shared
//	                                    with the DAH store), O(1)
//	                                    duplicate checks and deletes
//
// Demotion thresholds sit well below the matching promotion thresholds
// so an insert/delete cycle at a boundary cannot thrash between
// representations.
const (
	// tangoInlineCap neighbors fit in the vertex record: 4 × 8 bytes,
	// half a cache line per direction.
	tangoInlineCap = 4
	// tangoInlineDemote is the degree at or below which a sorted array
	// collapses back into the inline slots (promotion happens at
	// tangoInlineCap+1, leaving a 2-entry hysteresis band).
	tangoInlineDemote = tangoInlineCap - 2
	// tangoHashMin is the degree above which the sorted array becomes a
	// robin-hood hash; matches dahThreshold so DAH and tango flip to
	// hashing at the same hub size.
	tangoHashMin = 32
	// tangoHashDemote is the degree below which the hash collapses back
	// to a sorted array.
	tangoHashDemote = tangoHashMin / 2
	// tangoBlock is the sorted-array growth quantum in neighbors:
	// 8 × 8-byte Neighbor entries = one 64-byte cache line per block.
	tangoBlock = 8
)

// Representation labels reported by RepCensus.
const (
	RepInline = "inline"
	RepSorted = "sorted"
	RepHash   = "hash"
)

// RepCensus counts vertices by current out-adjacency representation.
// Transitions is the cumulative number of tier changes (both
// directions, promotions and demotions) since the store was created.
type RepCensus struct {
	Inline      int
	Sorted      int
	Hash        int
	Transitions int64
}

// tangoAdj is one direction of a vertex's adjacency. The active tier is
// encoded structurally: hash != nil → hash tier; sorted != nil → sorted
// tier; otherwise the first n entries of inline hold the neighbors.
type tangoAdj struct {
	n      uint16
	inline [tangoInlineCap]Neighbor
	sorted []Neighbor
	hash   *rhMap
}

func (a *tangoAdj) degree() int {
	if a.hash != nil {
		return a.hash.n
	}
	if a.sorted != nil {
		return len(a.sorted)
	}
	return int(a.n)
}

// search binary-searches the sorted tier for id, returning the
// insertion index and whether id is present.
func (a *tangoAdj) search(id VertexID) (int, bool) {
	lo, hi := 0, len(a.sorted)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if a.sorted[mid].ID < id {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo, lo < len(a.sorted) && a.sorted[lo].ID == id
}

// insert adds or updates id; returns true if a new entry was created.
// trans counts representation transitions.
func (a *tangoAdj) insert(id VertexID, w Weight, trans *atomic.Int64) bool {
	if a.hash != nil {
		return a.hash.put(id, w)
	}
	if a.sorted != nil {
		i, ok := a.search(id)
		if ok {
			a.sorted[i].Weight = w
			return false
		}
		if len(a.sorted) >= tangoHashMin {
			// Promote to hash, then insert there.
			h := newRHMap(len(a.sorted) + 1)
			for _, nb := range a.sorted {
				h.put(nb.ID, nb.Weight)
			}
			a.sorted = nil
			a.hash = h
			trans.Add(1)
			return h.put(id, w)
		}
		if len(a.sorted) == cap(a.sorted) {
			// Grow by whole cache-line blocks rather than Go's append
			// doubling, keeping tail vertices at one or two lines.
			grown := make([]Neighbor, len(a.sorted), cap(a.sorted)+tangoBlock)
			copy(grown, a.sorted)
			a.sorted = grown
		}
		a.sorted = append(a.sorted, Neighbor{})
		copy(a.sorted[i+1:], a.sorted[i:])
		a.sorted[i] = Neighbor{ID: id, Weight: w}
		return true
	}
	// Inline tier.
	for i := 0; i < int(a.n); i++ {
		if a.inline[i].ID == id {
			a.inline[i].Weight = w
			return false
		}
	}
	if int(a.n) < tangoInlineCap {
		a.inline[a.n] = Neighbor{ID: id, Weight: w}
		a.n++
		return true
	}
	// Promote inline → sorted: one cache-line block holds the old
	// inline entries plus the newcomer.
	s := make([]Neighbor, 0, tangoBlock)
	s = append(s, a.inline[:a.n]...)
	s = append(s, Neighbor{ID: id, Weight: w})
	insertionSort(s)
	a.sorted = s
	a.n = 0
	trans.Add(1)
	return true
}

// delete removes id; returns true if it existed.
func (a *tangoAdj) delete(id VertexID, trans *atomic.Int64) bool {
	if a.hash != nil {
		if !a.hash.del(id) {
			return false
		}
		if a.hash.n < tangoHashDemote {
			// Demote hash → sorted.
			s := make([]Neighbor, 0, sortedCap(a.hash.n))
			a.hash.foreach(func(k VertexID, w Weight) {
				s = append(s, Neighbor{ID: k, Weight: w})
			})
			insertionSort(s)
			a.hash = nil
			a.sorted = s
			trans.Add(1)
		}
		return true
	}
	if a.sorted != nil {
		i, ok := a.search(id)
		if !ok {
			return false
		}
		copy(a.sorted[i:], a.sorted[i+1:])
		a.sorted = a.sorted[:len(a.sorted)-1]
		if len(a.sorted) <= tangoInlineDemote {
			// Demote sorted → inline.
			a.n = uint16(copy(a.inline[:], a.sorted))
			a.sorted = nil
			trans.Add(1)
		}
		return true
	}
	for i := 0; i < int(a.n); i++ {
		if a.inline[i].ID == id {
			a.n--
			a.inline[i] = a.inline[a.n]
			a.inline[a.n] = Neighbor{}
			return true
		}
	}
	return false
}

func (a *tangoAdj) has(id VertexID) bool {
	if a.hash != nil {
		_, ok := a.hash.get(id)
		return ok
	}
	if a.sorted != nil {
		_, ok := a.search(id)
		return ok
	}
	for i := 0; i < int(a.n); i++ {
		if a.inline[i].ID == id {
			return true
		}
	}
	return false
}

func (a *tangoAdj) foreach(fn func(Neighbor)) {
	if a.hash != nil {
		a.hash.foreach(func(k VertexID, w Weight) { fn(Neighbor{ID: k, Weight: w}) })
		return
	}
	if a.sorted != nil {
		for _, nb := range a.sorted {
			fn(nb)
		}
		return
	}
	for i := 0; i < int(a.n); i++ {
		fn(a.inline[i])
	}
}

// rep returns the representation label for census reporting.
func (a *tangoAdj) rep() string {
	switch {
	case a.hash != nil:
		return RepHash
	case a.sorted != nil:
		return RepSorted
	default:
		return RepInline
	}
}

// sortedCap rounds n up to whole tangoBlock cache-line blocks.
func sortedCap(n int) int {
	blocks := (n + tangoBlock - 1) / tangoBlock
	if blocks == 0 {
		blocks = 1
	}
	return blocks * tangoBlock
}

// insertionSort orders a small neighbor slice by ID. The inputs are at
// most tangoHashDemote entries, where insertion sort beats sort.Slice
// and allocates nothing.
func insertionSort(s []Neighbor) {
	for i := 1; i < len(s); i++ {
		nb := s[i]
		j := i - 1
		for j >= 0 && s[j].ID > nb.ID {
			s[j+1] = s[j]
			j--
		}
		s[j+1] = nb
	}
}

// tangoVertex is the per-vertex record: lock, OCA latest_bid, and both
// adjacency directions with their inline slots embedded, so a degree ≤
// tangoInlineCap vertex costs zero adjacency heap objects.
type tangoVertex struct {
	mu        sync.Mutex
	latestBID int32
	// out and in are written under mu; reads are lock-free during
	// quiescent compute phases.
	out tangoAdj //sglint:guard mu writes
	in  tangoAdj //sglint:guard mu writes
}

// TangoStore is the GraphTango-style dynamic graph store: per-vertex
// degree-driven representation transitions between inline slots in the
// vertex record, an ID-sorted array grown in 64-byte blocks, and a
// robin-hood hash, so tail vertices stay allocation-free and
// cache-resident while hubs keep O(1) duplicate checks and deletes.
//
// Concurrency model matches the other stores: an atomically swapped
// table of stable per-vertex pointers plus a per-vertex mutex for
// single-edge mutation.
type TangoStore struct {
	verts   atomic.Pointer[[]*tangoVertex]
	growMu  sync.Mutex
	numEdge atomic.Int64
	trans   atomic.Int64
}

// NewTangoStore returns a tango store pre-sized for n vertices.
func NewTangoStore(n int) *TangoStore {
	s := &TangoStore{}
	vs := make([]*tangoVertex, n)
	for i := range vs {
		vs[i] = &tangoVertex{latestBID: -1}
	}
	s.verts.Store(&vs)
	return s
}

// NumVertices implements Store.
func (s *TangoStore) NumVertices() int { return len(*s.verts.Load()) }

// NumEdges implements Store.
func (s *TangoStore) NumEdges() int { return int(s.numEdge.Load()) }

// Transitions returns the cumulative count of per-vertex representation
// changes (inline↔sorted↔hash, either direction, both adjacency sides).
func (s *TangoStore) Transitions() int64 { return s.trans.Load() }

// EnsureVertices grows the vertex space to at least n vertices. Safe
// for concurrent use; existing per-vertex records are preserved.
func (s *TangoStore) EnsureVertices(n int) {
	if len(*s.verts.Load()) >= n {
		return
	}
	s.growMu.Lock()
	defer s.growMu.Unlock()
	old := *s.verts.Load()
	if len(old) >= n {
		return
	}
	capN := len(old)*2 + 1
	if capN < n {
		capN = n
	}
	vs := make([]*tangoVertex, capN)
	copy(vs, old)
	for i := len(old); i < capN; i++ {
		vs[i] = &tangoVertex{latestBID: -1}
	}
	s.verts.Store(&vs)
}

func (s *TangoStore) at(v VertexID) *tangoVertex {
	vs := *s.verts.Load()
	if int(v) >= len(vs) {
		s.EnsureVertices(int(v) + 1)
		vs = *s.verts.Load()
	}
	return vs[v]
}

// LatestBID returns the last batch ID in which v appeared, or -1.
func (s *TangoStore) LatestBID(v VertexID) int32 {
	return atomic.LoadInt32(&s.at(v).latestBID)
}

// SetLatestBID records that v appeared in batch bid.
func (s *TangoStore) SetLatestBID(v VertexID, bid int32) {
	atomic.StoreInt32(&s.at(v).latestBID, bid)
}

// SwapLatestBID atomically sets latest_bid and returns the previous
// value, mirroring AdjacencyStore for OCA-style overlap accounting.
func (s *TangoStore) SwapLatestBID(v VertexID, bid int32) int32 {
	return atomic.SwapInt32(&s.at(v).latestBID, bid)
}

// OutDegree implements Store.
func (s *TangoStore) OutDegree(v VertexID) int {
	if int(v) >= s.NumVertices() {
		return 0
	}
	return s.at(v).out.degree()
}

// InDegree implements Store.
func (s *TangoStore) InDegree(v VertexID) int {
	if int(v) >= s.NumVertices() {
		return 0
	}
	return s.at(v).in.degree()
}

// ForEachOut implements Store. Intended for the quiescent compute
// phase; does not take the vertex lock.
func (s *TangoStore) ForEachOut(v VertexID, fn func(Neighbor)) {
	if int(v) >= s.NumVertices() {
		return
	}
	s.at(v).out.foreach(fn)
}

// ForEachIn implements Store under the same contract as ForEachOut.
func (s *TangoStore) ForEachIn(v VertexID, fn func(Neighbor)) {
	if int(v) >= s.NumVertices() {
		return
	}
	s.at(v).in.foreach(fn)
}

// HasEdge implements Store.
func (s *TangoStore) HasEdge(src, dst VertexID) bool {
	if int(src) >= s.NumVertices() {
		return false
	}
	return s.at(src).out.has(dst)
}

// InsertEdge implements Mutable. Duplicate checks are O(1) in the hash
// tier, O(log d) in the sorted tier, and at most tangoInlineCap
// comparisons inline.
func (s *TangoStore) InsertEdge(e Edge) bool {
	s.EnsureVertices(int(e.Src) + 1)
	s.EnsureVertices(int(e.Dst) + 1)
	sv, dv := s.at(e.Src), s.at(e.Dst)
	lockEdge(e.Src, e.Dst, sv, dv)
	added := sv.out.insert(e.Dst, e.Weight, &s.trans)
	dv.in.insert(e.Src, e.Weight, &s.trans)
	unlockEdge(sv, dv)
	if added {
		s.numEdge.Add(1)
	}
	return added
}

// DeleteEdge implements Mutable. Returns true if the edge existed.
func (s *TangoStore) DeleteEdge(src, dst VertexID) bool {
	if int(src) >= s.NumVertices() || int(dst) >= s.NumVertices() {
		return false
	}
	sv, dv := s.at(src), s.at(dst)
	lockEdge(src, dst, sv, dv)
	removed := sv.out.delete(dst, &s.trans)
	if removed {
		dv.in.delete(src, &s.trans)
	}
	unlockEdge(sv, dv)
	if removed {
		s.numEdge.Add(-1)
	}
	return removed
}

// lockEdge locks both endpoints of src->dst, the lower vertex ID first
// (once for a self-loop). Holding both across the out-list and in-list
// writes keeps an insert and a delete of the same edge from
// interleaving between the two and tearing the mirror; the fixed order
// keeps writers on (a,b) and (b,a) from deadlocking.
func lockEdge(src, dst VertexID, sv, dv *tangoVertex) {
	lo, hi := sv, dv
	if dst < src {
		lo, hi = dv, sv
	}
	lo.mu.Lock()
	if hi != lo {
		hi.mu.Lock() //sglint:ignore lockorder lo is the lower vertex ID, so nesting is in ascending order
	}
}

// unlockEdge releases the locks lockEdge took.
func unlockEdge(sv, dv *tangoVertex) {
	sv.mu.Unlock()
	if dv != sv {
		dv.mu.Unlock()
	}
}

// Census classifies every vertex by its out-adjacency representation.
// The store must be quiescent (no concurrent writers).
func (s *TangoStore) Census() RepCensus {
	c := RepCensus{Transitions: s.trans.Load()}
	vs := *s.verts.Load()
	for _, v := range vs {
		switch v.out.rep() {
		case RepHash:
			c.Hash++
		case RepSorted:
			c.Sorted++
		default:
			c.Inline++
		}
	}
	return c
}

var _ Mutable = (*TangoStore)(nil)
