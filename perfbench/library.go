package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"time"

	"streamgraph"
	"streamgraph/internal/abr"
	"streamgraph/internal/compute"
	"streamgraph/internal/gen"
	"streamgraph/internal/graph"
	"streamgraph/internal/oca"
	"streamgraph/internal/oracle"
	"streamgraph/internal/update"
)

// libSpec is a library workload: one caller applies batches in a closed
// loop and reads results between batches. A run repeats rounds, each a
// fresh System fed the same batches, until the measuring time is over;
// rounds keep the graph size, and so the per-batch cost, the same from
// round to round.
type libSpec struct {
	profile      string
	batchEdges   int
	analytics    streamgraph.Analytics
	preloadEdges int // applied and flushed during set-up
	roundBatches int
	// setupRepeats is how many extra set-ups a run times besides one per
	// round, for set-ups so short that a few would make a noisy median.
	setupRepeats int
}

var (
	// The talk profile at 50K-edge batches is the paper's
	// reorder-friendly regime: ABR reorders nearly every batch, so
	// abr, reorder and update do the work.
	hubIngest = libSpec{profile: "talk", batchEdges: 50000,
		analytics: streamgraph.AnalyticsNone, roundBatches: 40, setupRepeats: 20}
	// The lj profile is shuffled and low-degree: ABR keeps the baseline
	// engine and OCA finds little overlap, so compute runs after every
	// batch over a 400K-vertex working set, pre-loaded so it is warm.
	flatPageRank = libSpec{profile: "lj", batchEdges: 10000,
		analytics: streamgraph.AnalyticsPageRank, preloadEdges: 500000, roundBatches: 40}
)

// readsPerBatch is how many vertices the caller reads after each batch:
// their neighbours and, when analytics run, their analytic value. Reads
// cost microseconds, and many of them steady the read percentiles.
const readsPerBatch = 256

type libInput struct {
	cfg     streamgraph.Config
	serving bool // configure the System as the server workload does
	preload []graph.Edge
	batches [][]graph.Edge
	reads   [][]graph.VertexID // per batch, recently touched vertices
	edges   int                // edges in batches, preload excluded
	model   *oracle.Model      // built on first use, after the timed rounds
}

func makeLibInput(s libSpec, seed int64) (*libInput, error) {
	p, err := gen.ProfileByName(s.profile)
	if err != nil {
		return nil, err
	}
	st := gen.NewStreamSeed(p, seed)
	rng := rand.New(rand.NewSource(seed))
	in := &libInput{cfg: streamgraph.Config{Vertices: p.Vertices, Analytics: s.analytics}}
	if s.preloadEdges > 0 {
		in.preload = st.NextBatch(s.preloadEdges).Edges
	}
	for i := 0; i < s.roundBatches; i++ {
		es := st.NextBatch(s.batchEdges).Edges
		vs := make([]graph.VertexID, readsPerBatch)
		for j := range vs {
			e := es[rng.Intn(len(es))]
			vs[j] = e.Dst
			if j%2 == 0 {
				vs[j] = e.Src
			}
		}
		in.add(es, vs)
	}
	return in, nil
}

func (in *libInput) add(es []graph.Edge, reads []graph.VertexID) {
	in.batches = append(in.batches, es)
	in.reads = append(in.reads, reads)
	in.edges += len(es)
}

// config is the System configuration of one round.
func (in *libInput) config() streamgraph.Config {
	if in.serving {
		return servingConfig(in.cfg)
	}
	return in.cfg
}

// reference is the sequential reference model of the round's input.
func (in *libInput) reference() *oracle.Model {
	if in.model == nil {
		in.model = oracle.NewModel()
		id := 0
		if len(in.preload) > 0 {
			in.model.ApplyBatch(&graph.Batch{ID: id, Edges: in.preload})
			id++
		}
		for _, es := range in.batches {
			in.model.ApplyBatch(&graph.Batch{ID: id, Edges: es})
			id++
		}
	}
	return in.model
}

// verify checks a round's final graph and analytics against the
// reference; every round of a run gets the same input, so the other
// rounds must end with the same edge count as the verified one.
func (in *libInput) verify(sys *streamgraph.System, edgeCounts []int, o *outcome) {
	o.attempted++
	if err := checkGraph(sys, in.reference()); err != nil {
		o.fail("%v", err)
	}
	o.attempted++
	if err := checkAnalytics(sys, in.cfg.Analytics, in.cfg.Source); err != nil {
		o.fail("%v", err)
	}
	for i, n := range edgeCounts {
		o.attempted++
		if n != sys.NumEdges() {
			o.fail("round %d ended with %d edges, the verified round with %d", i, n, sys.NumEdges())
		}
	}
}

// read is one query a library caller makes between batches.
func read(sys *streamgraph.System, a streamgraph.Analytics, v graph.VertexID) float64 {
	g := sys.Graph()
	n := 0.0
	g.ForEachOut(v, func(graph.Neighbor) { n++ })
	g.ForEachIn(v, func(graph.Neighbor) { n++ })
	if a == streamgraph.AnalyticsPageRank {
		n += sys.Rank(v)
	}
	return n
}

// sink keeps reads from being optimized away.
var sink float64

// libRound is one round of the untraced facade run.
type libRound struct {
	setup   time.Duration
	ack     []float64 // ms, per applied batch
	fresh   []float64 // ms, per batch; -1 when no round covered it
	query   []float64 // ms, per read
	ingest  time.Duration
	heap    uint64 // live bytes the system holds after the final flush
	nEdges  int
	results []streamgraph.Result
	final   streamgraph.RunMetrics
}

// facadeRound runs one round through the public API and returns the
// System, flushed, for checking.
func facadeRound(in *libInput, o *outcome) (*libRound, *streamgraph.System, error) {
	r := &libRound{}
	base := liveHeap()
	t0 := time.Now()
	sys := streamgraph.New(in.config())
	if len(in.preload) > 0 {
		if _, err := sys.ApplyBatch(in.preload); err != nil {
			return nil, nil, fmt.Errorf("preload: %w", err)
		}
		sys.Flush()
	}
	r.setup = time.Since(t0)

	n := len(in.batches)
	due, ack := make([]time.Time, n), make([]time.Time, n)
	computed := make([]int, n)
	for i, es := range in.batches {
		due[i] = time.Now() // closed loop: a batch is due when the caller issues it
		res, err := sys.ApplyBatch(es)
		ack[i] = time.Now()
		o.attempted++
		if err != nil {
			o.fail("batch %d: %v", i, err)
			continue
		}
		r.results = append(r.results, res)
		r.ack = append(r.ack, msSince(due[i], ack[i]))
		r.ingest += ack[i].Sub(due[i])
		computed[i] = res.ComputedBatches
		if in.cfg.Analytics == streamgraph.AnalyticsNone {
			computed[i] = 1 // nothing to compute: the batch is fresh once applied
		}
		for _, v := range in.reads[i] {
			s := time.Now()
			sink += read(sys, in.cfg.Analytics, v)
			r.query = append(r.query, msSince(s, time.Now()))
			o.attempted++
		}
	}
	fs := time.Now()
	sys.Flush()
	flush := time.Now()
	r.ingest += flush.Sub(fs)
	r.fresh, _ = freshness(due, ack, computed, flush)

	h := liveHeap()
	r.heap = h - min(base, h)
	r.nEdges = sys.NumEdges()
	r.final = sys.MetricsSnapshot()
	return r, sys, nil
}

// minRounds is the fewest rounds a timed run makes, so set-up time is a
// median of several set-ups.
const minRounds = 3

// maxRounds bounds a run whose rounds never fill its samples.
const maxRounds = 100

func runLibrary(s libSpec, seed int64, seconds float64, trace bool, o *outcome) error {
	in, err := makeLibInput(s, seed)
	if err != nil {
		return err
	}
	if trace {
		_, err := traceLibrary(in, seconds, o)
		return err
	}
	var (
		setup, ack, fresh, query, heaps []float64
		counts                          []int
		ingest                          time.Duration
		last                            *streamgraph.System
	)
	for i := 0; i < s.setupRepeats; i++ {
		runtime.GC() // every set-up starts from a collected heap, as rounds do
		t0 := time.Now()
		sink += float64(streamgraph.New(in.config()).NumVertices())
		setup = append(setup, time.Since(t0).Seconds())
	}
	start := time.Now()
	for more := true; more; {
		r, sys, err := facadeRound(in, o)
		if err != nil {
			return err
		}
		last = sys
		setup = append(setup, r.setup.Seconds())
		ack = append(ack, r.ack...)
		fresh = append(fresh, coveredOnly(r.fresh)...)
		query = append(query, r.query...)
		heaps = append(heaps, float64(r.heap)/(1<<20))
		counts = append(counts, r.nEdges)
		ingest += r.ingest
		more = len(heaps) < minRounds || !deadline(start, seconds) || len(ack) < minSamples(0.9) || len(query) < minSamples(0.99)
		if o.failed > 0 || len(heaps) >= maxRounds {
			more = false // a failed run need not go on; maxRounds bounds one that never fills its samples
		}
	}
	in.verify(last, counts, o)

	o.set("setup_s", "s", median(setup))
	o.set("ingest_edges_per_s", "edges/s", float64(in.edges*len(heaps))/ingest.Seconds())
	if err := setLatency(o, "ack", ack, 0.9); err != nil {
		return err
	}
	if err := setLatency(o, "fresh", fresh, 0.9); err != nil {
		return err
	}
	if err := setQueryLatency(o, query); err != nil {
		return err
	}
	o.set("live_heap_mb", "MB", median(heaps))
	o.detail["rounds"] = len(heaps)
	o.detail["samples"] = map[string]int{"setup": len(setup), "ack": len(ack), "fresh": len(fresh), "query": len(query)}
	o.detail["batch_edges"] = s.batchEdges
	o.detail["batches_per_round"] = len(in.batches)
	return nil
}

// setLatency sets <name>_p50_ms and the named tail percentile.
func setLatency(o *outcome, name string, ms []float64, q float64) error {
	tail, err := percentile(ms, q)
	if err != nil {
		return fmt.Errorf("%s: %w", name, err)
	}
	o.set(name+"_p50_ms", "ms", median(ms))
	o.set(fmt.Sprintf("%s_p%g_ms", name, q*100), "ms", tail)
	return nil
}

// setQueryLatency sets query_p50_ms and puts the tail, query_p95_ms and
// query_p99_ms, in the details. On serve-mixed a tail read waits behind a
// batch for the processing token, and on hub-ingest the tail is where
// reads start to hit high-degree vertices; either way its run-to-run
// spread is wider than any bound the benchmark may set, so the tail is
// reported but not gated.
func setQueryLatency(o *outcome, ms []float64) error {
	o.set("query_p50_ms", "ms", median(ms))
	for _, q := range []float64{0.95, 0.99} {
		p, err := percentile(ms, q)
		if err != nil {
			return fmt.Errorf("query: %w", err)
		}
		o.detail[fmt.Sprintf("query_p%g_ms", q*100)] = metric{p, "ms"}
	}
	return nil
}

// replayer drives the layers the facade composes, in pipeline order and
// with the facade's defaults, wrapping each call in a span.
type replayer struct {
	t     *Tracer
	store *graph.AdjacencyStore
	ctl   *abr.Controller
	agg   *oca.Aggregator
	base  *update.Baseline
	usc   *update.Reordered
	eng   compute.Engine
	p     abr.Params

	// Per batch, the decisions the facade reports as Result.Reordered
	// and RunMetrics' AggregatedBatches.
	reordered []bool
	computed  []int

	// Counted from the last reset on, so set-up work stays out.
	rounds     []computeRound
	instrEdges int
}

type computeRound struct {
	dur       time.Duration
	traversed int64
}

func newReplayer(t *Tracer, cfg streamgraph.Config) *replayer {
	r := &replayer{
		t:     t,
		store: graph.NewAdjacencyStore(cfg.Vertices),
		p:     abr.DefaultParams,
		base:  &update.Baseline{Cfg: update.Config{Workers: cfg.Workers}},
		usc:   &update.Reordered{Cfg: update.Config{Workers: cfg.Workers, CollectDstRuns: true}, USC: true},
	}
	r.ctl = abr.NewController(r.p)
	switch cfg.Analytics {
	case streamgraph.AnalyticsPageRank:
		r.eng = &compute.PageRank{Incremental: true, Workers: cfg.Workers}
	case streamgraph.AnalyticsBFS:
		r.eng = &compute.BFS{Incremental: true, Workers: cfg.Workers, Source: cfg.Source}
	}
	r.agg = oca.NewAggregator(oca.Config{Disabled: r.eng == nil})
	return r
}

func (r *replayer) resetCounts() {
	r.rounds, r.instrEdges = nil, 0
}

// step replays one batch under a root span of the given name.
func (r *replayer) step(trace uint64, rootName string, b *graph.Batch) {
	t := r.t
	root := t.Start(trace, -1, rootName)

	sp := t.Start(trace, root, "abr.decide")
	active, reorderNow := r.ctl.NextBatch()
	t.End(sp)

	eng := update.Engine(r.base)
	if reorderNow {
		eng = r.usc
	}
	sp = t.Start(trace, root, "update")
	start := time.Now()
	st := eng.Apply(r.store, b)
	t.End(sp)
	if st.Sort > 0 {
		t.Add(trace, sp, "reorder", start, st.Sort)
	}

	if active {
		sp = t.Start(trace, root, "abr.instrument")
		var cad float64
		if reorderNow {
			cad = abr.CADFromRuns(st.DstRunLens, r.p.Lambda)
		} else {
			cad = abr.CollectConcurrent(b, r.p.Lambda, r.base.Cfg.Workers)
		}
		t.End(sp)
		r.ctl.Report(cad)
		r.instrEdges += len(b.Edges)
	}

	sp = t.Start(trace, root, "oca")
	if active {
		r.agg.Observe(st.UniqueVerts, st.OverlapVerts)
	}
	var batches []*graph.Batch
	if r.eng != nil {
		batches = r.agg.Next(b)
	}
	t.End(sp)
	r.reordered = append(r.reordered, reorderNow)
	r.computed = append(r.computed, r.compute(trace, root, batches))
	t.End(root)
}

func (r *replayer) compute(trace uint64, parent int, batches []*graph.Batch) int {
	if len(batches) == 0 {
		return 0
	}
	sp := r.t.Start(trace, parent, "compute")
	m := r.eng.Update(r.store, batches...)
	r.t.End(sp)
	r.rounds = append(r.rounds, computeRound{r.t.spans[sp].Dur(), m.EdgesTraversed})
	return len(batches)
}

// flush runs any round OCA deferred, counted against the last batch as
// the pipeline counts it, under a root span of the given name.
func (r *replayer) flush(trace uint64, rootName string) {
	root := r.t.Start(trace, -1, rootName)
	if r.eng != nil {
		if n := r.compute(trace, root, r.agg.Flush()); n > 0 {
			r.computed[len(r.computed)-1] += n
		}
	}
	r.t.End(root)
}

// sameDecisions checks the replay against the facade run's per-batch
// reorder decisions and compute-round sizes.
func (r *replayer) sameDecisions(m streamgraph.RunMetrics) error {
	if len(m.Batches) != len(r.reordered) {
		return fmt.Errorf("replay saw %d batches, the facade %d", len(r.reordered), len(m.Batches))
	}
	for i, b := range m.Batches {
		if b.Reordered != r.reordered[i] || b.AggregatedBatches != r.computed[i] {
			return fmt.Errorf("batch %d: replay reordered=%v computed=%d, facade reordered=%v computed=%d",
				i, r.reordered[i], r.computed[i], b.Reordered, b.AggregatedBatches)
		}
	}
	return nil
}

// Root span names. Spans under the set-up roots are left out of the
// per-layer figures.
const (
	rootBatch        = "batch"
	rootFlush        = "flush"
	rootSetupBatch   = "setup.batch"
	rootSetupFlush   = "setup.flush"
	minTracedAccount = 0.95
)

// layerNames are the spans whose self time belongs to a layer; a root's
// own self time is the replay loop's glue.
var layerNames = []string{"abr.decide", "update", "reorder", "abr.instrument", "oca", "compute"}

// layerTimes splits the measured roots' time into per-layer self times
// and glue.
type layerTimes struct {
	total, glue time.Duration
	self        map[string]time.Duration
}

func splitLayers(spans []Span) layerTimes {
	lt := layerTimes{self: map[string]time.Duration{}}
	self := SelfTimes(spans)
	rootOf := make([]int, len(spans))
	for i, s := range spans {
		rootOf[i] = i
		if s.Parent >= 0 {
			rootOf[i] = rootOf[s.Parent] // parents precede children
		}
		if n := spans[rootOf[i]].Name; n != rootBatch && n != rootFlush {
			continue
		}
		if s.Parent < 0 {
			lt.total += s.Dur()
			lt.glue += self[i]
			continue
		}
		lt.self[s.Name] += self[i]
	}
	return lt
}

// accounted is the share of the end-to-end time the layers' self times
// cover.
func (lt layerTimes) accounted() float64 {
	if lt.total <= 0 {
		return 0
	}
	return float64(lt.total-lt.glue) / float64(lt.total)
}

// traceLibrary alternates an untraced facade round with a traced replay of
// the same batches, checks that the replay made the facade's decisions,
// and reports per-layer metrics.
func traceLibrary(in *libInput, seconds float64, o *outcome) (streamgraph.RunMetrics, error) {
	t := NewTracer()
	o.tracer = t
	var (
		untraced                      time.Duration
		edges, instrEdges, batches    int
		locks, comps                  int64
		reordered, computed           int
		locality, residual, neighbors []float64
		roundMs, traversed            []float64
		heapPerEdge                   []float64
		counts                        []int
		last                          *streamgraph.System
		lastMetrics                   streamgraph.RunMetrics
	)
	start := time.Now()
	n := 0
	for ; n < 1 || !deadline(start, seconds); n++ {
		f, sys, err := facadeRound(in, o)
		if err != nil {
			return lastMetrics, err
		}
		last, lastMetrics = sys, f.final
		counts = append(counts, f.nEdges)
		untraced += f.ingest
		for i, res := range f.results {
			locks += res.Locks
			comps += res.SearchComparisons
			locality = append(locality, res.Locality)
			residual = append(residual, f.ack[i]-ms(res.Update)-ms(res.Compute))
		}
		neighbors = append(neighbors, f.query...)
		heapPerEdge = append(heapPerEdge, float64(f.heap)/float64(max(f.nEdges, 1)))

		rp := newReplayer(t, in.config())
		trace := uint64(n+1) << 32
		id := 0
		if len(in.preload) > 0 {
			rp.step(trace, rootSetupBatch, &graph.Batch{ID: id, Edges: in.preload})
			rp.flush(trace, rootSetupFlush)
			id++
		}
		skip := id
		rp.resetCounts()
		for _, es := range in.batches {
			rp.step(trace+uint64(id), rootBatch, &graph.Batch{ID: id, Edges: es})
			id++
		}
		rp.flush(trace+uint64(id), rootFlush)
		o.attempted++
		if err := rp.sameDecisions(f.final); err != nil {
			o.fail("round %d: %v", n, err)
		}
		for i := skip; i < len(rp.reordered); i++ {
			if rp.reordered[i] {
				reordered++
			}
			computed += rp.computed[i]
		}
		for _, cr := range rp.rounds {
			roundMs = append(roundMs, ms(cr.dur))
			traversed = append(traversed, float64(cr.traversed))
		}
		edges += in.edges
		instrEdges += rp.instrEdges
		batches += len(in.batches)
	}

	in.verify(last, counts, o)

	lt := splitLayers(t.Spans())
	o.attempted++
	if a := lt.accounted(); a < minTracedAccount {
		o.fail("layer self times account for %.1f%% of the traced end-to-end time, want at least %.0f%%", a*100, minTracedAccount*100)
	}
	perEdge := func(d time.Duration, count int) float64 {
		if count == 0 {
			return 0
		}
		return float64(d) / float64(count)
	}
	perRound := 0.0
	if len(roundMs) > 0 {
		perRound = float64(computed) / float64(len(roundMs))
	}
	setServerZero(o)
	o.set("abr.reorder_ratio", "ratio", float64(reordered)/float64(batches))
	o.set("abr.instrument_ns_per_edge", "ns/edge", perEdge(lt.self["abr.instrument"], instrEdges))
	o.set("reorder.sort_ns_per_edge", "ns/edge", perEdge(lt.self["reorder"], edges))
	o.set("update.apply_ns_per_edge", "ns/edge", perEdge(lt.self["update"], edges))
	o.set("update.locks_per_edge", "count/edge", float64(locks)/float64(edges))
	o.set("update.comparisons_per_edge", "count/edge", float64(comps)/float64(edges))
	o.set("oca.batches_per_round", "count", perRound)
	o.set("oca.locality_mean", "ratio", mean(locality))
	o.set("compute.round_ms", "ms", median(roundMs))
	o.set("compute.edges_traversed_per_round", "count", mean(traversed))
	o.set("graph.heap_bytes_per_edge", "bytes/edge", median(heapPerEdge))
	o.set("graph.neighbors_us", "us", median(neighbors)*1000)
	o.set("pipeline.residual_ms", "ms", median(residual))
	o.set("trace.overhead_ms", "ms/batch", ms(lt.total-untraced)/float64(batches))
	o.detail["traced_rounds"] = n
	o.detail["accounted_share"] = lt.accounted()
	self := map[string]float64{"glue": lt.glue.Seconds()}
	for _, name := range layerNames {
		self[name] = lt.self[name].Seconds()
	}
	o.detail["self_s"] = self
	o.detail["traced_s"] = lt.total.Seconds()
	o.detail["untraced_s"] = untraced.Seconds()
	return lastMetrics, nil
}

// setServerZero reports the server layer's metrics on workloads that do
// not go through the server: it does no work there.
func setServerZero(o *outcome) {
	o.set("server.parse_ms", "ms", 0)
	o.set("server.residual_ms", "ms", 0)
	o.set("server.refused", "count", 0)
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
