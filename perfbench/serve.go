package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"runtime"
	"strconv"
	"time"

	"streamgraph"
	"streamgraph/internal/gen"
	"streamgraph/internal/graph"
	"streamgraph/internal/obs"
	"streamgraph/internal/server"
)

// serve-mixed drives an in-process server, configured as sgserve's
// defaults configure it, over loopback. Writes and reads are two streams
// from this process, each on its own connection.
const (
	serveProfile    = "fb" // timestamped, weighted, overlapping
	serveBatchEdges = 10000
	serveDeletes    = 0.2
	serveBatches    = 100 // per round; every round replays the same bodies
	// serveRate is the offered write rate of the latency round, in
	// batches per second: under half of what the server sustains, so
	// latency reflects service time rather than a queue.
	serveRate = 10.0
	// serveReadRate is the offered read rate, in requests per second.
	serveReadRate = 100.0
	// serveAckLimitMs is the ack_p90 limit the sustained rate must meet.
	serveAckLimitMs = 250.0
	// minServeRounds is the fewest latency rounds a run makes: two give
	// query_p99_ms its samples.
	minServeRounds = 2
	// setupRepeats is how many extra start-ups a run times: a start-up
	// takes milliseconds, so set-up time is a median of many.
	setupRepeats = 20
)

type serveInput struct {
	lib    *libInput // the same batches, for the reference, facade and replay
	bodies [][]byte
	reads  []string // paths of the read stream, in order
}

func makeServeInput(seed int64) (*serveInput, error) {
	p, err := gen.ProfileByName(serveProfile)
	if err != nil {
		return nil, err
	}
	st := gen.NewStreamSeed(p, seed)
	st.SetDeleteFraction(serveDeletes)
	rng := rand.New(rand.NewSource(seed))
	// BFS from the rank-1 hub, not SSSP: the fb stream re-inserts live
	// edges with new random weights, and compute.SSSP documents that it
	// misses weight increases (see its weight-update caveat), so its
	// distances would not match a static run on this input.
	in := &serveInput{lib: &libInput{serving: true, cfg: streamgraph.Config{
		Vertices:  p.Vertices,
		Analytics: streamgraph.AnalyticsBFS,
		Source:    st.Hubs()[0],
	}}}
	for i := 0; i < serveBatches; i++ {
		es := st.NextBatch(serveBatchEdges).Edges
		vs := make([]graph.VertexID, readsPerBatch)
		for j := range vs {
			vs[j] = es[rng.Intn(len(es))].Dst
		}
		in.lib.add(es, vs)
		wire := make([]server.EdgeJSON, len(es))
		for j, e := range es {
			wire[j] = server.EdgeJSON{Src: uint32(e.Src), Dst: uint32(e.Dst), Weight: float32(e.Weight), Delete: e.Delete}
		}
		body, err := json.Marshal(wire)
		if err != nil {
			return nil, err
		}
		in.bodies = append(in.bodies, body)
	}
	// Read i is due at i/serveReadRate in the latency round and asks about
	// a vertex of the batch most recently due by then.
	n := int(float64(serveBatches) / serveRate * serveReadRate)
	for i := 0; i < n; i++ {
		k := min(int(float64(i)/serveReadRate*serveRate), serveBatches-1)
		v := strconv.Itoa(int(in.lib.reads[k][i%readsPerBatch]))
		if i%2 == 0 {
			in.reads = append(in.reads, "/level?v="+v)
		} else {
			in.reads = append(in.reads, "/neighbors?v="+v)
		}
	}
	return in, nil
}

// servingConfig adds what sgserve's defaults add to a System's
// configuration: an observer, the shed ladder and panic recovery.
func servingConfig(cfg streamgraph.Config) streamgraph.Config {
	cfg.Observer = obs.New(obs.Options{TraceCapacity: 256, SpanCapacity: 4096})
	cfg.Shed = streamgraph.ShedConfig{SkipComputeAt: 0.5, ForceBaselineAt: 0.85}
	cfg.Recover = true
	return cfg
}

// serving is one in-process server on a loopback listener.
type serving struct {
	sys  *streamgraph.System
	srv  *http.Server
	base string
	done chan error
}

// startServing builds the system and server and waits until the server
// answers.
func startServing(cfg streamgraph.Config) (*serving, error) {
	sys := streamgraph.New(servingConfig(cfg))
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("listen: %w", err)
	}
	s := &serving{
		sys:  sys,
		srv:  &http.Server{Handler: server.NewWithOptions(sys, server.Options{})},
		base: "http://" + ln.Addr().String(),
		done: make(chan error, 1),
	}
	go func() { s.done <- s.srv.Serve(ln) }()
	c := newClient()
	defer c.CloseIdleConnections()
	if err := get(c, s.base+"/stats"); err != nil {
		_ = s.stop() // the readiness failure is the error to report
		return nil, fmt.Errorf("server not ready: %w", err)
	}
	return s, nil
}

// stop shuts the server down and waits for it to exit.
func (s *serving) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := s.srv.Shutdown(ctx)
	if serr := <-s.done; !errors.Is(serr, http.ErrServerClosed) && err == nil {
		err = serr
	}
	return err
}

func newClient() *http.Client {
	return &http.Client{
		Timeout:   30 * time.Second,
		Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true},
	}
}

// batchReply is one POST as the client saw it.
type batchReply struct {
	status int
	resp   server.BatchResponse
	err    error
}

func post(c *http.Client, url string, body []byte) batchReply {
	resp, err := c.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		return batchReply{err: err}
	}
	defer resp.Body.Close()
	rep := batchReply{status: resp.StatusCode}
	data, err := io.ReadAll(resp.Body)
	switch {
	case err != nil:
		rep.err = err
	case resp.StatusCode != http.StatusOK:
		rep.err = fmt.Errorf("POST %s: %s", url, resp.Status)
	case body != nil:
		rep.err = json.Unmarshal(data, &rep.resp)
	}
	return rep
}

// get fetches url and checks for a 200 carrying a JSON object.
func get(c *http.Client, url string) error {
	resp, err := c.Get(url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	var v map[string]any
	derr := json.NewDecoder(resp.Body).Decode(&v)
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: %s", url, resp.Status)
	}
	if derr != nil {
		return fmt.Errorf("GET %s: %w", url, derr)
	}
	return nil
}

// refused reports whether the server turned the request away.
func refused(status int) bool {
	return status == http.StatusTooManyRequests || status == http.StatusServiceUnavailable
}

// serveRound is one round: set-up, the write and read streams, a final
// flush, and shut-down. The System is returned for checking.
type serveRound struct {
	setup    time.Duration
	writes   []sendRecord
	replies  []batchReply
	reads    []sendRecord
	readErr  []error
	flushAt  time.Time
	flushErr error
	heap     uint64
	sys      *streamgraph.System
}

// runServeRound offers the writes at rate batches per second, or back to
// back on one connection when rate is 0, with reads at serveReadRate
// until the writes are done.
func runServeRound(in *serveInput, rate float64) (*serveRound, error) {
	r := &serveRound{replies: make([]batchReply, len(in.bodies)), readErr: make([]error, len(in.reads))}
	base := liveHeap()
	t0 := time.Now()
	s, err := startServing(in.lib.cfg)
	if err != nil {
		return nil, err
	}
	r.setup = time.Since(t0)
	r.sys = s.sys
	wc, rc := newClient(), newClient()
	defer wc.CloseIdleConnections()
	defer rc.CloseIdleConnections()

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	start := time.Now().Add(10 * time.Millisecond)
	readsDone := make(chan error, 1)
	go func() {
		defer func() {
			if v := recover(); v != nil {
				readsDone <- fmt.Errorf("read stream: %v", v)
			}
		}()
		r.reads = openLoop(ctx, start, every(serveReadRate), len(in.reads), func(i int) {
			r.readErr[i] = get(rc, s.base+in.reads[i])
		})
		readsDone <- nil
	}()
	write := func(i int) { r.replies[i] = post(wc, s.base+"/batch", in.bodies[i]) }
	if rate > 0 {
		r.writes = openLoop(ctx, start, every(rate), len(in.bodies), write)
	} else {
		r.writes = closedLoop(len(in.bodies), write)
	}
	r.flushErr = post(wc, s.base+"/flush", nil).err
	r.flushAt = time.Now()
	if rate == 0 {
		cancel()
	}
	readErr := <-readsDone
	if err := s.stop(); err != nil {
		return nil, fmt.Errorf("server shut-down: %w", err)
	}
	if readErr != nil {
		return nil, readErr
	}
	h := liveHeap()
	r.heap = h - min(base, h)
	return r, nil
}

// every is the send interval of a stream offered at rate per second.
func every(rate float64) time.Duration { return time.Duration(float64(time.Second) / rate) }

// closedLoop sends n requests back to back: each is due when the previous
// one is answered.
func closedLoop(n int, send func(i int)) []sendRecord {
	recs := make([]sendRecord, n)
	for i := range recs {
		t := time.Now()
		send(i)
		recs[i] = sendRecord{due: t, sent: t, done: time.Now()}
	}
	return recs
}

// fellBehind is the share of a stream's requests the generator itself
// sent more than one send interval late.
func fellBehind(recs []sendRecord, interval time.Duration) float64 {
	if len(recs) == 0 {
		return 0
	}
	n := 0
	for _, r := range recs {
		if r.late > interval {
			n++
		}
	}
	return float64(n) / float64(len(recs))
}

// maxBehind is the largest share of a stream's requests the generator may
// send more than one interval late before the run is invalid: past one
// request in twenty, it no longer offers the scheduled load.
const maxBehind = 0.05

// serveStats collects one run's figures across rounds.
type serveStats struct {
	setup, ack, fresh, query, late, heap, sustained, satAck []float64
	counts                                                  []int
	last                                                    *streamgraph.System
}

// account checks a round's replies and adds its samples; latency rounds
// give the latency figures, the saturation round the sustained rate.
func (st *serveStats) account(in *serveInput, r *serveRound, rate float64, o *outcome) {
	st.setup = append(st.setup, r.setup.Seconds())
	st.counts = append(st.counts, r.sys.NumEdges())
	st.last = r.sys
	due := make([]time.Time, len(r.writes))
	at := make([]time.Time, len(r.writes))
	computed := make([]int, len(r.writes))
	var ack []float64
	for i, w := range r.writes {
		o.attempted++
		due[i], at[i] = w.due, w.done
		if rep := r.replies[i]; rep.err != nil {
			o.fail("batch %d: %v", i, rep.err)
			continue
		}
		ack = append(ack, w.latencyMs())
		computed[i] = r.replies[i].resp.ComputedBatches
	}
	o.attempted++
	if r.flushErr != nil {
		o.fail("flush: %v", r.flushErr)
	}
	for i := range r.reads {
		o.attempted++
		if err := r.readErr[i]; err != nil {
			o.fail("read %d: %v", i, err)
		}
	}
	o.attempted++
	readEvery := every(serveReadRate)
	if b := fellBehind(r.reads, readEvery); b > maxBehind {
		o.fail("the read generator fell behind on %.1f%% of its requests", b*100)
	}
	if rate == 0 {
		first, last := r.writes[0].sent, r.writes[len(r.writes)-1].done
		st.sustained = append(st.sustained, float64(in.lib.edges)/last.Sub(first).Seconds())
		if p, err := percentile(ack, 0.9); err == nil {
			st.satAck = append(st.satAck, p)
		}
		return
	}
	o.attempted++
	if b := fellBehind(r.writes, every(rate)); b > maxBehind {
		o.fail("the write generator fell behind on %.1f%% of its requests", b*100)
	}
	f, _ := freshness(due, at, computed, r.flushAt)
	st.ack = append(st.ack, ack...)
	st.fresh = append(st.fresh, coveredOnly(f)...)
	for i, q := range r.reads {
		if r.readErr[i] == nil {
			st.query = append(st.query, q.latencyMs())
		}
		st.late = append(st.late, ms(q.late))
	}
	for _, w := range r.writes {
		st.late = append(st.late, ms(w.late))
	}
	st.heap = append(st.heap, float64(r.heap)/(1<<20))
}

func runServe(seed int64, seconds float64, trace bool, o *outcome) error {
	in, err := makeServeInput(seed)
	if err != nil {
		return err
	}
	if trace {
		return traceServe(in, seconds, o)
	}
	st := &serveStats{}
	for i := 0; i < setupRepeats; i++ {
		runtime.GC() // every set-up starts from a collected heap, as rounds do
		t0 := time.Now()
		s, err := startServing(in.lib.cfg)
		if err != nil {
			return err
		}
		st.setup = append(st.setup, time.Since(t0).Seconds())
		if err := s.stop(); err != nil {
			return fmt.Errorf("server shut-down: %w", err)
		}
	}
	start := time.Now()
	for n := 0; n < minServeRounds || !deadline(start, seconds); n++ {
		for _, rate := range []float64{serveRate, 0} {
			r, err := runServeRound(in, rate)
			if err != nil {
				return err
			}
			st.account(in, r, rate, o)
		}
	}
	in.lib.verify(st.last, st.counts, o)

	o.set("setup_s", "s", median(st.setup))
	o.set("ingest_edges_per_s", "edges/s", median(st.sustained))
	if err := setLatency(o, "ack", st.ack, 0.9); err != nil {
		return err
	}
	if err := setLatency(o, "fresh", st.fresh, 0.9); err != nil {
		return err
	}
	if err := setQueryLatency(o, st.query); err != nil {
		return err
	}
	o.set("live_heap_mb", "MB", median(st.heap))
	late99, _ := percentile(st.late, 0.99)
	o.detail["generator_late_ms"] = map[string]float64{"p50": median(st.late), "p99": late99}
	o.detail["sustained_ack_p90_ms"] = st.satAck
	o.detail["samples"] = map[string]int{"setup": len(st.setup), "ack": len(st.ack), "fresh": len(st.fresh), "query": len(st.query)}
	o.attempted++
	if m := median(st.satAck); m > serveAckLimitMs {
		o.fail("ack_p90 at the sustained rate is %.0f ms, over the %.0f ms limit", m, serveAckLimitMs)
	}
	return nil
}

// parseOptions are the ingestion bounds server.Options{} defaults to.
var parseOptions = server.Options{MaxBatchEdges: 1 << 20, MaxVertex: 1 << 26}

// traceServe spends half the time on the layer replay of the serve
// batches and half on latency rounds through the server, recorded as
// client-side spans, then times server.ParseBatch on the same bodies.
func traceServe(in *serveInput, seconds float64, o *outcome) error {
	fac, err := traceLibrary(in.lib, seconds/2, o)
	if err != nil {
		return err
	}
	t := o.tracer
	st := &serveStats{}
	var residual, parse []float64
	nRefused := 0
	start := time.Now()
	for n := 0; n < 1 || !deadline(start, seconds/2); n++ {
		r, err := runServeRound(in, serveRate)
		if err != nil {
			return err
		}
		st.account(in, r, serveRate, o)
		trace := uint64(1)<<62 | uint64(n)<<32
		for i, w := range r.writes {
			clientSpans(t, trace|uint64(i), "client.post", w)
			rep := r.replies[i]
			if refused(rep.status) {
				nRefused++
			}
			if rep.err != nil {
				continue
			}
			server := time.Duration(rep.resp.UpdateMicros+rep.resp.ComputeMicros) * time.Microsecond
			residual = append(residual, ms(w.done.Sub(w.sent)-server))
			o.attempted++
			b := fac.Batches[i]
			last := i == len(r.writes)-1 // the facade's last batch also counts its flush
			if rep.resp.Reordered != b.Reordered || (!last && rep.resp.ComputedBatches != b.AggregatedBatches) {
				o.fail("batch %d: server reordered=%v computed=%d, facade reordered=%v computed=%d",
					i, rep.resp.Reordered, rep.resp.ComputedBatches, b.Reordered, b.AggregatedBatches)
			}
		}
		for i, q := range r.reads {
			clientSpans(t, trace|uint64(len(r.writes)+i), "client.get", q)
		}
	}
	in.lib.verify(st.last, st.counts, o)
	for _, body := range in.bodies {
		s := time.Now()
		_, err := server.ParseBatch(bytes.NewReader(body), parseOptions)
		parse = append(parse, msSince(s, time.Now()))
		o.attempted++
		if err != nil {
			o.fail("ParseBatch: %v", err)
		}
	}
	o.set("server.parse_ms", "ms", median(parse))
	o.set("server.residual_ms", "ms", median(residual))
	o.set("server.refused", "count", float64(nRefused))
	return nil
}

// clientSpans records one request as a root span from its due time to its
// answer, split into the wait to be sent and the HTTP exchange.
func clientSpans(t *Tracer, trace uint64, name string, r sendRecord) {
	root := t.Add(trace, -1, name, r.due, r.done.Sub(r.due))
	t.Add(trace, root, "client.queue", r.due, r.sent.Sub(r.due))
	t.Add(trace, root, "client.http", r.sent, r.done.Sub(r.sent))
}
