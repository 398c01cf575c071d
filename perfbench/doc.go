// Command perfbench is the repository's end-to-end benchmark. It runs one
// named workload against the public API, checks the outputs against the
// sequential reference, and prints its metrics, by name and with units, as
// the last line of its output:
//
//	bash perfbench/run.sh --workload hub-ingest --seed 1 --seconds 20 --trace 0
//
// The line before it carries details: the machine (CPU count, GOMAXPROCS,
// Go version), sample counts, the error rate and any problems found. The
// run exits non-zero when an output check fails.
//
// # Workloads
//
// Inputs come from internal/gen, seeded by --seed, before any timing
// starts; the system receives only the generated batches. Workloads set
// streamgraph.Config only through Vertices, Workers, Analytics, Source,
// Observer, Shed and Recover, so a change of serving store shows up in
// these numbers with no edit here.
//
//   - hub-ingest: library use, one caller in a closed loop, the talk
//     profile in 50K-edge batches, adaptive policy, no analytics. ABR
//     reorders nearly every batch, so abr, reorder and update do the work.
//   - flat-pagerank: library use in a closed loop, the lj profile
//     (shuffled, low-degree) in 10K-edge batches with incremental
//     PageRank and OCA, after a 500K-edge pre-load counted in set-up. ABR
//     keeps the baseline engine and OCA computes after every batch, so
//     compute dominates over a 400K-vertex working set.
//   - serve-mixed: an in-process server with sgserve's defaults (observer,
//     shed ladder, panic recovery) on a loopback listener. 10K-edge
//     POST /batch bodies from the fb profile (timestamped, weighted,
//     overlapping) with 20% deletes feed BFS from the rank-1 hub. Reads,
//     GET /level and GET /neighbors of recently touched vertices, go on a
//     second connection. Bodies are encoded during set-up.
//
// serve-mixed maintains BFS where SSSP would be the paper's choice:
// compute.SSSP documents that it misses weight increases, and the fb
// stream re-inserts live edges with new weights, so SSSP distances would
// not match a static run on this input.
//
// Library runs repeat rounds, each a fresh System fed the same batches,
// until --seconds have passed and every percentile has its samples. A
// serve-mixed round offers the writes open-loop at a fixed rate with
// reads beside them; a second round sends the same writes back to back to
// find the sustained rate.
//
// # End-to-end metrics (--trace 0)
//
// Every workload reports every metric; timings are a median and a tail
// percentile with at least 10 samples beyond it. A run goes on past
// --seconds until each percentile has its samples. A run goes on past
// --seconds until each percentile has its samples.
//
//   - setup_s: New to ready, including any pre-load and, for serve-mixed,
//     the listener answering; median over the run's set-ups.
//   - ingest_edges_per_s: library, edges over the wall time of every
//     ApplyBatch and the final Flush; serve-mixed, the sustained rate,
//     edges per second with writes sent back to back on one connection.
//     With one writer, that is the highest offered rate at which the send
//     backlog does not grow; the run fails if ack_p90 there exceeds
//     250 ms.
//   - ack_p50_ms, ack_p90_ms: a batch's due time to its acknowledgement.
//     Library, the ApplyBatch call (a closed loop's batch is due when it
//     is issued); serve-mixed, POST /batch, due on a fixed schedule, so a
//     stall also counts against the batches queued behind it.
//   - fresh_p50_ms, fresh_p90_ms: batch i's due time to the first
//     acknowledgement whose compute round covers i (computedBatches > 0),
//     or the final flush's. With no analytics a batch is fresh once
//     acknowledged.
//   - query_p50_ms: median read latency. Library, neighbours and analytic
//     value of 256 recently touched vertices after each batch;
//     serve-mixed, the read stream, timed from due time. The detail line
//     carries query_p95_ms and query_p99_ms: the tail is a read waiting
//     behind a batch (serve-mixed) or reaching a hub (hub-ingest), and
//     spreads too much from run to run to gate.
//   - live_heap_mb: heap the system holds after the final flush and a GC.
//
// Failed, refused (429/503) and wrong results count in "failed" against
// "attempted"; their ratio is the detail line's error_rate.
//
// # Per-layer metrics (--trace 1)
//
// A traced run alternates an untraced facade round with a replay of the
// same batches through the layers' public calls in pipeline order:
// abr.Controller.NextBatch/Report, update.Baseline or update.Reordered
// with USC (reorder time from Stats.Sort), abr.CADFromRuns or
// CollectConcurrent, oca.Aggregator.Observe/Next and the compute engine's
// Update, each in a benchmark-side span. The run fails unless the replay
// makes the facade's reorder decisions and compute rounds, and unless the
// layers' self times cover at least 95% of the replay's time. serve-mixed
// also sends latency rounds through the server, recorded as client-side
// spans, checks the server's decisions against the facade's, and times
// server.ParseBatch on the same bodies. Spans are written as JSON lines
// to .bench_build/perfbench when the run ends.
//
// Layer metric, the end-to-end metric it should move, and where; on the
// other workloads the prediction is no change:
//
//	server.parse_ms                    ack_p50_ms           serve-mixed
//	server.residual_ms                 ack_p90_ms           serve-mixed
//	server.refused                     failed/attempted     serve-mixed
//	abr.reorder_ratio                  (~1 hub-ingest, ~0 flat-pagerank)
//	abr.instrument_ns_per_edge         ingest_edges_per_s   flat-pagerank
//	reorder.sort_ns_per_edge           ingest_edges_per_s, ack_p50_ms   hub-ingest
//	update.apply_ns_per_edge           ingest_edges_per_s   hub-ingest, flat-pagerank
//	                                   ack_p50_ms           serve-mixed
//	update.locks_per_edge              (count, from Result.Locks)
//	update.comparisons_per_edge        (count, from Result.SearchComparisons)
//	oca.batches_per_round              fresh_p50_ms - ack_p50_ms   serve-mixed
//	oca.locality_mean                  fresh_p50_ms - ack_p50_ms   serve-mixed
//	compute.round_ms                   ack_p50_ms, ingest_edges_per_s   flat-pagerank
//	                                   fresh_p90_ms         serve-mixed
//	compute.edges_traversed_per_round  (count)
//	graph.heap_bytes_per_edge          live_heap_mb         all
//	graph.neighbors_us                 query_p50_ms         serve-mixed
//	pipeline.residual_ms               ack_p50_ms           hub-ingest, flat-pagerank
//	trace.overhead_ms                  traced minus untraced time, per batch
//
// shard, hau/sim and trace are not on the default serving path and stay
// unmeasured.
package main
