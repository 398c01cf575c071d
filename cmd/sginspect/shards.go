package main

import (
	"fmt"
	"os"
	"strings"

	"streamgraph/internal/graph"
	"streamgraph/internal/pipeline"
	"streamgraph/internal/shard"
)

// runShards replays the stream through an N-shard router under the
// default repartition policy and prints, per batch, how many edge ops
// routed to each shard (cross-shard edges are mirrored, so the row sum
// can exceed the batch size), plus any hot-range migration the
// repartitioner performed. The final census reports each shard's
// routed totals and current ownership.
func runShards(next func() (*graph.Batch, bool), n int) int {
	if n < 1 {
		fmt.Fprintln(os.Stderr, "sginspect: -shards must be >= 1")
		return 2
	}
	r := shard.New(shard.Config{
		Shards:   n,
		Pipeline: pipeline.Config{Policy: pipeline.ABRUSC},
	})
	fmt.Printf("%-8s %10s %-*s %s\n", "batch", "edges", 6*n, "routed/shard", "event")
	audited := 0
	for {
		b, ok := next()
		if !ok {
			break
		}
		res, err := r.Apply(b)
		if err != nil {
			fmt.Fprintln(os.Stderr, "sginspect: apply:", err)
			return 1
		}
		var routed strings.Builder
		for _, o := range res.PerShard {
			fmt.Fprintf(&routed, "%-6d", o.Edges)
		}
		event := ""
		if res.Repartitioned {
			event = "REPARTITION"
			for _, a := range r.Audits()[audited:] {
				if a.Controller == "repart" && strings.HasPrefix(a.Choice, "migrate ") {
					event = fmt.Sprintf("REPARTITION %s (imbalance %.2f > %.2f)",
						a.Choice, a.Observed, a.Threshold)
				}
			}
		}
		audited = len(r.Audits())
		fmt.Printf("%-8d %10d %-*s %s\n", b.ID, b.Size(), 6*n, routed.String(), event)
	}
	if err := r.Flush(); err != nil {
		fmt.Fprintln(os.Stderr, "sginspect: flush:", err)
		return 1
	}
	rep := r.Report()
	fmt.Printf("\nfinal: shards=%d vertices=%d edges=%d repartitions=%d\n",
		rep.Shards, r.NumVertices(), r.NumEdges(), rep.Repartitions)
	for _, si := range rep.PerShard {
		fmt.Printf("shard %d: batches=%d routedEdges=%d panics=%d ownedVertices=%d ownedEdges=%d\n",
			si.Shard, si.Batches, si.Edges, si.Panics, si.OwnedVertices, si.OwnedEdges)
	}
	return 0
}
