// Command sginspect characterizes an edge stream the way ABR would:
// it cuts the stream into input batches and reports, per batch, the
// degree-distribution statistics (max in/out degree, CAD_λ) and the
// reorder decision under the paper's parameters.
//
// Input is either a dataset profile (-dataset) or the sggen TSV
// format on stdin (-stdin).
//
// With -decisions it goes further: instead of the static per-batch
// characterization it runs the real ABR+USC pipeline (with
// incremental PageRank) over the stream under an observer and prints
// the decision audit — every ABR and OCA choice with the input it
// read, the threshold it compared, the realized cost, the cost
// model's estimate of the alternative, and a cumulative regret
// summary.
//
// With -shards N it replays the stream through an N-shard router
// (consistent hashing, mirrored cross-shard edges, dynamic
// repartitioning), printing each batch's per-shard routing split, any
// hot-range migrations, and the final per-shard ownership census.
//
// Usage:
//
//	sginspect -dataset wiki -batch 10000 -batches 8
//	sginspect -dataset wiki -batch 10000 -batches 8 -decisions
//	sginspect -dataset wiki -batch 10000 -batches 8 -shards 4
//	sggen -dataset lj -edges 500000 | sginspect -stdin -batch 100000
package main

import (
	"bufio"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"streamgraph/internal/abr"
	"streamgraph/internal/gen"
	"streamgraph/internal/graph"
)

func main() {
	var (
		dataset  = flag.String("dataset", "", "dataset short name")
		useStdin = flag.Bool("stdin", false, "read sggen TSV from stdin")
		batch    = flag.Int("batch", 10000, "input batch size")
		nBatches = flag.Int("batches", 8, "number of batches to inspect (-dataset mode)")
		lambda   = flag.Int("lambda", abr.DefaultParams.Lambda, "ABR λ parameter")
		th       = flag.Float64("th", abr.DefaultParams.TH, "ABR TH parameter")

		decisions = flag.Bool("decisions", false, "run the real ABR+USC pipeline and print the decision audit with regret summary")
		workers   = flag.Int("workers", 0, "with -decisions: worker goroutines (0 = GOMAXPROCS)")
		nShards   = flag.Int("shards", 0, "replay the stream through this many consistent-hash shards and print per-shard routing, repartition events, and the ownership census")
	)
	flag.Parse()

	var next func() (*graph.Batch, bool)
	switch {
	case *useStdin:
		next = stdinBatches(*batch)
	case *dataset != "":
		p, err := gen.ProfileByName(*dataset)
		if err != nil {
			fmt.Fprintln(os.Stderr, "sginspect:", err)
			os.Exit(2)
		}
		s := gen.NewStream(p)
		count := 0
		next = func() (*graph.Batch, bool) {
			if count >= *nBatches {
				return nil, false
			}
			count++
			return s.NextBatch(*batch), true
		}
	default:
		fmt.Fprintln(os.Stderr, "sginspect: -dataset or -stdin required")
		os.Exit(2)
	}

	if *decisions {
		os.Exit(runDecisions(next, *workers))
	}
	if *nShards > 0 {
		os.Exit(runShards(next, *nShards))
	}

	fmt.Printf("%-8s %10s %10s %10s %12s %10s %s\n",
		"batch", "edges", "max-out", "max-in", "CAD", "mean-deg", "decision")
	for {
		b, ok := next()
		if !ok {
			return
		}
		h := b.InDegreeHist()
		maxOut, maxIn := b.MaxDegrees()
		cad := abr.CAD(h, *lambda)
		decision := "don't reorder"
		if cad >= *th {
			decision = "REORDER"
		}
		fmt.Printf("%-8d %10d %10d %10d %12.1f %10.2f %s\n",
			b.ID, b.Size(), maxOut, maxIn, cad, abr.MeanDegree(h), decision)
	}
}

// stdinBatches cuts the sggen TSV on stdin into batches.
func stdinBatches(size int) func() (*graph.Batch, bool) {
	sc := bufio.NewScanner(os.Stdin)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	id := 0
	return func() (*graph.Batch, bool) {
		b := &graph.Batch{ID: id}
		for len(b.Edges) < size && sc.Scan() {
			fields := strings.Split(strings.TrimSpace(sc.Text()), "\t")
			if len(fields) < 2 {
				continue
			}
			src, err1 := strconv.ParseUint(fields[0], 10, 32)
			dst, err2 := strconv.ParseUint(fields[1], 10, 32)
			if err1 != nil || err2 != nil {
				continue
			}
			e := graph.Edge{Src: graph.VertexID(src), Dst: graph.VertexID(dst), Weight: 1}
			if len(fields) > 2 {
				if w, err := strconv.ParseFloat(fields[2], 32); err == nil {
					e.Weight = graph.Weight(w)
				}
			}
			if len(fields) > 3 && fields[3] == "d" {
				e.Delete = true
			}
			b.Edges = append(b.Edges, e)
		}
		if len(b.Edges) == 0 {
			return nil, false
		}
		id++
		return b, true
	}
}
