// Command sgbench regenerates the paper's evaluation artifacts.
//
// Usage:
//
//	sgbench -list                 # enumerate experiments
//	sgbench -exp fig3             # run one experiment
//	sgbench -exp all              # run everything
//	sgbench -exp tab3 -quick      # smaller sweep for smoke tests
//	sgbench -exp fig3 -full       # add the 500K batch size
//	sgbench -exp fig13 -timing    # append a per-stage timing summary
//
// CI bench-smoke mode (no -exp):
//
//	sgbench -ci BENCH_ci.json                          # measure, write report
//	sgbench -ci BENCH_ci.json -ci-baseline ci/bench-baseline.json
//	                                                   # ...and gate vs baseline
//	sgbench -ci ci/bench-baseline.json -ci-write-baseline
//	                                                   # refresh the baseline (halved)
//
// Store head-to-head mode (no -exp):
//
//	sgbench -store-experiment -quick                   # race all stores, write
//	                                                   # BENCH_storecmp.json
//	sgbench -store-experiment -quick -store-baseline BENCH_store.json
//	                                                   # ...and gate vs baseline
//	sgbench -store-experiment -quick -store-write-baseline -store-out BENCH_store.json
//	                                                   # refresh the baseline (doubled)
//	sgbench -validate-baselines                        # preflight committed baselines
//
// Lock-free head-to-head mode (no -exp):
//
//	sgbench -lockfree-experiment -quick                # race the epoch engine vs the
//	                                                   # locked engines, write
//	                                                   # BENCH_lockfreecmp.json
//	sgbench -lockfree-experiment -quick -lockfree-baseline BENCH_lockfree.json
//	                                                   # ...and gate vs baseline
//	sgbench -lockfree-experiment -quick -lockfree-write-baseline -lockfree-out BENCH_lockfree.json
//	                                                   # refresh the baseline (doubled)
//
// Fault-injected soak mode (no -exp):
//
//	sgbench -soak 5m -soak-clients 8 -soak-fault mixed # long-running concurrency
//	                                                   # soak, oracle-verified
//
// Each experiment prints one or more text tables with the paper's
// reported values alongside the measured ones. Progress goes to
// stderr with -v. With -timing, every experiment runs under a fresh
// observer and prints the stage latencies (update, compute,
// per-engine apply) and decision counts it accumulated.
package main

import (
	"encoding/csv"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"time"

	"streamgraph/internal/bench"
	"streamgraph/internal/obs"
)

func main() {
	var (
		exp     = flag.String("exp", "", "experiment id (fig1..fig20, tab1..tab3, summary) or 'all'")
		list    = flag.Bool("list", false, "list experiments and exit")
		quick   = flag.Bool("quick", false, "smaller sweep (fewer datasets, sizes and batches)")
		full    = flag.Bool("full", false, "extend the sweep with the 500K batch size")
		batches = flag.Int("batches", 0, "batches per workload (0 = default)")
		workers = flag.Int("workers", 0, "software worker goroutines (0 = GOMAXPROCS)")
		verbose = flag.Bool("v", false, "progress output on stderr")
		csvDir  = flag.String("csv", "", "also write each table as CSV into this directory")
		timing  = flag.Bool("timing", false, "print a per-experiment stage-timing summary")

		ciOut      = flag.String("ci", "", "bench-smoke mode: run the CI workload and write the JSON report here")
		ciBaseline = flag.String("ci-baseline", "", "with -ci: fail if update throughput regresses vs this baseline file")
		ciTol      = flag.Float64("ci-tolerance", 0.20, "with -ci-baseline: allowed fractional regression")
		ciWrite    = flag.Bool("ci-write-baseline", false, "with -ci: halve the measured throughput and write it as a baseline")

		expMode     = flag.Bool("experiment", false, "trajectory mode: run the adversarial engine×store matrix with span-derived phase breakdowns")
		expOut      = flag.String("experiment-out", "BENCH_trajectory.json", "with -experiment: write the JSON report here")
		expBaseline = flag.String("experiment-baseline", "", "with -experiment: fail on per-phase ns/edge regression vs this baseline file")
		expTol      = flag.Float64("experiment-tolerance", 0.20, "with -experiment-baseline: allowed fractional regression")
		expWrite    = flag.Bool("experiment-write-baseline", false, "with -experiment: double the measured phase costs and write them as a baseline")

		storeMode     = flag.Bool("store-experiment", false, "store head-to-head mode: race the adjacency, dah and tango stores on the adversarial workloads")
		storeOut      = flag.String("store-out", "BENCH_storecmp.json", "with -store-experiment: write the JSON report here")
		storeBaseline = flag.String("store-baseline", "", "with -store-experiment: fail on per-phase ns/edge regression vs this baseline file")
		storeTol      = flag.Float64("store-tolerance", 0.20, "with -store-baseline: allowed fractional regression")
		storeWrite    = flag.Bool("store-write-baseline", false, "with -store-experiment: double the measured phase costs and write them as a baseline")

		lockfreeMode     = flag.Bool("lockfree-experiment", false, "lock-free head-to-head mode: race the epoch engine against the locked batch engines on the adversarial workloads")
		lockfreeOut      = flag.String("lockfree-out", "BENCH_lockfreecmp.json", "with -lockfree-experiment: write the JSON report here")
		lockfreeBaseline = flag.String("lockfree-baseline", "", "with -lockfree-experiment: fail on per-phase ns/edge regression vs this baseline file")
		lockfreeTol      = flag.Float64("lockfree-tolerance", 0.20, "with -lockfree-baseline: allowed fractional regression")
		lockfreeWrite    = flag.Bool("lockfree-write-baseline", false, "with -lockfree-experiment: double the measured phase costs and write them as a baseline")

		validateBaselines = flag.Bool("validate-baselines", false, "validate the committed BENCH_*.json gate baselines (existence, JSON, schema version) and exit")

		soak        = flag.Duration("soak", 0, "soak mode: run the fault-injected concurrency soak for this long (e.g. 5m)")
		soakClients = flag.Int("soak-clients", 8, "with -soak: concurrent clients")
		soakFault   = flag.String("soak-fault", "mixed", "with -soak: fault profile (off|latency|stall|panic|mixed)")
		soakSeed    = flag.Int64("soak-seed", 42, "with -soak: stream and fault-jitter seed")
	)
	flag.Parse()

	if *ciOut != "" {
		os.Exit(runCISmoke(*ciOut, *ciBaseline, *ciTol, *ciWrite, *workers))
	}
	if *expMode {
		os.Exit(runTrajectory(*expOut, *expBaseline, *expTol, *expWrite, *quick, *workers))
	}
	if *storeMode {
		os.Exit(runStoreCompare(*storeOut, *storeBaseline, *storeTol, *storeWrite, *quick))
	}
	if *lockfreeMode {
		os.Exit(runLockfreeCompare(*lockfreeOut, *lockfreeBaseline, *lockfreeTol, *lockfreeWrite, *quick, *workers))
	}
	if *validateBaselines {
		os.Exit(runValidateBaselines())
	}
	if *soak > 0 {
		os.Exit(runSoak(*soak, *soakClients, *soakFault, *soakSeed))
	}

	if *list {
		for _, e := range bench.Experiments() {
			fmt.Printf("%-8s %s\n         paper: %s\n", e.ID, e.Title, e.Paper)
		}
		return
	}
	if *exp == "" {
		fmt.Fprintln(os.Stderr, "sgbench: -exp or -list required (try: sgbench -list)")
		os.Exit(2)
	}

	var progress io.Writer
	if *verbose {
		progress = os.Stderr
	}
	cfg := bench.Config{
		Quick:    *quick,
		Full:     *full,
		Batches:  *batches,
		Workers:  *workers,
		Progress: progress,
	}

	var exps []bench.Experiment
	if *exp == "all" {
		exps = bench.Experiments()
	} else {
		e, ok := bench.ByID(*exp)
		if !ok {
			fmt.Fprintf(os.Stderr, "sgbench: unknown experiment %q (try: sgbench -list)\n", *exp)
			os.Exit(2)
		}
		exps = []bench.Experiment{e}
	}

	if *csvDir != "" {
		if err := os.MkdirAll(*csvDir, 0o755); err != nil {
			fmt.Fprintln(os.Stderr, "sgbench:", err)
			os.Exit(1)
		}
	}
	for _, e := range exps {
		start := time.Now()
		fmt.Printf("# %s — %s\n# paper: %s\n\n", e.ID, e.Title, e.Paper)
		if *timing {
			// Fresh observer per experiment so the summary reflects
			// only this experiment's pipeline runs. Tracing stays off:
			// the summary needs histograms, not per-batch traces.
			bench.SetRunObserver(obs.New(obs.Options{TraceCapacity: -1}))
		}
		for i, t := range e.Run(cfg) {
			t.Render(os.Stdout)
			if *csvDir != "" {
				name := filepath.Join(*csvDir, fmt.Sprintf("%s_%d.csv", e.ID, i))
				if err := writeCSV(name, t); err != nil {
					fmt.Fprintln(os.Stderr, "sgbench:", err)
					os.Exit(1)
				}
			}
		}
		if *timing {
			fmt.Printf("# %s stage timing:\n", e.ID)
			for _, line := range bench.TimingSummary(bench.RunObserver()) {
				fmt.Printf("#   %s\n", line)
			}
			bench.SetRunObserver(nil)
		}
		fmt.Printf("# %s completed in %s\n\n", e.ID, time.Since(start).Round(time.Millisecond))
	}
}

// runCISmoke is the CI bench-smoke entry point: measure update
// throughput on the fixed smoke workload, write the report, and (when
// a baseline is given) gate against it. Returns the process exit code.
func runCISmoke(out, baselinePath string, tolerance float64, writeBaseline bool, workers int) int {
	res, err := bench.RunCISmoke(workers)
	if err != nil {
		// A partial run must not produce a report: a truncated
		// BENCH_ci.json would gate clean against the baseline (or worse,
		// be promoted to a too-easy baseline with -ci-write-baseline).
		fmt.Fprintln(os.Stderr, "sgbench: partial CI run, refusing to write", out+":", err)
		return 1
	}
	if writeBaseline {
		// Baselines are deliberately understated: CI runners are slower
		// and noisier than dev machines, and the gate exists to catch
		// order-of-magnitude slips, not scheduler jitter.
		for i := range res.Results {
			res.Results[i].EdgesPerSec /= 2
			res.Results[i].Seconds *= 2
		}
	}
	if err := bench.WriteCIResult(out, res); err != nil {
		fmt.Fprintln(os.Stderr, "sgbench:", err)
		return 1
	}
	for _, r := range res.Results {
		fmt.Printf("%-18s %12.0f edges/s  (%d edges in %.3fs)\n", r.Engine, r.EdgesPerSec, r.Edges, r.Seconds)
	}
	if writeBaseline {
		fmt.Printf("wrote baseline (measured/2) to %s\n", out)
		return 0
	}
	fmt.Printf("wrote %s\n", out)
	if baselinePath == "" {
		return 0
	}
	base, err := bench.LoadCIResult(baselinePath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "sgbench:", err)
		return 1
	}
	regressions, err := bench.CompareCI(res, base, tolerance)
	for _, msg := range regressions {
		fmt.Fprintln(os.Stderr, "sgbench: REGRESSION:", msg)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "sgbench:", err)
	}
	if len(regressions) > 0 || err != nil {
		return 1
	}
	fmt.Printf("bench-smoke gate passed vs %s (tolerance %.0f%%)\n", baselinePath, tolerance*100)
	return 0
}

// runTrajectory is the benchmark-trajectory entry point: run the
// adversarial engine×store matrix with span-derived per-phase
// breakdowns, write the schema-versioned report, and (when a baseline
// is given) gate per-phase ns/edge against it.
func runTrajectory(out, baselinePath string, tolerance float64, writeBaseline, quick bool, workers int) int {
	res, err := bench.RunTrajectory(quick, workers)
	if err != nil {
		// Same contract as the CI smoke: a partial run must not produce
		// a report that could gate clean or become a too-easy baseline.
		fmt.Fprintln(os.Stderr, "sgbench: partial trajectory run, refusing to write", out+":", err)
		return 1
	}
	if writeBaseline {
		// Baselines are deliberately understated (doubled phase costs):
		// CI runners are slower and noisier than dev machines, and the
		// gate exists to catch order-of-magnitude slips.
		for i := range res.Entries {
			for name, p := range res.Entries[i].Phases {
				p.Ns *= 2
				p.NsPerEdge *= 2
				res.Entries[i].Phases[name] = p
			}
		}
	}
	if err := bench.WriteTrajectory(out, res); err != nil {
		fmt.Fprintln(os.Stderr, "sgbench:", err)
		return 1
	}
	for _, e := range res.Entries {
		fmt.Printf("%-40s reorder %7.1f  update %7.1f  compute %7.1f  ns/edge\n",
			e.Key(), e.Phases[bench.PhaseReorder].NsPerEdge,
			e.Phases[bench.PhaseUpdate].NsPerEdge, e.Phases[bench.PhaseCompute].NsPerEdge)
	}
	if writeBaseline {
		fmt.Printf("wrote baseline (measured×2) to %s\n", out)
		return 0
	}
	fmt.Printf("wrote %s\n", out)
	if baselinePath == "" {
		return 0
	}
	base, err := bench.LoadTrajectory(baselinePath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "sgbench:", err)
		return 1
	}
	regressions, err := bench.CompareTrajectory(res, base, tolerance)
	for _, msg := range regressions {
		fmt.Fprintln(os.Stderr, "sgbench: REGRESSION:", msg)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "sgbench:", err)
	}
	if len(regressions) > 0 || err != nil {
		return 1
	}
	fmt.Printf("trajectory gate passed vs %s (tolerance %.0f%%)\n", baselinePath, tolerance*100)
	return 0
}

// runStoreCompare is the store head-to-head entry point: race the
// adjacency, dah and tango stores on the adversarial workloads through
// the shared Mutable ingestion path, write the trajectory-schema
// report, and (when a baseline is given) gate per-phase ns/edge
// against it.
func runStoreCompare(out, baselinePath string, tolerance float64, writeBaseline, quick bool) int {
	res, err := bench.RunStoreCompare(quick)
	if err != nil {
		// A partial run must not produce a report that could gate clean
		// or become a too-easy baseline.
		fmt.Fprintln(os.Stderr, "sgbench: partial store run, refusing to write", out+":", err)
		return 1
	}
	if writeBaseline {
		// Doubled, like the other baselines: CI runners are slower and
		// noisier than dev machines, and the gate is for order-of-
		// magnitude slips. Doubling every cell preserves the stores'
		// relative standing, which is what this report documents.
		for i := range res.Entries {
			for name, p := range res.Entries[i].Phases {
				p.Ns *= 2
				p.NsPerEdge *= 2
				res.Entries[i].Phases[name] = p
			}
		}
	}
	if err := bench.WriteTrajectory(out, res); err != nil {
		fmt.Fprintln(os.Stderr, "sgbench:", err)
		return 1
	}
	for _, e := range res.Entries {
		fmt.Printf("%-40s update %7.1f ns/edge\n", e.Key(), e.Phases[bench.PhaseUpdate].NsPerEdge)
	}
	if writeBaseline {
		fmt.Printf("wrote baseline (measured×2) to %s\n", out)
		return 0
	}
	fmt.Printf("wrote %s\n", out)
	if baselinePath == "" {
		return 0
	}
	base, err := bench.LoadTrajectory(baselinePath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "sgbench:", err)
		return 1
	}
	regressions, err := bench.CompareTrajectory(res, base, tolerance)
	for _, msg := range regressions {
		fmt.Fprintln(os.Stderr, "sgbench: REGRESSION:", msg)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "sgbench:", err)
	}
	if len(regressions) > 0 || err != nil {
		return 1
	}
	fmt.Printf("store gate passed vs %s (tolerance %.0f%%)\n", baselinePath, tolerance*100)
	return 0
}

// runLockfreeCompare is the lock-free head-to-head entry point: race
// the epoch engine against the locked batch engines on the adversarial
// workloads, write the trajectory-schema report, and (when a baseline
// is given) gate per-phase ns/edge against it.
func runLockfreeCompare(out, baselinePath string, tolerance float64, writeBaseline, quick bool, workers int) int {
	res, err := bench.RunLockfreeCompare(quick, workers)
	if err != nil {
		// A partial run must not produce a report that could gate clean
		// or become a too-easy baseline.
		fmt.Fprintln(os.Stderr, "sgbench: partial lockfree run, refusing to write", out+":", err)
		return 1
	}
	if writeBaseline {
		// Doubled, like the other baselines; uniform doubling preserves
		// the engines' relative standing, which is what this report
		// documents.
		for i := range res.Entries {
			for name, p := range res.Entries[i].Phases {
				p.Ns *= 2
				p.NsPerEdge *= 2
				res.Entries[i].Phases[name] = p
			}
		}
	}
	if err := bench.WriteTrajectory(out, res); err != nil {
		fmt.Fprintln(os.Stderr, "sgbench:", err)
		return 1
	}
	for _, e := range res.Entries {
		fmt.Printf("%-40s reorder %7.1f  update %7.1f  ns/edge\n",
			e.Key(), e.Phases[bench.PhaseReorder].NsPerEdge, e.Phases[bench.PhaseUpdate].NsPerEdge)
	}
	if writeBaseline {
		fmt.Printf("wrote baseline (measured×2) to %s\n", out)
		return 0
	}
	fmt.Printf("wrote %s\n", out)
	if baselinePath == "" {
		return 0
	}
	base, err := bench.LoadTrajectory(baselinePath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "sgbench:", err)
		return 1
	}
	regressions, err := bench.CompareTrajectory(res, base, tolerance)
	for _, msg := range regressions {
		fmt.Fprintln(os.Stderr, "sgbench: REGRESSION:", msg)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "sgbench:", err)
	}
	if len(regressions) > 0 || err != nil {
		return 1
	}
	fmt.Printf("lockfree gate passed vs %s (tolerance %.0f%%)\n", baselinePath, tolerance*100)
	return 0
}

// gateBaselines are the committed baseline files the bench gates
// compare against; -validate-baselines preflights them so check.sh and
// CI fail fast (with a distinct exit code) on a missing or
// schema-mismatched baseline instead of minutes into a measurement.
var gateBaselines = []string{"BENCH_baseline.json", "BENCH_store.json", "BENCH_lockfree.json"}

func runValidateBaselines() int {
	code := 0
	for _, p := range gateBaselines {
		if err := bench.ValidateBaseline(p); err != nil {
			fmt.Fprintln(os.Stderr, "sgbench:", err)
			code = 1
			continue
		}
		fmt.Printf("baseline %s ok\n", p)
	}
	return code
}

// writeCSV dumps one result table for external plotting.
func writeCSV(path string, t bench.Table) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	w := csv.NewWriter(f)
	if err := w.Write(t.Columns); err != nil {
		return err
	}
	if err := w.WriteAll(t.Rows); err != nil {
		return err
	}
	w.Flush()
	return w.Error()
}
