package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"
)

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// outcome is what one run reports.
type outcome struct {
	attempted int
	failed    int
	problems  []string
	metrics   map[string]metric
	// detail holds figures for people reading the run: the machine,
	// sample counts, generator lateness, self times.
	detail map[string]any
	tracer *Tracer
}

func newOutcome() *outcome {
	return &outcome{metrics: map[string]metric{}, detail: map[string]any{}}
}

func (o *outcome) set(name, unit string, v float64) { o.metrics[name] = metric{v, unit} }

// fail records a failed operation or a wrong result.
func (o *outcome) fail(format string, args ...any) {
	o.failed++
	if len(o.problems) < 20 {
		o.problems = append(o.problems, fmt.Sprintf(format, args...))
	}
}

type runner func(seed int64, seconds float64, trace bool, o *outcome) error

var workloads = map[string]runner{
	"hub-ingest":    func(s int64, d float64, t bool, o *outcome) error { return runLibrary(hubIngest, s, d, t, o) },
	"flat-pagerank": func(s int64, d float64, t bool, o *outcome) error { return runLibrary(flatPageRank, s, d, t, o) },
	"serve-mixed":   runServe,
}

func main() {
	workload := flag.String("workload", "", "hub-ingest | flat-pagerank | serve-mixed")
	seed := flag.Int64("seed", 1, "input seed")
	seconds := flag.Float64("seconds", 20, "measuring time")
	trace := flag.Int("trace", 0, "1 runs the traced per-layer replay instead of the timed run")
	out := flag.String("out", ".", "directory for the span record of traced runs")
	flag.Parse()

	run, ok := workloads[*workload]
	if !ok || (*trace != 0 && *trace != 1) || *seconds <= 0 {
		fmt.Fprintf(os.Stderr, "perfbench: bad arguments (workload %q, trace %d, seconds %g)\n", *workload, *trace, *seconds)
		os.Exit(2)
	}
	o := newOutcome()
	if err := run(*seed, *seconds, *trace == 1, o); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", *workload, err)
		o.attempted++
		o.fail("%v", err)
	}
	if o.tracer != nil {
		if err := writeSpans(filepath.Join(*out, fmt.Sprintf("spans-%s-seed%d.jsonl", *workload, *seed)), o.tracer); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
			os.Exit(1)
		}
	}
	o.detail["machine"] = map[string]any{
		"cpus":       runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go":         runtime.Version(),
	}
	o.detail["workload"] = *workload
	o.detail["seed"] = *seed
	o.detail["trace"] = *trace == 1
	if o.attempted > 0 {
		o.detail["error_rate"] = float64(o.failed) / float64(o.attempted)
	}
	if len(o.problems) > 0 {
		o.detail["problems"] = o.problems
	}
	correct := o.failed == 0 && o.attempted > 0
	enc := json.NewEncoder(os.Stdout)
	if err := enc.Encode(map[string]any{"detail": o.detail}); err != nil {
		os.Exit(1)
	}
	if err := enc.Encode(map[string]any{
		"correct":   correct,
		"attempted": o.attempted,
		"failed":    o.failed,
		"metrics":   o.metrics,
	}); err != nil {
		os.Exit(1)
	}
	if !correct {
		os.Exit(1)
	}
}

func writeSpans(path string, t *Tracer) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("write spans: %w", err)
	}
	if err := t.WriteJSON(f); err != nil {
		f.Close()
		return fmt.Errorf("write spans: %w", err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("write spans: %w", err)
	}
	return nil
}

// deadline reports whether a run that began at start has measured for
// its seconds.
func deadline(start time.Time, seconds float64) bool {
	return time.Since(start).Seconds() >= seconds
}
