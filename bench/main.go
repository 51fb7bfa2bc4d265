// Command bench is the repository's benchmark: four workloads, measured
// end to end from outside the shipped binaries and, in a separate traced
// run, layer by layer from inside. See README.md beside this file and
// BENCHMARK.json at the module root.
//
//	go run ./bench                          every workload, both passes
//	go run ./bench -workload serve-hot      one workload
//	go run ./bench -trace 1                 the traced (per-layer) pass only
//	go run ./bench -out BENCH_14.json       also write a ledger entry
//	go run ./bench -compare old.json new.json
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"slices"
	"syscall"
)

var workloads = []string{"node3d-coarse", "node3d-fine", "serve-cold", "serve-hot"}

func main() {
	var (
		workload    = flag.String("workload", "", "run only this workload (default: all four)")
		seed        = flag.Int64("seed", 1, "workload seed: the same seed gives the same inputs")
		seconds     = flag.Float64("seconds", 25, "measuring time per run; sizes the request lists and the rep count")
		trace       = flag.Int("trace", -1, "0: end-to-end pass only, 1: traced per-layer pass only (default: both)")
		out         = flag.String("out", "", "write the full result (a ledger entry) to this file")
		spansOut    = flag.String("spans", "", "traced pass: write the recorded spans to this file (one workload's; use with -workload)")
		compare     = flag.Bool("compare", false, "compare two result files: -compare old.json new.json")
		writeGold   = flag.Bool("write-golden", false, "regenerate "+goldenFile+" and exit")
		listMetrics = flag.Bool("metrics", false, "list every metric with its unit and exit")
	)
	flag.Parse()

	switch {
	case *compare:
		if flag.NArg() != 2 {
			fatal(fmt.Errorf("-compare needs two result files"))
		}
		os.Exit(runCompare(os.Stdout, flag.Arg(0), flag.Arg(1)))
	case *listMetrics:
		for _, name := range allMetricNames() {
			fmt.Printf("%-36s %s\n", name, unitOf(name))
		}
		return
	}
	if flag.NArg() != 0 {
		fatal(fmt.Errorf("unexpected arguments %v", flag.Args()))
	}
	if *seconds < 1 || *seconds > 60 {
		fatal(fmt.Errorf("-seconds %v outside [1, 60]", *seconds))
	}
	if top, _ := highestSupportedPercentile(int(coldPerSecond * *seconds)); top < 0.95 {
		fmt.Fprintf(os.Stderr, "bench: -seconds %v leaves serve-cold fewer than ten requests beyond its p95\n", *seconds)
	}
	selected := workloads
	if *workload != "" {
		if !slices.Contains(workloads, *workload) {
			fatal(fmt.Errorf("unknown workload %q (have %v)", *workload, workloads))
		}
		selected = []string{*workload}
	}

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	signals := make(chan os.Signal, 1)
	signal.Notify(signals, syscall.SIGINT, syscall.SIGTERM)

	if *writeGold {
		if err := writeGolden(ctx, goldenFile); err != nil {
			fatal(err)
		}
		return
	}

	host := hostFacts()
	e, err := newEnv(ctx)
	if err != nil {
		fatal(err)
	}
	host.BuildS = e.buildS
	// On SIGINT/SIGTERM: every child is in the env's table and is killed,
	// and the scratch directory removed, before exiting.
	go func() {
		<-signals
		fmt.Fprintln(os.Stderr, "bench: interrupted, cleaning up")
		cancel()
		_ = e.close() // exiting non-zero regardless
		os.Exit(130)
	}()

	res := result{Schema: 1, Args: runArgs{Seed: *seed, Seconds: *seconds}, Host: host}
	incorrect := 0
	for _, w := range selected {
		wr := workloadResult{Name: w}
		if *trace != 1 {
			wr.EndToEnd = runEndToEnd(ctx, e, w, *seed, *seconds)
			report(w, "end to end, tracing off", wr.EndToEnd, endToEndNames)
		}
		if *trace != 0 {
			wr.PerLayer = runTraced(ctx, e, w, *seed, *seconds, host, *spansOut)
			report(w, "per layer, traced", wr.PerLayer, perLayerNames)
		}
		for _, p := range []*pass{wr.EndToEnd, wr.PerLayer} {
			if p != nil && !p.Correct {
				incorrect++
			}
		}
		res.Workloads = append(res.Workloads, wr)
	}
	if err := e.close(); err != nil {
		fatal(err)
	}
	if *out != "" {
		if err := writeResult(*out, res); err != nil {
			fatal(err)
		}
	}
	// Failed operations are a result, not a harness error: they are in each
	// pass's "correct"/"failed" and -compare gates on them. The exit code
	// says only whether the harness itself ran to the end.
	if incorrect > 0 {
		fmt.Fprintf(os.Stderr, "bench: %d pass(es) had failed operations; see the FAILED lines\n", incorrect)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "bench:", err)
	os.Exit(2)
}

func runEndToEnd(ctx context.Context, e *env, w string, seed int64, seconds float64) *pass {
	switch w {
	case "node3d-coarse":
		return e.nodeEndToEnd(coarseGeom, seconds)
	case "node3d-fine":
		return e.nodeEndToEnd(fineGeom, seconds)
	case "serve-cold":
		return e.serveEndToEnd(ctx, false, seed, seconds)
	default:
		return e.serveEndToEnd(ctx, true, seed, seconds)
	}
}

// report prints every metric of the pass by name with its unit, then the
// one-line JSON object the benchmark driver reads (always the last line a
// pass prints, so a single-pass invocation ends with it).
func report(workload, what string, p *pass, names []string) {
	fmt.Printf("== %s: %s ==\n", workload, what)
	for _, name := range names {
		m, ok := p.Metrics[name]
		if !ok {
			fmt.Printf("  %-36s MISSING\n", name)
			continue
		}
		line := fmt.Sprintf("  %-36s %14.6g %-8s", name, m.Value, m.Unit)
		if q := quartiles(m); q != "" {
			line += " " + q
		}
		fmt.Println(line)
	}
	for _, r := range p.Reasons {
		fmt.Printf("  FAILED: %s\n", r)
	}
	type driverMetric struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	line := struct {
		Correct   bool                    `json:"correct"`
		Attempted int                     `json:"attempted"`
		Failed    int                     `json:"failed"`
		Metrics   map[string]driverMetric `json:"metrics"`
	}{p.Correct, p.Attempted, p.Failed, make(map[string]driverMetric, len(p.Metrics))}
	for name, m := range p.Metrics {
		line.Metrics[name] = driverMetric{m.Value, m.Unit}
	}
	b, err := json.Marshal(line)
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(b))
}
