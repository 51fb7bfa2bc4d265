package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
)

// benchmarkFile is the contract at the module root; compare mode takes each
// end-to-end metric's direction and regression bound from it.
const benchmarkFile = "BENCHMARK.json"

type benchmarkSpec struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

type metricSpec struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound,omitempty"`
}

func readBenchmarkSpec(path string) (benchmarkSpec, error) {
	var spec benchmarkSpec
	b, err := os.ReadFile(path)
	if err != nil {
		return spec, err
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		return spec, fmt.Errorf("%s: %w", path, err)
	}
	return spec, nil
}

// worsening is how much worse (as a share of the old value) the new value
// is in the metric's bad direction; negative when it got better.
func worsening(old, new float64, better string) float64 {
	if old == 0 {
		return 0
	}
	if better == "higher" {
		return (old - new) / old
	}
	return (new - old) / old
}

// runCompare prints one row per (metric, workload) and returns the exit
// code: 1 when an end-to-end cell worsened past its bound or a workload's
// failures rose, 2 when the files cannot be compared at all.
func runCompare(w io.Writer, oldPath, newPath string) int {
	spec, err := readBenchmarkSpec(benchmarkFile)
	if err != nil {
		fmt.Fprintln(w, "compare:", err)
		return 2
	}
	oldRes, err := readResult(oldPath)
	if err != nil {
		fmt.Fprintln(w, "compare:", err)
		return 2
	}
	newRes, err := readResult(newPath)
	if err != nil {
		fmt.Fprintln(w, "compare:", err)
		return 2
	}
	return compareResults(w, spec, oldRes, newRes)
}

func compareResults(w io.Writer, spec benchmarkSpec, oldRes, newRes result) int {
	if oldRes.Args != newRes.Args {
		// -seed picks the inputs and -seconds sizes the request lists and
		// the rep counts; medians from differently sized runs do not compare.
		fmt.Fprintf(w, "compare: the files were made with different arguments (%+v vs %+v); refusing\n",
			oldRes.Args, newRes.Args)
		return 2
	}
	newBy := make(map[string]workloadResult)
	for _, wr := range newRes.Workloads {
		newBy[wr.Name] = wr
	}
	regressions := 0
	fmt.Fprintf(w, "%-14s %-26s %13s %25s %13s %25s %9s %7s  %s\n",
		"workload", "metric", "old median", "old q1..q3", "new median", "new q1..q3", "new/old", "bound", "verdict")
	for _, ow := range oldRes.Workloads {
		nw, ok := newBy[ow.Name]
		if !ok {
			fmt.Fprintf(w, "%-14s missing from the new file\n", ow.Name)
			regressions++
			continue
		}
		if ow.EndToEnd != nil && nw.EndToEnd != nil {
			for _, ms := range spec.EndToEnd {
				om, nm := ow.EndToEnd.Metrics[ms.Name], nw.EndToEnd.Metrics[ms.Name]
				verdict := "ok"
				worse := worsening(om.Value, nm.Value, ms.Better)
				if ms.Bound != nil && worse > *ms.Bound {
					verdict = fmt.Sprintf("REGRESSION (%+.1f %% worse)", 100*worse)
					regressions++
				}
				bound := 0.0
				if ms.Bound != nil {
					bound = *ms.Bound
				}
				fmt.Fprintf(w, "%-14s %-26s %13.6g %25s %13.6g %25s %9.4f %7.2f  %s\n",
					ow.Name, ms.Name+" ["+ms.Unit+"]", om.Value, quartiles(om), nm.Value, quartiles(nm),
					ratio(nm.Value, om.Value), bound, verdict)
			}
			of, nf := failShare(ow.EndToEnd), failShare(nw.EndToEnd)
			verdict := "ok"
			if nf > of {
				verdict = "REGRESSION (failures rose)"
				regressions++
			}
			fmt.Fprintf(w, "%-14s %-26s %13.6g %25s %13.6g %25s %9s %7s  %s\n",
				ow.Name, "fail_share [ratio]", of, "", nf, "", "", "", verdict)
		}
		if ow.PerLayer != nil && nw.PerLayer != nil {
			for _, ms := range spec.PerLayer {
				om, nm := ow.PerLayer.Metrics[ms.Name], nw.PerLayer.Metrics[ms.Name]
				if om.Value == 0 && nm.Value == 0 {
					continue // a layer the workload does not touch
				}
				fmt.Fprintf(w, "%-14s %-26s %13.6g %25s %13.6g %25s %9.4f %7s  %s\n",
					ow.Name, ms.Name+" ["+ms.Unit+"]", om.Value, "", nm.Value, "", ratio(nm.Value, om.Value), "", "not gated")
			}
		}
	}
	if regressions > 0 {
		fmt.Fprintf(w, "%d end-to-end cell(s) regressed past their bound\n", regressions)
		return 1
	}
	fmt.Fprintln(w, "no end-to-end cell worsened past its bound")
	return 0
}

func quartiles(m metric) string {
	switch {
	case m.N == 0:
		return ""
	case m.Q1 == 0 && m.Q3 == 0:
		return fmt.Sprintf("n=%d", m.N)
	}
	return fmt.Sprintf("%.5g..%.5g n=%d", m.Q1, m.Q3, m.N)
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func failShare(p *pass) float64 {
	if p.Attempted == 0 {
		return 0
	}
	return float64(p.Failed) / float64(p.Attempted)
}
