package main

import (
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"strings"
)

// result is one ledger entry: everything a full run measured, with the
// arguments that sized it and the host it ran on.
type result struct {
	Schema    int              `json:"schema"`
	Args      runArgs          `json:"args"`
	Host      hostInfo         `json:"host"`
	Workloads []workloadResult `json:"workloads"`
}

// runArgs are the harness arguments that change what is measured; two
// result files with different args are not comparable.
type runArgs struct {
	Seed    int64   `json:"seed"`
	Seconds float64 `json:"seconds"`
}

type hostInfo struct {
	NProc        int     `json:"nproc"`
	CPUModel     string  `json:"cpu_model"`
	GoVersion    string  `json:"go_version"`
	LoadAvgStart float64 `json:"loadavg_start"`
	BuildS       float64 `json:"build_s"`
}

type workloadResult struct {
	Name     string `json:"name"`
	EndToEnd *pass  `json:"end_to_end,omitempty"`
	PerLayer *pass  `json:"per_layer,omitempty"`
}

func hostFacts() hostInfo {
	h := hostInfo{NProc: runtime.NumCPU(), GoVersion: runtime.Version()}
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				h.CPUModel = strings.TrimSpace(v)
				break
			}
		}
	}
	if b, err := os.ReadFile("/proc/loadavg"); err == nil {
		var l1 float64
		if _, err := fmt.Sscan(string(b), &l1); err == nil {
			h.LoadAvgStart = l1
		}
	}
	return h
}

func writeResult(path string, r result) error {
	b, err := json.MarshalIndent(r, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

func readResult(path string) (result, error) {
	var r result
	b, err := os.ReadFile(path)
	if err != nil {
		return r, err
	}
	return r, json.Unmarshal(b, &r)
}
