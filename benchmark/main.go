// Command benchmark is the repository's benchmark: for each of five
// named workloads it generates a world from a seed, serves it with the
// real HTTP server on a loopback port, replays a seeded operation trace
// from two closed-loop clients, validates every answer, and prints the
// end-to-end metrics; with -trace 1 it prints the per-layer metrics from
// a staged, span-recorded pass instead. See README.md.
//
// Usage (from the repository root):
//
//	bash benchmark/run.sh -workload paper_mix -seed 1 -seconds 10 -trace 0
//	bash benchmark/run.sh -list
//	bash benchmark/run.sh -smoke
//	bash benchmark/run.sh -compare a/runs.jsonl b/runs.jsonl
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

// header says under what conditions a run was made, so two result files
// can be checked for comparability before they are compared.
type header struct {
	Workload   string  `json:"workload"`
	Go         string  `json:"go"`
	NumCPU     int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	Seed       int64   `json:"seed"`
	WindowS    float64 `json:"window_s"`
	WarmUpS    float64 `json:"warmup_s"`
	SetUps     int     `json:"setups"`
	Clients    int     `json:"clients"`
	Traced     bool    `json:"traced"`
	// Samples is the number of operations timed in the window; the
	// percentiles are over BestSamples of them, those of its least
	// disturbed quarter, BeyondP90 of which lie beyond the highest
	// percentile reported.
	Samples     int `json:"samples"`
	BestSamples int `json:"best_samples"`
	BeyondP90   int `json:"samples_beyond_p90"`
	// OpsPerSecond is the window second by second, so a disturbed run
	// can be told from a slow one.
	OpsPerSecond []int          `json:"ops_per_second"`
	TracedOps    int            `json:"traced_ops,omitempty"`
	Failures     map[string]int `json:"failures,omitempty"`
}

func (h *header) note(win window) {
	h.WindowS = win.Elapsed.Seconds()
	h.Samples = len(win.Samples)
	_, best := win.best()
	h.BestSamples = len(best)
	h.BeyondP90 = h.BestSamples - int(0.9*float64(h.BestSamples-1)) - 1
	for _, s := range win.Slices {
		h.OpsPerSecond = append(h.OpsPerSecond, s.Ops)
	}
}

// run is one line of a runs file: the conditions and the result.
type run struct {
	Header header `json:"header"`
	result
}

func main() {
	var (
		workload = flag.String("workload", "all", "workload to run, or all")
		seed     = flag.Int64("seed", 1, "seed of the generated world and trace")
		seconds  = flag.Int("seconds", 10, "length of the measured window")
		trace    = flag.Int("trace", 0, "1 runs the window's counters and the traced pass and prints the per-layer metrics")
		out      = flag.String("out", "benchmark/out", "directory for the span log and runs.jsonl")
		list     = flag.Bool("list", false, "print the declared workloads and metrics as JSON and exit")
		compare  = flag.Bool("compare", false, "compare two runs files given as arguments, by the benchmark's own bounds")
		smoke    = flag.Bool("smoke", false, "run every workload for one second, traced and untraced, and fail on any failed operation")
	)
	flag.Parse()
	err := func() error {
		switch {
		case *list:
			return json.NewEncoder(os.Stdout).Encode(declared())
		case *compare:
			if flag.NArg() != 2 {
				return fmt.Errorf("-compare takes two runs files")
			}
			return compareFiles(os.Stdout, flag.Arg(0), flag.Arg(1))
		case *seconds < 1 || (*trace != 0 && *trace != 1):
			return fmt.Errorf("-seconds must be at least 1 and -trace 0 or 1")
		}
		selected := workloads
		if *workload != "all" {
			w, ok := findWorkload(*workload)
			if !ok {
				return fmt.Errorf("unknown workload %q (see -list)", *workload)
			}
			selected = []workloadDef{w}
		}
		cfg := runConfig{Seed: *seed, Window: time.Duration(*seconds) * time.Second, WarmUp: warmUp, SetUps: setUps, Traced: *trace == 1, OutDir: *out}
		if *smoke {
			return runSmoke(selected, cfg)
		}
		for _, w := range selected {
			if _, err := runAndReport(w, cfg); err != nil {
				return err
			}
		}
		return nil
	}()
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

// runSmoke runs each workload for a second, untraced and traced, with
// one set-up and four traced operations, and fails on any failed
// operation.
func runSmoke(selected []workloadDef, cfg runConfig) error {
	cfg.Window, cfg.WarmUp, cfg.SetUps, cfg.MaxOps = time.Second, 0, 1, 4
	for _, w := range selected {
		for _, traced := range []bool{false, true} {
			cfg.Traced = traced
			r, err := runAndReport(w, cfg)
			if err != nil {
				return err
			}
			if !r.Correct {
				return fmt.Errorf("smoke: %s: %d of %d operations failed: %v", w.Name, r.Failed, r.Attempted, r.Header.Failures)
			}
		}
	}
	return nil
}

// runAndReport runs one workload, prints the conditions on standard
// error and the result as the last line of standard output, and appends
// both to runs.jsonl in the output directory.
func runAndReport(w workloadDef, cfg runConfig) (run, error) {
	r := run{Header: header{
		Workload: w.Name, Go: runtime.Version(), NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		Seed: cfg.Seed, WarmUpS: cfg.WarmUp.Seconds(), SetUps: cfg.SetUps, Clients: clientCount, Traced: cfg.Traced,
		Failures: map[string]int{},
	}}
	cfg.Header = &r.Header
	var err error
	if r.result, err = runWorkload(w, cfg); err != nil {
		return r, fmt.Errorf("%s: %w", w.Name, err)
	}
	head, err := json.Marshal(r.Header)
	if err != nil {
		return r, err
	}
	fmt.Fprintf(os.Stderr, "%s\n", head)
	line, err := json.Marshal(r.result)
	if err != nil {
		return r, err
	}
	if err := appendLine(filepath.Join(cfg.OutDir, "runs.jsonl"), r); err != nil {
		return r, err
	}
	_, err = fmt.Printf("%s\n", line)
	return r, err
}

func appendLine(path string, v any) error {
	data, err := json.Marshal(v)
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(data, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// manifest is the part of BENCHMARK.json the harness itself declares.
type manifest struct {
	Workloads []manifestWorkload `json:"workloads"`
	EndToEnd  []manifestMetric   `json:"end_to_end"`
	PerLayer  []manifestMetric   `json:"per_layer"`
}

type manifestWorkload struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

type manifestMetric struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound,omitempty"`
}

func declared() manifest {
	var m manifest
	for _, w := range workloads {
		m.Workloads = append(m.Workloads, manifestWorkload{w.Name, w.Why})
	}
	for _, d := range endToEnd {
		bound := d.Bound
		m.EndToEnd = append(m.EndToEnd, manifestMetric{d.Name, d.Unit, d.Better, &bound})
	}
	for _, d := range perLayer {
		m.PerLayer = append(m.PerLayer, manifestMetric{d.Name, d.Unit, d.Better, nil})
	}
	return m
}
