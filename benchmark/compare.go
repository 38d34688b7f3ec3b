package main

// compare.go applies the benchmark's own bounds to two runs files
// (runs.jsonl as -out writes them): metric by metric, workload by
// workload, median against median.

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
)

func readRuns(path string) ([]run, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var runs []run
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 64<<10), 4<<20)
	for sc.Scan() {
		if len(sc.Bytes()) == 0 {
			continue
		}
		var r run
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		runs = append(runs, r)
	}
	return runs, sc.Err()
}

// judge names how b stands against a for one metric: "worse" when b's
// median is worse than a's by more than the bound, "unresolved" when
// either side's quartile spread is wider than the bound (so the medians
// decide nothing), "ok" otherwise.
func judge(d metricDef, a, b []float64) (medA, medB, spread float64, v string) {
	medA, medB = median(append([]float64(nil), a...)), median(append([]float64(nil), b...))
	spread = max(quartileSpread(a), quartileSpread(b))
	worse := medB > medA*(1+d.Bound)
	if d.Better == "higher" {
		worse = medB < medA*(1-d.Bound)
	}
	switch {
	case spread > d.Bound:
		v = "unresolved"
	case worse:
		v = "worse"
	default:
		v = "ok"
	}
	return medA, medB, spread, v
}

// untraced returns the end-to-end runs of one workload.
func untraced(runs []run, workload string) []run {
	var out []run
	for _, r := range runs {
		if r.Header.Workload == workload && !r.Header.Traced {
			out = append(out, r)
		}
	}
	return out
}

// failedShare is failed ÷ attempted over a set of runs.
func failedShare(runs []run) float64 {
	failed, attempted := 0, 0
	for _, r := range runs {
		failed, attempted = failed+r.Failed, attempted+r.Attempted
	}
	return float64(failed) / float64(max(attempted, 1))
}

// compareFiles prints one row per workload and end-to-end metric, and
// fails on any "worse" row or any rise in the share of failed
// operations.
func compareFiles(w io.Writer, pathA, pathB string) error {
	allA, err := readRuns(pathA)
	if err != nil {
		return err
	}
	allB, err := readRuns(pathB)
	if err != nil {
		return err
	}
	bad := 0
	fmt.Fprintf(w, "%-17s %-16s %14s %14s %8s %8s  %s\n", "workload", "metric", "a", "b", "change", "spread", "verdict")
	for _, wl := range workloads {
		a, b := untraced(allA, wl.Name), untraced(allB, wl.Name)
		if len(a) == 0 || len(b) == 0 {
			continue
		}
		for _, d := range endToEnd {
			values := func(runs []run) []float64 {
				out := make([]float64, len(runs))
				for i, r := range runs {
					out[i] = r.Metrics[d.Name].Value
				}
				return out
			}
			medA, medB, spread, v := judge(d, values(a), values(b))
			if v == "worse" {
				bad++
			}
			fmt.Fprintf(w, "%-17s %-16s %14.4f %14.4f %+7.1f%% %7.1f%%  %s\n",
				wl.Name, d.Name, medA, medB, 100*(medB-medA)/medA, 100*spread, v)
		}
		if shareA, shareB := failedShare(a), failedShare(b); shareB > shareA {
			bad++
			fmt.Fprintf(w, "%-17s %-16s %14.6f %14.6f %17s  worse\n", wl.Name, "failed_share", shareA, shareB, "")
		}
	}
	if bad > 0 {
		return fmt.Errorf("%d pairing(s) worse than the bound allows", bad)
	}
	return nil
}
