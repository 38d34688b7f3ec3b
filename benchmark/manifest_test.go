package main

import (
	"bytes"
	"encoding/json"
	"os"
	"regexp"
	"strings"
	"testing"
)

// benchmarkFile mirrors BENCHMARK.json key for key; decoding rejects any
// key it does not know.
type benchmarkFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	manifest
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	pathRE = regexp.MustCompile(`^[A-Za-z0-9_./-]{1,200}$`)
)

// TestManifest holds BENCHMARK.json to the driver's contract and to what
// the harness declares, so the two cannot drift apart.
func TestManifest(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if len(data) > 64<<10 {
		t.Errorf("BENCHMARK.json is %d bytes, over 64 KiB", len(data))
	}
	var top map[string]json.RawMessage
	if err := json.Unmarshal(data, &top); err != nil {
		t.Fatal(err)
	}
	if len(top) != 6 {
		t.Errorf("BENCHMARK.json has %d top-level keys, want exactly command, paths, run_seconds, workloads, end_to_end, per_layer", len(top))
	}
	var f benchmarkFile
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&f); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}

	if len(f.Command) == 0 || len(f.Command) > 32 {
		t.Errorf("command has %d strings, want 1 to 32", len(f.Command))
	}
	for _, c := range f.Command {
		if len(c) > 200 || strings.HasPrefix(c, "/") || strings.Contains(c, "..") {
			t.Errorf("command argument %q is too long or leaves the checkout", c)
		}
	}
	if len(f.Paths) != 1 || f.Paths[0] != "benchmark" || !pathRE.MatchString(f.Paths[0]) {
		t.Errorf("paths = %v, want exactly [benchmark]", f.Paths)
	}
	if f.RunSeconds < 10 || f.RunSeconds > 60 {
		t.Errorf("run_seconds = %d, want 10 to 60", f.RunSeconds)
	}
	// The driver makes 4 + 22 runs per workload inside 3420 s, builds
	// included; a run is set-up, warm-up and window, about 6 s over the
	// window on this harness.
	if runs := 4 + 22*len(f.Workloads); runs*(f.RunSeconds+8) > 3420-300 {
		t.Errorf("%d runs of %d s windows do not fit the driver's 3420 s", runs, f.RunSeconds)
	}

	seen := map[string]bool{}
	name := func(kind, n string) {
		if !nameRE.MatchString(n) {
			t.Errorf("%s name %q does not match %s", kind, n, nameRE)
		}
		if seen[n] {
			t.Errorf("name %q is used twice", n)
		}
		seen[n] = true
	}
	if len(f.Workloads) != 5 {
		t.Errorf("%d workloads, want 5", len(f.Workloads))
	}
	for _, w := range f.Workloads {
		name("workload", w.Name)
		if w.Why == "" || len(w.Why) > 200 || strings.ContainsAny(w.Why, "\n\r") {
			t.Errorf("workload %s: why must be one line of at most 200 characters", w.Name)
		}
	}
	if len(f.EndToEnd) == 0 || len(f.EndToEnd) > 16 {
		t.Errorf("%d end-to-end metrics, want 1 to 16", len(f.EndToEnd))
	}
	if len(f.PerLayer) == 0 || len(f.PerLayer) > 128 {
		t.Errorf("%d per-layer metrics, want 1 to 128", len(f.PerLayer))
	}
	var setup *manifestMetric
	largest := 0.0
	for i, m := range f.EndToEnd {
		name("end-to-end metric", m.Name)
		if m.Bound == nil || *m.Bound <= 0 || *m.Bound > 0.25 {
			t.Errorf("%s: bound must be in (0, 0.25]", m.Name)
			continue
		}
		largest = max(largest, *m.Bound)
		if m.Name == "setup_s" {
			setup = &f.EndToEnd[i]
		}
	}
	for _, m := range f.PerLayer {
		name("per-layer metric", m.Name)
		if m.Bound != nil {
			t.Errorf("%s: a per-layer metric has no bound", m.Name)
		}
	}
	for _, m := range append(append([]manifestMetric{}, f.EndToEnd...), f.PerLayer...) {
		if !unitRE.MatchString(m.Unit) {
			t.Errorf("%s: unit %q does not match %s", m.Name, m.Unit, unitRE)
		}
		if m.Better != "lower" && m.Better != "higher" {
			t.Errorf("%s: better = %q", m.Name, m.Better)
		}
	}
	if setup == nil || setup.Unit != "s" || setup.Better != "lower" || *setup.Bound != largest {
		t.Errorf("setup_s must be an end-to-end metric in s, lower is better, with the largest bound")
	}

	// The file declares exactly what the harness emits (-list).
	want, _ := json.Marshal(declared())
	got, _ := json.Marshal(f.manifest)
	if !bytes.Equal(want, got) {
		t.Errorf("BENCHMARK.json and the harness disagree:\n file:    %s\n harness: %s", got, want)
	}
}

// TestPerLayerMetricsSayWhatTheyMove checks that every per-layer metric
// names the end-to-end metric and the workload it is expected to move.
func TestPerLayerMetricsSayWhatTheyMove(t *testing.T) {
	for _, d := range perLayer {
		if strings.HasPrefix(d.Moves, "nothing end to end") {
			continue
		}
		namesMetric, namesWorkload := false, strings.Contains(d.Moves, "every")
		for _, e := range endToEnd {
			namesMetric = namesMetric || strings.Contains(d.Moves, e.Name)
		}
		for _, w := range workloads {
			namesWorkload = namesWorkload || strings.Contains(d.Moves, w.Name)
		}
		if !namesMetric || !namesWorkload {
			t.Errorf("%s: Moves = %q names no end-to-end metric or no workload", d.Name, d.Moves)
		}
	}
}
