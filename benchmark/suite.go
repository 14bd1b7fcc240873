package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"strconv"

	"funcx/internal/metrics"
)

// spec is BENCHMARK.json: the names this benchmark must print and the
// bound by which each end-to-end metric may get worse.
type spec struct {
	RunSeconds int          `json:"run_seconds"`
	Workloads  []specNamed  `json:"workloads"`
	EndToEnd   []specMetric `json:"end_to_end"`
	PerLayer   []specMetric `json:"per_layer"`
}

type specNamed struct {
	Name string `json:"name"`
}

type specMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// loadSpec reads BENCHMARK.json from the working directory, the
// repository root.
func loadSpec() (*spec, error) {
	data, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		return nil, fmt.Errorf("run from the repository root: %w", err)
	}
	var s spec
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	return &s, nil
}

// report is what the suite measured: the -json file, and one side of a
// -compare.
type report struct {
	Seed      int64                      `json:"seed"`
	Seconds   int                        `json:"seconds"`
	Workloads map[string]*workloadReport `json:"workloads"`
}

type workloadReport struct {
	Attempted int                 `json:"attempted"`
	Failed    int                 `json:"failed"`
	EndToEnd  map[string]measured `json:"end_to_end"`
	PerLayer  map[string]measured `json:"per_layer"`
}

// runSuite runs every workload twice, spans off then on, each in a
// process of its own so CPU, allocations and peak RSS belong to that
// run alone, and prints every metric BENCHMARK.json names.
func runSuite(seed int64, seconds int, check bool, jsonOut, outDir string) error {
	sp, err := loadSpec()
	if err != nil {
		return err
	}
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	rep := report{Seed: seed, Seconds: seconds, Workloads: map[string]*workloadReport{}}
	for _, w := range workloads {
		wr := &workloadReport{}
		rep.Workloads[w.name] = wr
		for trace, want := range [][]specMetric{sp.EndToEnd, sp.PerLayer} {
			args := []string{"-workload", w.name, "-seed", strconv.FormatInt(seed, 10),
				"-seconds", strconv.Itoa(seconds), "-trace", strconv.Itoa(trace), "-out", outDir}
			if check {
				args = append(args, "-check")
			}
			res, err := runChild(exe, args)
			if err != nil {
				return fmt.Errorf("%s -trace %d: %w", w.name, trace, err)
			}
			if err := sameNames(res.Metrics, want); err != nil {
				return fmt.Errorf("%s -trace %d disagrees with BENCHMARK.json: %w", w.name, trace, err)
			}
			if trace == 0 {
				wr.Attempted, wr.Failed, wr.EndToEnd = res.Attempted, res.Failed, res.Metrics
			} else {
				wr.PerLayer = res.Metrics
			}
		}
	}
	printReport(sp, &rep)
	if jsonOut == "" {
		return nil
	}
	data, err := json.MarshalIndent(rep, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(jsonOut, append(data, '\n'), 0o644)
}

// runChild runs one measurement, relays what it printed ahead of the
// result line, and parses that line.
func runChild(exe string, args []string) (*result, error) {
	cmd := exec.Command(exe, args...)
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	lines := bytes.Split(bytes.TrimSpace(out), []byte("\n"))
	for _, line := range lines[:len(lines)-1] {
		fmt.Printf("%s\n", line)
	}
	if err != nil {
		return nil, err
	}
	var res result
	if err := json.Unmarshal(lines[len(lines)-1], &res); err != nil {
		return nil, fmt.Errorf("result line: %w", err)
	}
	return &res, nil
}

// sameNames checks that a run printed exactly the metrics the spec
// lists, each with the unit the spec gives it.
func sameNames(got map[string]measured, want []specMetric) error {
	for _, m := range want {
		g, ok := got[m.Name]
		if !ok {
			return fmt.Errorf("%s is not printed", m.Name)
		}
		if g.Unit != m.Unit {
			return fmt.Errorf("%s is printed in %s, listed in %s", m.Name, g.Unit, m.Unit)
		}
	}
	if len(got) != len(want) {
		return fmt.Errorf("%d metrics printed, %d listed", len(got), len(want))
	}
	return nil
}

// printReport prints one row per metric and one column per workload.
func printReport(sp *spec, rep *report) {
	fmt.Printf("\nseed %d, %d s measured per run, %d clients\n", rep.Seed, rep.Seconds, clientCount())
	table := func(title string, rows func(row func(name, unit string, cell func(*workloadReport) float64))) {
		header := []string{title, "unit"}
		for _, w := range workloads {
			header = append(header, w.name)
		}
		t := metrics.NewTable(header...)
		rows(func(name, unit string, cell func(*workloadReport) float64) {
			cells := []string{name, unit}
			for _, w := range workloads {
				cells = append(cells, strconv.FormatFloat(cell(rep.Workloads[w.name]), 'g', 6, 64))
			}
			t.AddRow(cells...)
		})
		fmt.Printf("\n%s", t.Render())
	}
	table("end to end (spans off, best round)", func(row func(string, string, func(*workloadReport) float64)) {
		for _, m := range sp.EndToEnd {
			row(m.Name, m.Unit, func(wr *workloadReport) float64 { return wr.EndToEnd[m.Name].Value })
		}
		row("slo_miss_ratio", "ratio", func(wr *workloadReport) float64 { return 1 - wr.EndToEnd["slo_met_ratio"].Value })
		row("failed_ratio", "ratio", func(wr *workloadReport) float64 { return float64(wr.Failed) / float64(wr.Attempted) })
		row("attempted", "tasks", func(wr *workloadReport) float64 { return float64(wr.Attempted) })
		row("succeeded", "tasks", func(wr *workloadReport) float64 { return float64(wr.Attempted - wr.Failed) })
		row("failed", "tasks", func(wr *workloadReport) float64 { return float64(wr.Failed) })
	})
	table("per layer (traced pass, then layer pass)", func(row func(string, string, func(*workloadReport) float64)) {
		for _, m := range sp.PerLayer {
			row(m.Name, m.Unit, func(wr *workloadReport) float64 { return wr.PerLayer[m.Name].Value })
		}
	})
}
