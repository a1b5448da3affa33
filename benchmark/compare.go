package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"slices"
)

// declaration is BENCHMARK.json: the one place the workloads, the metrics,
// their direction and their bounds are declared. smoke_test.go keeps it and
// the program in step.
type declaration struct {
	Workloads []struct{ Name, Why string } `json:"workloads"`
	EndToEnd  []declared                   `json:"end_to_end"`
	PerLayer  []declared                   `json:"per_layer"`
}

type declared struct {
	Name, Unit, Better string
	Bound              float64
}

func readDeclaration(root string) (declaration, error) {
	var d declaration
	data, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return d, err
	}
	return d, json.Unmarshal(data, &d)
}

// quartiles returns the first and third quartile as Python's
// statistics.quantiles(values, n=4) does, which is what the driver uses.
func quartiles(vs []float64) (q1, q3 float64) {
	s := slices.Sorted(slices.Values(vs))
	at := func(i int) float64 {
		j := min(max(i*(len(s)+1)/4, 1), len(s)-1)
		delta := float64(i*(len(s)+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return at(1), at(3)
}

// compareFiles prints, for every workload and end-to-end metric, the
// medians of two results.json files, their relative difference, and the
// run-to-run spread of each side (quartile distance over median). A
// difference beyond the metric's bound in the worse direction is a
// REGRESSION; one inside a spread wider than the bound is unresolved.
func compareFiles(paths []string) int {
	if len(paths) != 2 {
		fmt.Fprintln(os.Stderr, "benchmark: -compare takes two results.json files")
		return 2
	}
	root, err := findRoot()
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}
	decl, err := readDeclaration(root)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}
	var sides [2]map[string]map[string][]float64 // workload -> metric -> values
	for i, path := range paths {
		var records []record
		data, err := os.ReadFile(path)
		if err == nil {
			err = json.Unmarshal(data, &records)
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchmark: %s: %v\n", path, err)
			return 1
		}
		sides[i] = map[string]map[string][]float64{}
		for _, r := range records {
			if sides[i][r.Workload] == nil {
				sides[i][r.Workload] = map[string][]float64{}
			}
			for name, m := range r.Metrics {
				sides[i][r.Workload][name] = append(sides[i][r.Workload][name], m.Value)
			}
		}
	}
	spread := func(vs []float64) float64 {
		if len(vs) < 2 {
			return 0
		}
		q1, q3 := quartiles(vs)
		return (q3 - q1) / median(vs)
	}
	code := 0
	fmt.Printf("%-13s %-16s %14s %14s %8s %7s %7s %7s\n", "workload", "metric", "a", "b", "diff", "bound", "iqr a", "iqr b")
	for _, wl := range decl.Workloads {
		for _, m := range decl.EndToEnd {
			a, b := sides[0][wl.Name][m.Name], sides[1][wl.Name][m.Name]
			if len(a) == 0 || len(b) == 0 {
				continue
			}
			diff := (median(b) - median(a)) / median(a)
			worse := diff
			if m.Better == "higher" {
				worse = -diff
			}
			verdict := ""
			switch {
			case worse > m.Bound:
				verdict = "REGRESSION"
				code = 1
			case max(spread(a), spread(b)) > m.Bound:
				verdict = "unresolved"
			}
			fmt.Printf("%-13s %-16s %14.4f %14.4f %+7.1f%% %6.1f%% %6.1f%% %6.1f%% %s\n",
				wl.Name, m.Name, median(a), median(b), 100*diff, 100*m.Bound, 100*spread(a), 100*spread(b), verdict)
		}
	}
	return code
}
