package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// benchSpec is the part of BENCHMARK.json the benchmark reads back.
type benchSpec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

type specMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

func readSpec(path string) (*benchSpec, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s benchSpec
	if err := json.Unmarshal(b, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &s, nil
}

// runSmoke runs every workload briefly in both modes and checks that
// each emits exactly the metrics BENCHMARK.json names, with their units,
// and judges its verdicts correct.
func runSmoke(specPath, out string) error {
	spec, err := readSpec(specPath)
	if err != nil {
		return err
	}
	var errs []error
	for _, w := range spec.Workloads {
		for trace, want := range [][]specMetric{spec.EndToEnd, spec.PerLayer} {
			rec, err := runOne(w.Name, 1, 4, trace, filepath.Join(out, "smoke"))
			if err != nil {
				errs = append(errs, fmt.Errorf("%s trace %d: %w", w.Name, trace, err))
				continue
			}
			if !rec.Result.Correct {
				errs = append(errs, fmt.Errorf("%s trace %d: incorrect: %s", w.Name, trace, strings.Join(rec.Errors, "; ")))
			}
			got := rec.Result.Metrics
			for _, m := range want {
				g, ok := got[m.Name]
				switch {
				case !ok:
					errs = append(errs, fmt.Errorf("%s trace %d: metric %s not emitted", w.Name, trace, m.Name))
				case g.Unit != m.Unit:
					errs = append(errs, fmt.Errorf("%s trace %d: metric %s in %s, BENCHMARK.json says %s", w.Name, trace, m.Name, g.Unit, m.Unit))
				}
			}
			if len(got) != len(want) {
				errs = append(errs, fmt.Errorf("%s trace %d: %d metrics emitted, BENCHMARK.json names %d", w.Name, trace, len(got), len(want)))
			}
			fmt.Printf("smoke %-14s trace %d: %d metrics, correct %v\n", w.Name, trace, len(got), rec.Result.Correct)
		}
	}
	if err := errors.Join(errs...); err != nil {
		return err
	}
	fmt.Println("smoke: ok")
	return nil
}

// loadRecords reads every run record in dir, keyed workload → metric →
// seed → value.
func loadRecords(dir string) (map[string]map[string]map[int64]float64, error) {
	paths, err := filepath.Glob(filepath.Join(dir, "*.json"))
	if err != nil {
		return nil, err
	}
	if len(paths) == 0 {
		return nil, fmt.Errorf("no records in %s", dir)
	}
	out := map[string]map[string]map[int64]float64{}
	for _, p := range paths {
		b, err := os.ReadFile(p)
		if err != nil {
			return nil, err
		}
		var rec record
		if err := json.Unmarshal(b, &rec); err != nil {
			return nil, fmt.Errorf("%s: %w", p, err)
		}
		if out[rec.Workload] == nil {
			out[rec.Workload] = map[string]map[int64]float64{}
		}
		for name, m := range rec.Result.Metrics {
			if out[rec.Workload][name] == nil {
				out[rec.Workload][name] = map[int64]float64{}
			}
			out[rec.Workload][name][rec.Seed] = m.Value
		}
	}
	return out, nil
}

// quartiles follows Python's statistics.quantiles(values, n=4) with its
// default exclusive method.
func quartiles(values []float64) (q1, med, q3 float64) {
	d := append([]float64(nil), values...)
	sort.Float64s(d)
	if len(d) == 1 {
		return d[0], d[0], d[0]
	}
	m := len(d) + 1
	q := [3]float64{}
	for i := 1; i <= 3; i++ {
		j := i * m / 4
		j = max(1, min(j, len(d)-1))
		delta := float64(i*m - j*4)
		q[i-1] = (d[j-1]*(4-delta) + d[j]*delta) / 4
	}
	return q[0], q[1], q[2]
}

func values(bySeed map[int64]float64) []float64 {
	out := make([]float64, 0, len(bySeed))
	for _, v := range bySeed {
		out = append(out, v)
	}
	return out
}

// printSummary prints the median and quartiles of every metric over a
// directory of records, with the spread (Q3 − Q1) / median.
func printSummary(dir string) error {
	recs, err := loadRecords(dir)
	if err != nil {
		return err
	}
	for _, w := range sortedKeys(recs) {
		for _, name := range sortedKeys(recs[w]) {
			vs := values(recs[w][name])
			q1, med, q3 := quartiles(vs)
			fmt.Printf("%-14s %-40s n=%-3d median %-12.6g q1 %-12.6g q3 %-12.6g spread %.3f\n",
				w, name, len(vs), med, q1, q3, spread(q1, med, q3))
		}
	}
	return nil
}

func spread(q1, med, q3 float64) float64 {
	if med == 0 {
		return 0
	}
	return math.Abs(q3-q1) / math.Abs(med)
}

func sortedKeys[V any](m map[string]V) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// runCompare prints one row per workload × end-to-end metric: the
// parent's and the change's medians and quartiles, the pair wins, and a
// mark. Runs are paired by seed. The marks:
//   - better: the change wins at least 9/10 of the pairs (ties count for
//     neither) and the medians differ by more than the parent's
//     quartile distance;
//   - unresolved: the parent's own spread is wider than the bound, and
//     not every change run beats every parent run;
//   - worse: the change's median is worse than the parent's by more
//     than the bound;
//   - no-worse: otherwise.
func runCompare(specPath, parentDir, changeDir string) error {
	spec, err := readSpec(specPath)
	if err != nil {
		return err
	}
	parent, err := loadRecords(parentDir)
	if err != nil {
		return err
	}
	change, err := loadRecords(changeDir)
	if err != nil {
		return err
	}
	fmt.Printf("%-14s %-20s %-34s %-34s %-7s %s\n", "workload", "metric", "parent median [q1, q3]", "change median [q1, q3]", "wins", "mark")
	for _, w := range spec.Workloads {
		for _, m := range spec.EndToEnd {
			p, c := parent[w.Name][m.Name], change[w.Name][m.Name]
			if len(p) == 0 || len(c) == 0 {
				fmt.Printf("%-14s %-20s missing runs\n", w.Name, m.Name)
				continue
			}
			mark, wins, pairs := judge(m, p, c)
			pq1, pm, pq3 := quartiles(values(p))
			cq1, cm, cq3 := quartiles(values(c))
			fmt.Printf("%-14s %-20s %-34s %-34s %-7s %s\n", w.Name, m.Name,
				fmt.Sprintf("%.4g [%.4g, %.4g]", pm, pq1, pq3),
				fmt.Sprintf("%.4g [%.4g, %.4g]", cm, cq1, cq3),
				fmt.Sprintf("%d/%d", wins, pairs), mark)
		}
	}
	return nil
}

// judge marks one metric's change against its parent.
func judge(m specMetric, parent, change map[int64]float64) (mark string, wins, pairs int) {
	sign := 1.0 // > 0 means "the change is better"
	if m.Better == "lower" {
		sign = -1
	}
	for seed, pv := range parent {
		cv, ok := change[seed]
		if !ok {
			continue
		}
		pairs++
		if sign*(cv-pv) > 0 {
			wins++
		}
	}
	pq1, pm, pq3 := quartiles(values(parent))
	_, cm, _ := quartiles(values(change))
	allBetter := true
	for _, pv := range parent {
		for _, cv := range change {
			if sign*(cv-pv) <= 0 {
				allBetter = false
			}
		}
	}
	switch {
	case pairs > 0 && float64(wins) >= 0.9*float64(pairs) && sign*(cm-pm) > math.Abs(pq3-pq1):
		return "better", wins, pairs
	case spread(pq1, pm, pq3) > m.Bound && !allBetter:
		return "unresolved", wins, pairs
	case sign*(cm-pm) < -m.Bound*math.Abs(pm):
		return "worse", wins, pairs
	}
	return "no-worse", wins, pairs
}
