// Command perfbench is the repository's end-to-end benchmark of the
// decision path: it starts the decision server in-process on a real
// 127.0.0.1 listener, drives it over HTTP through the SDK, checks every
// verdict against full evaluation, and prints one JSON result line.
//
// Usage, from the repository root:
//
//	bash perfbench/run.sh --workload d1-serve --seed 1 --seconds 30 --trace 0
//	bash perfbench/run.sh --smoke
//	bash perfbench/run.sh --summary .bench_build/results
//	bash perfbench/run.sh --compare parent-results change-results
//
// --trace 0 measures the end-to-end metrics: set-up time, closed-loop
// capacity, then an open-loop ladder of three offered rates with
// latencies read at the nominal (lowest) rung. --trace 1 is the traced
// run: an undecorated and a decorated system on the same seed, the
// decorated one timed at each layer's public seam, reporting the
// per-layer metrics. Either way the last line of standard output is
//
//	{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
//
// and a wrong verdict, a wrong final state or a failed fidelity check
// exits with status 1. Each run's full record (machine stamp, rung
// rates, every metric) is also written under --out. See README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"
)

// heldOutSeeds are reserved for confirming a claimed gain; tune and
// develop on other seeds.
var heldOutSeeds = []int64{9001, 9002, 9003, 9004, 9005, 9006, 9007, 9008, 9009, 9010}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// record is what a run writes under --out: the result plus the stamp
// that makes it comparable.
type record struct {
	Workload     string     `json:"workload"`
	Seed         int64      `json:"seed"`
	Seconds      int        `json:"seconds"`
	Trace        int        `json:"trace"`
	CPUs         int        `json:"cpus"`
	GOMAXPROCS   int        `json:"gomaxprocs"`
	GoVersion    string     `json:"go_version"`
	Commit       string     `json:"commit"`
	RatesOpsS    [3]float64 `json:"rung_rates_ops_s"`
	LimitMS      float64    `json:"p95_limit_ms"`
	HeldOutSeeds []int64    `json:"held_out_seeds"`
	Errors       []string   `json:"errors,omitempty"`
	Notes        []string   `json:"notes,omitempty"`
	Result       result     `json:"result"`
}

func main() { os.Exit(run()) }

// run is main with an exit status: 0 for a correct run, 1 for a wrong
// verdict or state, 2 when the benchmark itself cannot run.
func run() int {
	var (
		name    = flag.String("workload", "", "workload to run: d1-serve, emp-recursive or ref-remote")
		seed    = flag.Int64("seed", 1, "workload seed")
		seconds = flag.Int("seconds", 30, "measured seconds per run")
		trace   = flag.Int("trace", 0, "0: end-to-end metrics; 1: traced run with per-layer metrics")
		out     = flag.String("out", ".bench_build/results", "directory for per-run records")
		smoke   = flag.Bool("smoke", false, "short runs of every workload, asserting every metric in BENCHMARK.json is emitted with its unit")
		summary = flag.String("summary", "", "print median and quartiles of every metric over the records in this directory")
		compare = flag.Bool("compare", false, "compare two record directories (parent, change) against the bounds in BENCHMARK.json")
		bench   = flag.String("benchmark", "BENCHMARK.json", "path of BENCHMARK.json (for --smoke and --compare)")
		profile = flag.String("cpuprofile", "", "write a CPU profile of the whole run to this file")
	)
	flag.Parse()
	if *profile != "" {
		f, err := os.Create(*profile)
		if err == nil {
			err = pprof.StartCPUProfile(f)
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			return 2
		}
		defer f.Close()
		defer pprof.StopCPUProfile()
	}
	var err error
	switch {
	case *smoke:
		err = runSmoke(*bench, *out)
	case *summary != "":
		err = printSummary(*summary)
	case *compare:
		if flag.NArg() != 2 {
			err = fmt.Errorf("--compare needs two record directories: parent change")
			break
		}
		err = runCompare(*bench, flag.Arg(0), flag.Arg(1))
	default:
		var rec record
		if rec, err = runOne(*name, *seed, *seconds, *trace, *out); err != nil {
			break
		}
		line, _ := json.Marshal(rec.Result)
		fmt.Println(string(line))
		if !rec.Result.Correct {
			fmt.Fprintln(os.Stderr, "perfbench: run incorrect:", strings.Join(rec.Errors, "; "))
			return 1
		}
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 2
	}
	return 0
}

// runOne runs one workload once and writes its record under out.
func runOne(name string, seed int64, seconds, trace int, out string) (record, error) {
	w, err := workloadByName(name)
	if err != nil {
		return record{}, err
	}
	if seconds < 1 || (trace != 0 && trace != 1) {
		return record{}, fmt.Errorf("need --seconds >= 1 and --trace 0 or 1")
	}
	rec := record{
		Workload: name, Seed: seed, Seconds: seconds, Trace: trace,
		CPUs: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(),
		Commit: commit(), RatesOpsS: w.rates, LimitMS: w.limitMS, HeldOutSeeds: heldOutSeeds,
	}
	fmt.Fprintf(os.Stderr, "perfbench: %s seed %d, %ds, trace %d; %d cpus, GOMAXPROCS %d, %s, commit %s; rungs %v req/s\n",
		name, seed, seconds, trace, rec.CPUs, rec.GOMAXPROCS, rec.GoVersion, rec.Commit, w.rates)
	d := time.Duration(seconds) * time.Second
	var r *runResult
	if trace == 0 {
		r, err = endToEnd(w, seed, d)
	} else {
		r, err = traced(w, seed, d)
	}
	if err != nil {
		return record{}, err
	}
	rec.Errors, rec.Notes = r.errors, r.notes
	rec.Result = result{Correct: len(r.errors) == 0, Attempted: r.attempted, Failed: r.failed, Metrics: map[string]metric{}}
	for _, m := range r.metrics {
		if math.IsNaN(m.value) || math.IsInf(m.value, 0) {
			rec.Result.Correct = false
			rec.Errors = append(rec.Errors, fmt.Sprintf("metric %s is %v", m.name, m.value))
			m.value = -1
		}
		rec.Result.Metrics[m.name] = metric{Value: m.value, Unit: m.unit}
	}
	for _, n := range rec.Notes {
		fmt.Fprintln(os.Stderr, "perfbench: note:", n)
	}
	if err := writeRecord(out, rec); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: record not written:", err)
	}
	if r.layers != nil {
		path := filepath.Join(out, fmt.Sprintf("%s-seed%d-calls.jsonl", name, seed))
		if err := r.layers.write(path, r.window.start, r.window.end); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench: calls not written:", err)
		}
	}
	return rec, nil
}

func writeRecord(dir string, rec record) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	b, err := json.MarshalIndent(rec, "", "  ")
	if err != nil {
		return err
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-seed%d-trace%d.json", rec.Workload, rec.Seed, rec.Trace))
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// commit reads the checked-out commit from .git when there is one.
func commit() string {
	head, err := os.ReadFile(".git/HEAD")
	if err != nil {
		return "unknown"
	}
	ref, ok := strings.CutPrefix(strings.TrimSpace(string(head)), "ref: ")
	if !ok {
		return strings.TrimSpace(string(head))
	}
	if b, err := os.ReadFile(filepath.Join(".git", ref)); err == nil {
		return strings.TrimSpace(string(b))
	}
	packed, err := os.ReadFile(".git/packed-refs")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(packed), "\n") {
		if sha, r, ok := strings.Cut(line, " "); ok && r == ref {
			return sha
		}
	}
	return "unknown"
}
