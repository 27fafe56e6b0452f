// Command bench is the repository's performance benchmark: four
// windowed-wordcount workloads driven through the real engine, edge,
// wire, transport and window code from pre-generated seeded inputs,
// every run checked against an oracle the bench computes itself. See
// README.md for the workloads, the metrics and how they interact.
//
// One workload, the form the benchmark driver runs (the last line of
// standard output is the result):
//
//	go run -C bench . -workload wc-dist-zipf -seed 42 -seconds 20 -trace 0
//
// Every workload, one child process each, as one JSON document:
//
//	go run -C bench . [-runs 10] [-trace 1] > a.json
//
// Two such documents against each metric's bound:
//
//	go run -C bench . -compare a.json b.json
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"runtime"
)

func main() {
	var (
		name    = flag.String("workload", "", "run this one workload in-process and print its result as the last line (default: every workload, one child process each)")
		seed    = flag.Uint64("seed", 42, "selects the generated input stream")
		seconds = flag.Float64("seconds", 20, "how long one run measures: half goes to the open leg, a tenth to each closed repetition")
		traceOn = flag.Int("trace", 0, "1: the traced run, printing the per-layer metrics instead of the end-to-end ones")
		traced  = flag.Bool("traced", false, "same as -trace 1")
		rates   = flag.String("rates", "", "traced runs only: also sweep open legs at these fractions of seed capacity, e.g. 0.5,0.8,0.95")
		runs    = flag.Int("runs", 1, "without -workload: runs per workload, on seeds seed, seed+1, …")
		compare = flag.Bool("compare", false, "compare two summary documents: -compare a.json b.json")
	)
	flag.Parse()
	if *compare {
		if flag.NArg() != 2 {
			fatal(fmt.Errorf("-compare takes two files, got %d", flag.NArg()))
		}
		if err := compareFiles(os.Stdout, flag.Arg(0), flag.Arg(1)); err != nil {
			fatal(err)
		}
		return
	}
	sweep, err := parseRates(*rates)
	if err != nil {
		fatal(err)
	}
	if *seconds <= 0 {
		fatal(fmt.Errorf("-seconds must be positive"))
	}
	if *name == "" {
		if err := runAll(*seed, *seconds, *traceOn == 1 || *traced, *rates, *runs); err != nil {
			fatal(err)
		}
		return
	}
	wl, err := workloadByName(*name)
	if err != nil {
		fatal(err)
	}
	// Four is the deployment's width (spout, forwarder or partials,
	// finals, collector); beyond it extra processors only add scheduler
	// placement noise.
	runtime.GOMAXPROCS(min(runtime.NumCPU(), 4))
	rep, info := runWorkload(runConfig{wl: wl, seed: *seed, seconds: *seconds,
		trace: *traceOn == 1 || *traced, setups: 5, rates: sweep, traceDir: "out"})
	printJSON(info)
	printJSON(rep)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "bench:", err)
	os.Exit(2)
}

func printJSON(v any) {
	b, err := json.Marshal(v)
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(b))
}

// summary is the document a run over every workload prints, and the
// input of -compare.
type summary struct {
	Bench     string                     `json:"bench"`
	NProc     int                        `json:"nproc"`
	Go        string                     `json:"go"`
	Seed      uint64                     `json:"seed"`
	Seconds   float64                    `json:"seconds"`
	Trace     bool                       `json:"trace"`
	Workloads map[string]workloadSummary `json:"workloads"`
	// Claim is what this run claims to have improved. The benchmark
	// itself never claims anything.
	Claim *string `json:"claim"`
}

type workloadSummary struct {
	Why  string       `json:"why"`
	Runs []runSummary `json:"runs"`
}

type runSummary struct {
	runInfo
	report
}

// runAll runs every workload in a child process of its own, one after
// the other, so set-up time and peak memory are per workload.
func runAll(seed uint64, seconds float64, trace bool, rates string, runs int) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	sum := summary{Bench: "pkgstream/bench", NProc: runtime.NumCPU(), Go: runtime.Version(),
		Seed: seed, Seconds: seconds, Trace: trace, Workloads: map[string]workloadSummary{}}
	for _, wl := range workloads {
		ws := workloadSummary{Why: wl.why}
		for i := 0; i < max(1, runs); i++ {
			args := []string{"-workload", wl.name, "-seed", fmt.Sprint(seed + uint64(i)), "-seconds", fmt.Sprint(seconds)}
			if trace {
				args = append(args, "-trace", "1")
			}
			if rates != "" {
				args = append(args, "-rates", rates)
			}
			cmd := exec.Command(self, args...)
			cmd.Stderr = os.Stderr
			out, err := cmd.Output()
			if err != nil {
				return fmt.Errorf("%s: %w", wl.name, err)
			}
			lines := bytes.Split(bytes.TrimSpace(out), []byte("\n"))
			if len(lines) < 2 {
				return fmt.Errorf("%s: child printed %d lines, want info and result", wl.name, len(lines))
			}
			var rs runSummary
			if err := json.Unmarshal(lines[len(lines)-2], &rs.runInfo); err != nil {
				return fmt.Errorf("%s: info line: %w", wl.name, err)
			}
			if err := json.Unmarshal(lines[len(lines)-1], &rs.report); err != nil {
				return fmt.Errorf("%s: result line: %w", wl.name, err)
			}
			ws.Runs = append(ws.Runs, rs)
		}
		sum.Workloads[wl.name] = ws
	}
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	return enc.Encode(sum)
}
