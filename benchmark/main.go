// Command benchmark is the repository's benchmark: four seeded
// workloads driven through the public surfaces (restore.Recover/Submit,
// service.Server.Handler()), every sampled output checked against a
// reuse-off oracle, eight end-to-end metrics from an untraced run and
// the per-layer metrics from a traced one. README.md in this directory
// documents the workloads, every metric and how they interact.
//
//	go run ./benchmark -workload all -seed 1            # end-to-end metrics
//	go run ./benchmark -workload all -seed 1 -trace 1   # … and per-layer metrics, span files
//	go run ./benchmark -workload warm-zipf -seed 7 -trace 0
//	go run ./benchmark -compare A.json B.json
//
// The last line of standard output is one JSON object — correct,
// attempted, failed, metrics — the form the PR driver reads.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
)

// defaultSeconds is the measured phase's time budget per run
// (BENCHMARK.json's run_seconds).
const defaultSeconds = 10

func main() {
	os.Exit(run(os.Args[1:]))
}

func run(args []string) int {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	var (
		workload = fs.String("workload", "all", "workload to run: "+strings.Join(workloadNames(), ", ")+", or all (each in its own process)")
		seed     = fs.Int64("seed", 1, "seed of the generated data and op streams")
		seconds  = fs.Float64("seconds", defaultSeconds, "time budget of the measured phase on the reference box; fixes the op counts")
		trace    = fs.Int("trace", 0, "1: traced run (one client, DFS wrapper installed) reporting the per-layer metrics; 0: untraced run reporting the end-to-end metrics; with -workload all, 1 runs both")
		quick    = fs.Bool("quick", false, "about 10× fewer ops, 4× less data, 3 passes, one setup (tests and smoke runs; not comparable with full runs)")
		outDir   = fs.String("out", filepath.Join("benchmark", "out"), "directory for result and span files")
		compare  = fs.Bool("compare", false, "compare two result files (or comma-separated sets of them): -compare A.json B.json")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "benchmark: -compare needs two result files")
			return 2
		}
		return compareFiles(os.Stdout, fs.Arg(0), fs.Arg(1))
	}
	if fs.NArg() > 0 {
		fmt.Fprintf(os.Stderr, "benchmark: unexpected argument %q\n", fs.Arg(0))
		return 2
	}
	if *seconds <= 0 {
		fmt.Fprintln(os.Stderr, "benchmark: -seconds must be positive")
		return 2
	}
	rc := runConfig{seed: *seed, seconds: *seconds, quick: *quick, traced: *trace != 0, outDir: *outDir}
	if err := os.MkdirAll(rc.outDir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}
	if *workload == "all" {
		return runAll(rc)
	}
	sp := findWorkload(*workload)
	if sp == nil {
		fmt.Fprintf(os.Stderr, "benchmark: unknown workload %q (have %s)\n", *workload, strings.Join(workloadNames(), ", "))
		return 2
	}
	// The load is sized to the reference box's two cores wherever it runs.
	runtime.GOMAXPROCS(workflowWorkers)
	res, err := runWorkload(sp, rc)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchmark: %s: %v\n", sp.name, err)
		return 1
	}
	if err := writeJSON(resultPath(rc, sp.name), res); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}
	res.print(os.Stdout)
	if !res.Correct {
		return 1
	}
	return 0
}

func workloadNames() []string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return names
}

func resultPath(rc runConfig, workload string) string {
	name := "result_" + workload
	if rc.traced {
		name += "_trace"
	}
	return filepath.Join(rc.outDir, name+".json")
}

func writeJSON(path string, v any) error {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// runAll runs every workload in a child process of its own — a clean
// heap and a peak RSS per workload — untraced, and with -trace traced
// as well, then gathers the result files into <out>/results.json.
func runAll(rc runConfig) int {
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}
	all := resultSet{Workloads: map[string]*result{}}
	code := 0
	for _, sp := range workloads {
		modes := []bool{false}
		if rc.traced {
			modes = append(modes, true)
		}
		for _, traced := range modes {
			child := rc
			child.traced = traced
			trace := "0"
			if traced {
				trace = "1"
			}
			args := []string{
				"-workload", sp.name,
				"-seed", fmt.Sprint(rc.seed),
				"-seconds", fmt.Sprint(rc.seconds),
				"-trace", trace,
				"-out", rc.outDir,
			}
			if rc.quick {
				args = append(args, "-quick")
			}
			cmd := exec.Command(self, args...)
			cmd.Stdout, cmd.Stderr = os.Stdout, os.Stderr
			if err := cmd.Run(); err != nil {
				var exit *exec.ExitError
				if !errors.As(err, &exit) {
					fmt.Fprintln(os.Stderr, "benchmark:", err)
				}
				code = 1
				continue
			}
			res, err := readResult(resultPath(child, sp.name))
			if err != nil {
				fmt.Fprintln(os.Stderr, "benchmark:", err)
				code = 1
				continue
			}
			all.merge(res)
		}
	}
	path := filepath.Join(rc.outDir, "results.json")
	if err := writeJSON(path, all); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}
	fmt.Printf("results written to %s\n", path)
	return code
}
