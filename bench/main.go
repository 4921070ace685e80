// Command bench is the repository's one benchmark: it drives full
// relevance-feedback sessions through a qserve child process over real
// HTTP and reports session-level latency, throughput, cost and retrieval
// quality, plus (with -trace 1) one set of numbers per layer underneath.
//
//	bash bench/run.sh --workload corel_session --seed 7 --seconds 10 --trace 0
//	go run -C bench . -out out/results.json    # all four workloads, both metric sets
//	go run -C bench . -smoke                   # the same grid in a few seconds
//	go run -C bench . -compare old.json new.json
//	go run -C bench . -report out/results.json # spread table (REPEATABILITY.md)
//	go run -C bench . -manifest                # regenerate ../BENCHMARK.json
//
// (go run -C runs in bench/, so relative paths above start there.)
//
// See README.md in this directory for the metrics and the workloads.
package main

import (
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
)

// options are the command line.
type options struct {
	workload  string
	seed      int64
	seconds   float64
	trace     int
	qserveBin string
	smoke     bool
	repeat    int
	out       string
	compare   bool
	report    string
	manifest  bool
}

func main() {
	var o options
	flag.StringVar(&o.workload, "workload", "", "run this one workload and print the driver's JSON result as the last line (empty = all workloads)")
	flag.Int64Var(&o.seed, "seed", 2003, "seed of the request stream (the stored collection is fixed)")
	flag.Float64Var(&o.seconds, "seconds", runSeconds, "length of the measured phase")
	flag.IntVar(&o.trace, "trace", 0, "with -workload: 0 prints the end-to-end metrics, 1 runs the layer pass too and prints the per-layer metrics")
	flag.StringVar(&o.qserveBin, "qserve", "", "prebuilt qserve binary (empty = go build ./cmd/qserve into the scratch directory)")
	flag.BoolVar(&o.smoke, "smoke", false, "run the shrunken grid: 300 images, 20 sessions per workload, every session oracle-checked")
	flag.IntVar(&o.repeat, "repeat", 1, "all-workloads mode: run the whole suite this many times back to back")
	flag.StringVar(&o.out, "out", "", "all-workloads mode: write the result file (benchenv header + every run) here")
	flag.BoolVar(&o.compare, "compare", false, "compare two result files: -compare old.json new.json; exits 1 on a regressed or unresolved row")
	flag.StringVar(&o.report, "report", "", "print the min/median/max/spread table of a result file's repeated runs as markdown")
	flag.BoolVar(&o.manifest, "manifest", false, "print BENCHMARK.json as the harness's tables define it")
	flag.Parse()
	if err := run(o); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

func run(o options) error {
	switch {
	case o.manifest:
		fmt.Println(benchmarkJSON())
		return nil
	case o.compare:
		if flag.NArg() != 2 {
			return fmt.Errorf("-compare takes two result files")
		}
		clean, err := compare(os.Stdout, flag.Arg(0), flag.Arg(1))
		if err == nil && !clean {
			err = fmt.Errorf("at least one row regressed or is unresolved")
		}
		return err
	case o.report != "":
		return report(os.Stdout, o.report)
	}

	root, err := repoRoot()
	if err != nil {
		return err
	}
	// Everything the harness writes besides its results lives in one
	// directory per process under the checkout's build directory.
	workDir := filepath.Join(root, ".bench_build", "tmp", strconv.Itoa(os.Getpid()))
	if err := os.MkdirAll(workDir, 0o755); err != nil {
		return err
	}
	defer os.RemoveAll(workDir)
	if o.qserveBin == "" {
		o.qserveBin = filepath.Join(workDir, "qserve")
		build := exec.Command("go", "build", "-o", o.qserveBin, "./cmd/qserve")
		build.Dir = root
		if msg, err := build.CombinedOutput(); err != nil {
			return fmt.Errorf("building qserve: %v\n%s", err, msg)
		}
	}
	cfg := runConfig{
		qserveBin: o.qserveBin,
		workDir:   workDir,
		outDir:    filepath.Join(root, "bench", "out"),
		seed:      o.seed,
		seconds:   o.seconds,
		trace:     o.trace != 0,
	}
	grid := workloads()
	if o.smoke {
		grid = smokeWorkloads()
	}

	if o.workload != "" {
		w, err := findWorkload(grid, o.workload)
		if err != nil {
			return err
		}
		res, err := runWorkload(w, cfg)
		if err != nil {
			return err
		}
		printRun(os.Stdout, res)
		fmt.Println(contractLine(res, cfg.trace))
		if res.Failed > 0 {
			return fmt.Errorf("%s: %d of %d operations failed", w.name, res.Failed, res.Attempted)
		}
		return nil
	}

	// All workloads: every run carries both metric sets.
	cfg.trace = true
	file := resultFile{Env: newBenchEnv(cfg)}
	failed := 0
	for i := 0; i < o.repeat; i++ {
		for _, w := range grid {
			res, err := runWorkload(w, cfg)
			if err != nil {
				return err
			}
			printRun(os.Stdout, res)
			failed += res.Failed
			file.Runs = append(file.Runs, res)
			file.Env.Commit = res.commit
		}
	}
	if o.out != "" {
		if err := writeResultFile(o.out, file); err != nil {
			return err
		}
	}
	if failed > 0 {
		return fmt.Errorf("%d operations failed", failed)
	}
	return nil
}

// repoRoot finds the checkout: the nearest directory at or above the
// working directory that holds cmd/qserve.
func repoRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "cmd", "qserve", "main.go")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("no cmd/qserve at or above the working directory: run from inside the repository")
		}
		dir = parent
	}
}
