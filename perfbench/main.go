// Command perfbench is the repository's benchmark. Every run does the
// same two parts on corpora generated from its seed: the editor's batch
// job (import, verify, render, reopen) in a process of its own, then
// the read mix against an `authdex serve` child. The two workloads,
// skewed and flat, differ only in the corpora's author skew. Every
// answer is checked against a brute-force model of the corpus, and the
// run prints one JSON result line. See README.md.
//
//	perfbench --workload skewed --seed 1 --seconds 10 --trace 0
//	perfbench --workload flat --seed 1 --repeat 10
//
// Run it through run.sh from the repository root, which builds authdex
// and this command into .bench_build/bin first.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"maps"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"time"
)

// runEnv is what one run of a workload works with.
type runEnv struct {
	seed    int64
	seconds time.Duration
	zipf    float64 // author skew of the generated corpora
	authdex string  // the authdex binary
	dir     string  // scratch directory, removed after the run
	tally   *tally
	report  map[string]any
}

func (e *runEnv) path(name string) string { return filepath.Join(e.dir, name) }

func (e *runEnv) describe(key string, v any) { e.report[key] = v }

type partFn func(*runEnv) (map[string]metric, error)

// workloads maps each workload to the author skew of its corpora.
var workloads = map[string]float64{
	"skewed": skewZipf,
	"flat":   0,
}

// The parts of a run, untraced and traced, in the order they run.
var (
	parts       = []partFn{runCompile, runBrowse}
	tracedParts = []partFn{traceCompile, traceBrowse}
)

func main() {
	workload := flag.String("workload", "", "skewed or flat")
	seed := flag.Int64("seed", 1, "seed of the generated corpus and operations")
	seconds := flag.Int("seconds", 15, "length of the timed read loop")
	traceFlag := flag.Int("trace", 0, "1: replay the run's parts in-process and report per-layer metrics")
	repeat := flag.Int("repeat", 0, "run the workload this many times with seeds seed, seed+1, ... and print each end-to-end metric's quartiles and spread against its bound")
	job := flag.String("compile-job", "", "run the compile job on this work directory (used by the run itself)")
	flag.Parse()

	var err error
	switch {
	case *job != "":
		err = compileJob(*job)
	case *repeat > 0:
		err = repeatRuns(*workload, *seed, *seconds, *repeat)
	default:
		err = run(*workload, *seed, *seconds, *traceFlag == 1)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

// run performs one run and prints its report and result lines. A wrong
// answer or a failed operation makes it exit non-zero after printing.
func run(workload string, seed int64, seconds int, traced bool) error {
	zipf, ok := workloads[workload]
	if !ok {
		return fmt.Errorf("unknown workload %q (want skewed or flat)", workload)
	}
	if seconds < 1 {
		return fmt.Errorf("--seconds must be at least 1")
	}
	authdex, err := filepath.Abs(filepath.Join(".bench_build", "bin", "authdex"))
	if err != nil {
		return err
	}
	if _, err := os.Stat(authdex); err != nil {
		return fmt.Errorf("authdex binary missing; run through perfbench/run.sh: %w", err)
	}
	dir, err := filepath.Abs(filepath.Join(".bench_build", "work", workload+"-"+strconv.Itoa(os.Getpid())))
	if err != nil {
		return err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	env := &runEnv{
		seed:    seed,
		seconds: time.Duration(seconds) * time.Second,
		zipf:    zipf,
		authdex: authdex,
		dir:     dir,
		tally:   newTally(),
		report: map[string]any{
			"workload": workload, "seed": seed, "nproc": runtime.NumCPU(), "trace": traced,
		},
	}
	steps := parts
	if traced {
		steps = tracedParts
	}
	metrics := map[string]metric{}
	for _, fn := range steps {
		m, err := fn(env)
		if err != nil {
			return err
		}
		maps.Copy(metrics, m)
	}
	t := env.tally
	attempted, failed := t.totals()
	env.report["attempted"] = t.attempted
	env.report["failed"] = t.failed
	env.report["wrong_answers"] = t.wrong
	env.report["notes"] = t.notes
	res := result{Correct: t.wrong == 0, Attempted: attempted, Failed: failed, Metrics: metrics}
	rep, _ := json.Marshal(map[string]any{"report": env.report})
	fmt.Println(string(rep))
	line, _ := json.Marshal(res)
	fmt.Println(string(line))
	if !res.Correct || failed > 0 || attempted == 0 {
		return fmt.Errorf("%d wrong answers, %d of %d operations failed", t.wrong, failed, attempted)
	}
	return nil
}
