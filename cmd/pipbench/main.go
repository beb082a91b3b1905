// Command pipbench is PatchitPy's end-to-end benchmark. It builds
// ./cmd/patchitpy, drives the real binary with one of four seeded
// workloads, checks every answer, and prints each metric as
// "workload metric value unit" followed by a one-line JSON result.
//
//	pipbench --workload W --seed N [--seconds S] [--trace 0|1] [-out F]
//	pipbench run [-seed N] [-out F]          # every workload, end-to-end
//	pipbench trace [-workload W] [-seed N]   # per-layer metrics, in-process
//	pipbench compare A.json... -- B.json...  # do two sets of runs agree?
//
// The workloads, metrics and regression bounds are declared in the
// repository's BENCHMARK.json; pipbench reports exactly the metrics
// listed there in its JSON line (end-to-end ones with --trace 0,
// per-layer ones with --trace 1) and prints every other measurement it
// takes as a diagnostic line. It exits 1 when any check fails and 2 when
// the benchmark itself cannot run. README.md explains each workload and
// metric.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"time"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// spec is the part of BENCHMARK.json pipbench reads.
type spec struct {
	RunSeconds int `json:"run_seconds"`
	Workloads  []struct {
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

func loadSpec(root string) (*spec, error) {
	data, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return nil, err
	}
	var s spec
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	return &s, nil
}

// runners maps each workload to its end-to-end run.
var runners = map[string]func(context.Context, options, *report) error{
	"editor-cold": func(ctx context.Context, o options, r *report) error { return runEditor(ctx, o, r, true) },
	"editor-hot":  func(ctx context.Context, o options, r *report) error { return runEditor(ctx, o, r, false) },
	"edit-stream": runEditStream,
	"repo-audit":  runRepoAudit,
}

// tracers maps each workload to its in-process traced replay.
var tracers = map[string]func(context.Context, options, *report) error{
	"editor-cold": func(ctx context.Context, o options, r *report) error { return traceEditor(ctx, o, r, true) },
	"editor-hot":  func(ctx context.Context, o options, r *report) error { return traceEditor(ctx, o, r, false) },
	"edit-stream": traceEditStream,
	"repo-audit":  traceRepoAudit,
}

// runTimeout bounds one workload run, inside the three minutes a run may
// take.
const runTimeout = 170 * time.Second

// outFile is the -out format: the run's environment and one Result per
// workload.
type outFile struct {
	Env     map[string]string `json:"env"`
	Results map[string]Result `json:"results"`
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("pipbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	dir := fs.String("dir", ".bench_build", "directory for build outputs and generated inputs")
	workload := fs.String("workload", "", "workload to run, or \"all\"")
	seed := fs.Int64("seed", 1, "input seed")
	seconds := fs.Float64("seconds", 0, "timed window in seconds (0 = BENCHMARK.json run_seconds)")
	trace := fs.Int("trace", 0, "1 = replay in-process and report the per-layer metrics")
	out := fs.String("out", "", "also write the results to this JSON file")
	smoke := fs.Bool("smoke", false, "shorten warm-ups and inputs (for tests)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() > 0 {
		switch sub := fs.Arg(0); sub {
		case "compare":
			if err := compare(stdout, fs.Args()[1:]); err != nil {
				fmt.Fprintln(stderr, "pipbench:", err)
				if errors.Is(err, errDisagree) {
					return 1
				}
				return 2
			}
			return 0
		case "run", "trace":
			if sub == "trace" {
				*trace = 1
			}
			if err := fs.Parse(fs.Args()[1:]); err != nil {
				return 2
			}
			if *workload == "" {
				*workload = "all"
			}
		default:
			fmt.Fprintf(stderr, "pipbench: unknown command %q\n", sub)
			return 2
		}
	}
	if fs.NArg() > 0 || *workload == "" || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(stderr, "usage: pipbench --workload W --seed N [--seconds S] [--trace 0|1] | run | trace | compare")
		return 2
	}

	reports, results, err := runAll(*dir, *workload, *seed, *seconds, *trace == 1, *smoke, stdout, stderr)
	if err != nil {
		fmt.Fprintln(stderr, "pipbench:", err)
		return 2
	}
	if *out != "" {
		if err := writeOut(*out, reports, *seed, *trace == 1); err != nil {
			fmt.Fprintln(stderr, "pipbench:", err)
			return 2
		}
	}
	var line []byte
	if len(results) == 1 {
		line, err = json.Marshal(results[reports[0].workload])
	} else {
		line, err = json.Marshal(results)
	}
	if err != nil {
		fmt.Fprintln(stderr, "pipbench:", err)
		return 2
	}
	fmt.Fprintf(stdout, "%s\n", line)
	for _, r := range results {
		if !r.Correct {
			return 1
		}
	}
	return 0
}

// runAll builds the binary and runs the named workloads (or all of
// them), printing each one's metric lines as it finishes. It returns each
// workload's full report and its Result, which carries only the metrics
// BENCHMARK.json lists.
func runAll(dir, workload string, seed int64, seconds float64, trace, smoke bool,
	stdout, stderr io.Writer) ([]*report, map[string]Result, error) {
	root, err := repoRoot()
	if err != nil {
		return nil, nil, err
	}
	sp, err := loadSpec(root)
	if err != nil {
		return nil, nil, err
	}
	var names []string
	for _, w := range sp.Workloads {
		if workload == "all" || workload == w.Name {
			names = append(names, w.Name)
		}
	}
	if len(names) == 0 {
		return nil, nil, fmt.Errorf("unknown workload %q", workload)
	}
	if seconds <= 0 {
		seconds = float64(sp.RunSeconds)
	}
	metrics := sp.EndToEnd
	if trace {
		metrics = sp.PerLayer
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, nil, err
	}
	dir, err = filepath.Abs(dir)
	if err != nil {
		return nil, nil, err
	}
	bin, err := buildPatchitpy(root, dir)
	if err != nil {
		return nil, nil, err
	}
	o := options{seed: seed, window: time.Duration(seconds * float64(time.Second)), smoke: smoke, dir: dir, bin: bin}

	var reports []*report
	results := map[string]Result{}
	for _, w := range names {
		fn, ok := runners[w]
		if trace {
			fn, ok = tracers[w]
		}
		if !ok {
			return nil, nil, fmt.Errorf("BENCHMARK.json names workload %q, which pipbench does not implement", w)
		}
		rep := newReport(w)
		rep.set("window_s", o.window.Seconds(), "s")
		ctx, cancel := context.WithTimeout(context.Background(), runTimeout)
		err := fn(ctx, o, rep)
		cancel()
		if err != nil {
			return nil, nil, fmt.Errorf("%s: %w", w, err)
		}
		rep.writeLines(stdout)
		for _, p := range rep.problems {
			fmt.Fprintf(stderr, "pipbench: %s: %s\n", w, p)
		}
		res, err := rep.result(metricNames(metrics))
		if err != nil {
			return nil, nil, err
		}
		for _, m := range metrics {
			if got := res.Metrics[m.Name].Unit; got != m.Unit {
				return nil, nil, fmt.Errorf("%s: metric %s measured in %s, BENCHMARK.json says %s", w, m.Name, got, m.Unit)
			}
		}
		reports = append(reports, rep)
		results[w] = res
	}
	return reports, results, nil
}

func metricNames(ms []specMetric) []string {
	out := make([]string, len(ms))
	for i, m := range ms {
		out[i] = m.Name
	}
	return out
}

// writeOut writes the -out file: the environment the numbers were
// measured in and every metric each workload measured.
func writeOut(path string, reports []*report, seed int64, trace bool) error {
	results := map[string]Result{}
	for _, r := range reports {
		res, err := r.result(nil)
		if err != nil {
			return err
		}
		res.Metrics = r.metrics
		results[r.workload] = res
	}
	env := map[string]string{
		"nproc":  fmt.Sprint(runtime.NumCPU()),
		"go":     runtime.Version(),
		"goos":   runtime.GOOS + "/" + runtime.GOARCH,
		"seed":   fmt.Sprint(seed),
		"trace":  fmt.Sprint(trace),
		"commit": "unknown",
	}
	if root, err := repoRoot(); err == nil {
		cmd := exec.Command("git", "rev-parse", "HEAD")
		cmd.Dir = root
		if b, err := cmd.Output(); err == nil {
			env["commit"] = strings.TrimSpace(string(b))
		}
	}
	data, err := json.MarshalIndent(outFile{Env: env, Results: results}, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
