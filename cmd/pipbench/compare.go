package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"text/tabwriter"
)

// errDisagree reports that two sets of runs differ by more than a bound.
var errDisagree = errors.New("the two sets of runs disagree")

// compare reads two sets of -out files, separated by "--", and prints for
// each (workload, metric) both sides' median and quartiles and whether
// the medians agree within the metric's BENCHMARK.json bound. Metrics
// without a bound are printed for reference only.
func compare(w io.Writer, args []string) error {
	var a, b []string
	side := &a
	for _, arg := range args {
		if arg == "--" {
			side = &b
			continue
		}
		*side = append(*side, arg)
	}
	if len(a) == 0 || len(b) == 0 {
		return errors.New("usage: pipbench compare A.json... -- B.json...")
	}
	root, err := repoRoot()
	if err != nil {
		return err
	}
	sp, err := loadSpec(root)
	if err != nil {
		return err
	}
	bounds := map[string]specMetric{}
	for _, m := range sp.EndToEnd {
		bounds[m.Name] = m
	}
	va, err := readRuns(a)
	if err != nil {
		return err
	}
	vb, err := readRuns(b)
	if err != nil {
		return err
	}
	var keys []runKey
	for k := range va {
		if _, ok := vb[k]; ok {
			keys = append(keys, k)
		}
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i].String() < keys[j].String() })
	tw := tabwriter.NewWriter(w, 0, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tA q1\tA median\tA q3\tB q1\tB median\tB q3\tchange\tbound\tverdict")
	disagree := 0
	for _, k := range keys {
		a1, am, a3 := quartiles(va[k])
		b1, bm, b3 := quartiles(vb[k])
		change := 0.0
		if am != 0 {
			change = (bm - am) / math.Abs(am)
		}
		bound, verdict := "-", "reference"
		if m, ok := bounds[k.metric]; ok {
			bound = fmt.Sprintf("%.3f", m.Bound)
			verdict = "agree"
			if math.Abs(change) > m.Bound {
				verdict = "DISAGREE"
				disagree++
			}
		}
		fmt.Fprintf(tw, "%s\t%s\t%.4g\t%.4g\t%.4g\t%.4g\t%.4g\t%.4g\t%+.3f\t%s\t%s\n",
			k.workload, k.metric, a1, am, a3, b1, bm, b3, change, bound, verdict)
	}
	if err := tw.Flush(); err != nil {
		return err
	}
	if disagree > 0 {
		return fmt.Errorf("%w on %d metrics", errDisagree, disagree)
	}
	return nil
}

// runKey names one metric of one workload.
type runKey struct{ workload, metric string }

func (k runKey) String() string { return k.workload + " " + k.metric }

// readRuns collects every metric value across the given -out files.
func readRuns(paths []string) (map[runKey][]float64, error) {
	out := map[runKey][]float64{}
	for _, p := range paths {
		data, err := os.ReadFile(p)
		if err != nil {
			return nil, err
		}
		var f outFile
		if err := json.Unmarshal(data, &f); err != nil {
			return nil, fmt.Errorf("%s: %w", p, err)
		}
		for wl, res := range f.Results {
			for name, m := range res.Metrics {
				k := runKey{wl, name}
				out[k] = append(out[k], m.Value)
			}
		}
	}
	return out, nil
}
