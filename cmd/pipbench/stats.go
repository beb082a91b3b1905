package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sort"
	"time"
)

// quantile returns the nearest-rank q-quantile of sorted: the smallest
// value with at least a q share of the sample at or below it.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}

// sortedCopy returns xs sorted ascending, leaving xs untouched.
func sortedCopy(xs []float64) []float64 {
	out := append([]float64(nil), xs...)
	sort.Float64s(out)
	return out
}

// median is the nearest-rank median of xs.
func median(xs []float64) float64 { return quantile(sortedCopy(xs), 0.5) }

// quartiles returns the first quartile, median and third quartile of xs
// by the method of Python's statistics.quantiles(xs, n=4) (the default
// "exclusive" method), so spreads read the same as in tools that use it.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	d := sortedCopy(xs)
	switch len(d) {
	case 0:
		return 0, 0, 0
	case 1:
		return d[0], d[0], d[0]
	}
	m := len(d) + 1
	cut := func(i int) float64 {
		j := min(max(i*m/4, 1), len(d)-1)
		delta := i*m - j*4
		return (d[j-1]*float64(4-delta) + d[j]*float64(delta)) / 4
	}
	return cut(1), cut(2), cut(3)
}

// ms and us convert a duration to fractional milliseconds and
// microseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// ratio is num/den, or 0 when den is 0.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// Metric is one reported number with its unit.
type Metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// Result is one workload's outcome: the object printed as the last line
// of a single-workload run.
type Result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]Metric `json:"metrics"`
}

// report accumulates one workload's metrics and failures.
type report struct {
	workload  string
	metrics   map[string]Metric
	attempted int
	failed    int
	problems  []string // correctness failures, for stderr
}

func newReport(workload string) *report {
	return &report{workload: workload, metrics: map[string]Metric{}}
}

func (r *report) set(name string, value float64, unit string) {
	r.metrics[name] = Metric{Value: value, Unit: unit}
}

// fail records a correctness failure; at most a few are kept verbatim.
func (r *report) fail(format string, args ...any) {
	r.failed++
	if len(r.problems) < 8 {
		r.problems = append(r.problems, fmt.Sprintf(format, args...))
	}
}

// invalid records a failed run-level check that is not a request.
func (r *report) invalid(format string, args ...any) {
	r.problems = append(r.problems, fmt.Sprintf(format, args...))
}

// result returns the workload's Result carrying only the named metrics,
// or an error naming the first one the run did not produce.
func (r *report) result(names []string) (Result, error) {
	res := Result{
		Correct:   r.failed == 0 && len(r.problems) == 0,
		Attempted: r.attempted,
		Failed:    r.failed,
		Metrics:   map[string]Metric{},
	}
	for _, n := range names {
		m, ok := r.metrics[n]
		if !ok {
			return res, fmt.Errorf("%s: metric %s was not measured", r.workload, n)
		}
		res.Metrics[n] = m
	}
	return res, nil
}

// writeLines prints every metric as "workload metric value unit", sorted
// by name.
func (r *report) writeLines(w io.Writer) {
	names := make([]string, 0, len(r.metrics))
	for n := range r.metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := r.metrics[n]
		fmt.Fprintf(w, "%s %s %s %s\n", r.workload, n, formatValue(m.Value), m.Unit)
	}
	fmt.Fprintf(w, "%s attempted %d count\n", r.workload, r.attempted)
	fmt.Fprintf(w, "%s failed %d count\n", r.workload, r.failed)
}

func formatValue(v float64) string {
	b, err := json.Marshal(v)
	if err != nil {
		return fmt.Sprint(v)
	}
	return string(b)
}
