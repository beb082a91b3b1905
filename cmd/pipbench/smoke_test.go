package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"strings"
	"testing"
)

// TestSmoke runs every workload, end-to-end and traced, with shortened
// windows, warm-ups and inputs, and checks that each run reports every
// metric BENCHMARK.json lists and that nothing failed. It makes no
// timing assertions.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the server")
	}
	root, err := repoRoot()
	if err != nil {
		t.Fatal(err)
	}
	sp, err := loadSpec(root)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	for _, trace := range []int{0, 1} {
		var stdout, stderr bytes.Buffer
		args := []string{"-dir", dir, "-workload", "all", "-seed", "5", "-seconds", "0.3",
			"-trace", fmt.Sprint(trace), "-smoke"}
		if code := run(args, &stdout, &stderr); code != 0 {
			t.Fatalf("trace %d: exit %d\nstdout:\n%s\nstderr:\n%s", trace, code, stdout.String(), stderr.String())
		}
		lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
		var results map[string]Result
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &results); err != nil {
			t.Fatalf("trace %d: last line is not the results: %v", trace, err)
		}
		want := sp.EndToEnd
		if trace == 1 {
			want = sp.PerLayer
		}
		for _, w := range sp.Workloads {
			res, ok := results[w.Name]
			if !ok {
				t.Fatalf("trace %d: no result for %s", trace, w.Name)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Errorf("trace %d: %s: correct %v, %d of %d failed", trace, w.Name, res.Correct, res.Failed, res.Attempted)
			}
			for _, m := range want {
				got, ok := res.Metrics[m.Name]
				if !ok || got.Unit != m.Unit {
					t.Errorf("trace %d: %s: metric %s missing or not in %s: %+v", trace, w.Name, m.Name, m.Unit, got)
				}
			}
			if trace == 0 && !strings.Contains(stdout.String(), w.Name+" failed_ratio 0 ratio\n") {
				t.Errorf("%s: failed_ratio is not 0", w.Name)
			}
		}
	}
}
