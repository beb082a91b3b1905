package main

import (
	"encoding/json"
	"fmt"
	"regexp"
	"runtime"
	"strings"
	"sync"
)

// calibRefMs is the calibration task's time on the reference machine, a
// two-core x86-64 virtual machine, when nothing else loads it. Timing
// metrics are reported scaled to that machine (see speedNow).
const calibRefMs = 20.0

// calibText is a fixed Python-like text for the calibration task.
var calibText = func() string {
	var b strings.Builder
	for i := 0; b.Len() < 24<<10; i++ {
		fmt.Fprintf(&b, "import os\nfrom app import models_%d\n\ndef handler_%d(request, cmd):\n"+
			"    # look up the record\n    value = request.args.get(\"q%d\")\n"+
			"    os.system(cmd + value)\n    return models_%d.load(value, timeout=%d)\n\n", i%7, i, i, i%7, i)
	}
	return b.String()
}()

var calibPatterns = []*regexp.Regexp{
	regexp.MustCompile(`os\.system\(\s*([^)]*)\)`),
	regexp.MustCompile(`(?m)^\s*(?:from\s+\S+\s+)?import\s+(\w+)`),
	regexp.MustCompile(`request\.(?:args|form)\.get\(["'](\w+)["']\)`),
	regexp.MustCompile(`def\s+(\w+)\((.*?)\):`),
}

// calibTask is a fixed piece of work built only from the
// standard library (regular expressions, JSON, strings), so its speed
// reflects the machine and not the program under test.
func calibTask() {
	type rec struct {
		Rule  string `json:"rule"`
		Start int    `json:"start"`
		End   int    `json:"end"`
		Text  string `json:"text"`
	}
	for round := 0; round < 9; round++ {
		var recs []rec
		for _, re := range calibPatterns {
			for _, m := range re.FindAllStringSubmatchIndex(calibText, -1) {
				recs = append(recs, rec{Rule: re.String(), Start: m[0], End: m[1], Text: calibText[m[0]:m[1]]})
			}
		}
		data, err := json.Marshal(recs)
		if err != nil {
			panic(err) // plain structs always marshal
		}
		var back []rec
		if err := json.Unmarshal(data, &back); err != nil {
			panic(err)
		}
	}
}

// speedNow runs the calibration task n times and returns the factor that
// scales a time measured now to the reference machine: calibRefMs over
// the median timing. A collection first keeps the benchmark's own
// garbage out of the timings.
func speedNow(n int) float64 {
	runtime.GC()
	return calibRefMs / median(calibrate(n))
}

// calibrate times n rounds of calibTask and returns the timings in ms.
// A round runs the task on every CPU at once and lasts until the slowest
// copy finishes, because every workload keeps the whole box busy (client
// and server, or the CLI's workers) and contention can hit one CPU
// harder than another.
func calibrate(n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = ms(timed(func() {
			var wg sync.WaitGroup
			for c := 0; c < runtime.NumCPU(); c++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					calibTask()
				}()
			}
			wg.Wait()
		}))
	}
	return out
}
