package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"github.com/dessertlab/patchitpy/internal/detect"
	"github.com/dessertlab/patchitpy/internal/diag/sarif"
	"github.com/dessertlab/patchitpy/internal/generator"
	"github.com/dessertlab/patchitpy/internal/oracle"
)

// auditArgs is the fleet auditor's command line, minus the directory.
var auditArgs = []string{"detect", "-taint", "-format", "sarif", "-no-summary"}

// writeRepo writes files under dir.
func writeRepo(dir string, files []repoFile) error {
	for _, f := range files {
		path := filepath.Join(dir, filepath.FromSlash(f.path))
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			return err
		}
		if err := os.WriteFile(path, []byte(f.text), 0o644); err != nil {
			return err
		}
	}
	return nil
}

// liveRules maps each file (as the CLI names it) to its sorted live rule
// IDs; files without live findings are absent.
type liveRules map[string]string

// sarifLive parses a SARIF log and returns the live (unsuppressed)
// results per file. Results outside files are an error.
func sarifLive(data []byte, files map[string]bool) (liveRules, error) {
	var log sarif.Log
	if err := json.Unmarshal(data, &log); err != nil {
		return nil, fmt.Errorf("parse SARIF: %w", err)
	}
	if log.Version != sarif.Version || len(log.Runs) > 1 {
		return nil, fmt.Errorf("SARIF version %q with %d runs", log.Version, len(log.Runs))
	}
	perFile := map[string][]string{}
	for _, run := range log.Runs {
		for _, r := range run.Results {
			if len(r.Locations) != 1 {
				return nil, fmt.Errorf("result %s has %d locations", r.RuleID, len(r.Locations))
			}
			uri := r.Locations[0].PhysicalLocation.ArtifactLocation.URI
			if !files[uri] {
				return nil, fmt.Errorf("result %s names unknown file %q", r.RuleID, uri)
			}
			if len(r.Suppressions) == 0 {
				perFile[uri] = append(perFile[uri], r.RuleID)
			}
		}
	}
	out := liveRules{}
	for f, ids := range perFile {
		sort.Strings(ids)
		out[f] = strings.Join(ids, ",")
	}
	return out, nil
}

// referenceLive scans every file in-process with the taint filter, as
// the CLI does, and returns the live rule IDs per file.
func referenceLive(names []string, files []repoFile) liveRules {
	d := detect.New(nil)
	out := liveRules{}
	for i, f := range files {
		var ids []string
		for _, fd := range d.ScanWith(f.text, detect.Options{TaintFilter: true, NoCache: true}) {
			if !fd.Suppressed {
				ids = append(ids, fd.Rule.ID)
			}
		}
		if len(ids) > 0 {
			sort.Strings(ids)
			out[names[i]] = strings.Join(ids, ",")
		}
	}
	return out
}

// checkAudit compares one run's SARIF with the in-process reference.
func checkAudit(data []byte, inputs map[string]bool, ref liveRules) error {
	got, err := sarifLive(data, inputs)
	if err != nil {
		return err
	}
	for f, want := range ref {
		if got[f] != want {
			return fmt.Errorf("%s: live rules %q, in-process %q", f, got[f], want)
		}
	}
	if len(got) != len(ref) {
		return fmt.Errorf("%d files with live results, in-process %d", len(got), len(ref))
	}
	return nil
}

// auditQuality sets detect_precision and detect_recall per file: a file
// is truly vulnerable when any embedded sample is.
func auditQuality(rep *report, samples []generator.Sample, names []string, files []repoFile, live liveRules) {
	orc := oracle.New()
	var tp, fp, fn float64
	for i, f := range files {
		truth := false
		for _, b := range f.bases {
			truth = truth || orc.Vulnerable(samples[b])
		}
		_, det := live[names[i]]
		switch {
		case det && truth:
			tp++
		case det:
			fp++
		case truth:
			fn++
		}
	}
	rep.set("detect_precision", ratio(tp, tp+fp), "ratio")
	rep.set("detect_recall", ratio(tp, tp+fn), "ratio")
}

// runRepoAudit runs repo-audit: back-to-back CLI audits of a seeded
// repository, each run checked against the in-process reference.
func runRepoAudit(ctx context.Context, o options, rep *report) error {
	samples, err := loadCorpus()
	if err != nil {
		return err
	}
	n := repoFiles
	if o.smoke {
		n = 40
	}
	files := repoLayout(o.seed, samples, n)
	work := filepath.Join(o.dir, "work", fmt.Sprintf("audit-%d-%d", o.seed, os.Getpid()))
	repo, empty := filepath.Join(work, "repo"), filepath.Join(work, "empty")
	defer os.RemoveAll(work)
	if err := writeRepo(repo, files); err != nil {
		return err
	}
	if err := writeRepo(empty, []repoFile{{path: "empty.py"}}); err != nil {
		return err
	}
	names := make([]string, len(files))
	inputs := map[string]bool{}
	var repoBytes int
	for i, f := range files {
		names[i] = filepath.Join(repo, filepath.FromSlash(f.path))
		inputs[names[i]] = true
		repoBytes += len(f.text)
	}
	ref := referenceLive(names, files)

	// Set-up: a CLI run that scans one empty file is process start plus
	// engine construction. Each is scaled by a calibration run before it.
	var setup, setupRaw []float64
	for i := 0; i < setupRuns; i++ {
		speed := speedNow(1)
		r, err := runCLI(ctx, o.bin, append(auditArgs, empty+"/...")...)
		if err != nil {
			return err
		}
		if r.exit != 0 {
			return fmt.Errorf("audit of an empty file exited %d: %s", r.exit, r.stderr)
		}
		setup = append(setup, r.wall.Seconds()*speed)
		setupRaw = append(setupRaw, r.wall.Seconds())
	}
	rep.set("setup_s", median(setup), "s")
	rep.set("setup_s.raw", median(setupRaw), "s")

	// One untimed run warms the page cache and is the run every later
	// one must reproduce byte for byte.
	args := append(auditArgs, repo+"/...")
	first, err := runCLI(ctx, o.bin, args...)
	if err != nil {
		return err
	}
	if first.exit > 1 {
		return fmt.Errorf("audit exited %d: %s", first.exit, first.stderr)
	}
	if err := checkAudit(first.stdout, inputs, ref); err != nil {
		rep.invalid("first audit: %v", err)
	}
	auditQuality(rep, samples, names, files, ref)

	// Each run is scaled by the mean of the calibrations on either side
	// of it (see timedWindow).
	var walls, raw, speeds []float64
	var cpu, cpuRaw time.Duration
	var peak int64
	before := speedNow(calibRuns)
	start := time.Now()
	for len(walls) == 0 || time.Since(start) < o.window {
		r, err := runCLI(ctx, o.bin, args...)
		if err != nil {
			return err
		}
		after := speedNow(calibRuns)
		speed := (before + after) / 2
		before = after
		rep.attempted++
		switch {
		case r.exit > 1:
			rep.fail("audit exited %d: %s", r.exit, r.stderr)
			continue
		case !bytes.Equal(r.stdout, first.stdout):
			rep.fail("audit output differs from the first run: %v", checkAudit(r.stdout, inputs, ref))
			continue
		}
		walls = append(walls, ms(r.wall)*speed)
		raw = append(raw, ms(r.wall))
		speeds = append(speeds, speed)
		cpu += time.Duration(float64(r.cpu) * speed)
		cpuRaw += r.cpu
		peak = max(peak, r.maxRSS)
	}
	sort.Float64s(walls)
	sort.Float64s(raw)
	scanned := float64(max(len(walls)*len(files), 1))
	rep.set("latency_p50_ms", quantile(walls, 0.50), "ms")
	rep.set("latency_p90_ms", quantile(walls, 0.90), "ms")
	rep.set("latency_p50_ms.raw", quantile(raw, 0.50), "ms")
	rep.set("latency_p90_ms.raw", quantile(raw, 0.90), "ms")
	rep.set("cpu_us_per_op", us(cpu)/scanned, "us")
	rep.set("cpu_us_per_op.raw", us(cpuRaw)/scanned, "us")
	rep.set("peak_rss_mb", float64(peak)/(1<<20), "MiB")
	rep.set("machine.speed", median(speeds), "ratio")
	rep.set("scan_mb_per_s", ratio(float64(repoBytes)/1e6, quantile(raw, 0.50)/1e3), "MB/s")
	rep.set("repo_bytes", float64(repoBytes), "B")
	rep.set("repo_files", float64(len(files)), "count")
	rep.set("failed_ratio", ratio(float64(rep.failed), float64(rep.attempted)), "ratio")
	return nil
}
