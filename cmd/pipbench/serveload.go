package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"sort"
	"strings"
	"sync/atomic"
	"time"

	"github.com/dessertlab/patchitpy/internal/core"
	"github.com/dessertlab/patchitpy/internal/editor"
	"github.com/dessertlab/patchitpy/internal/generator"
	"github.com/dessertlab/patchitpy/internal/obs"
	"github.com/dessertlab/patchitpy/internal/oracle"
)

// conns is the number of keep-alive connections the load uses: nproc on
// the two-core reference box, so the client never oversubscribes it.
const conns = 2

// setupRuns is how many times set-up is timed; setup_s is the median.
const setupRuns = 11

// Offered rates and per-request latency limits of the serve workloads.
// The rates keep the server below about a third of the box even when a
// neighbour slows the machine to a third of its speed, so the window
// measures service and not a queue that a slow minute built.
const (
	coldRate     = 600 // requests per second
	hotRate      = 1200
	editSessions = 16
	editRate     = 4 // keystrokes per second per session

	coldLimit = 10 * time.Millisecond
	hotLimit  = 5 * time.Millisecond
	editLimit = 16 * time.Millisecond // one 60 Hz frame
)

// Warm-up bounds. editor-cold warms until every cache evicts, which must
// happen within coldWarmMax or the run is invalid; editor-hot warms for a
// fixed hotWarm.
const (
	coldWarmMax = 60 * time.Second
	hotWarm     = 5 * time.Second
)

// options configures one workload run.
type options struct {
	seed   int64
	window time.Duration // the timed window
	smoke  bool          // shortened warm-ups and inputs, for tests
	dir    string        // build outputs and generated inputs
	bin    string        // the patchitpy binary
}

// startMeasuredServer times setupRuns starts of the server, each scaled
// by a calibration run just before it, and returns the last one running.
// setup_s is the median scaled start time.
func startMeasuredServer(o options, rep *report) (*server, error) {
	var times, raw []float64
	var srv *server
	for i := 0; i < setupRuns; i++ {
		if srv != nil {
			if err := srv.stop(); err != nil {
				return nil, fmt.Errorf("stop server: %w", err)
			}
		}
		speed := speedNow(1)
		s, d, err := startServer(o.bin)
		if err != nil {
			return nil, err
		}
		srv = s
		times = append(times, d.Seconds()*speed)
		raw = append(raw, d.Seconds())
	}
	rep.set("setup_s", median(times), "s")
	rep.set("setup_s.raw", median(raw), "s")
	return srv, nil
}

// verdict is what a detector response says about one sample: the
// binary judgement and the fired rules in finding order.
type verdict struct {
	vulnerable bool
	rules      string
}

// referenceVerdicts scans every corpus sample in-process; served answers
// must match them.
func referenceVerdicts(samples []generator.Sample) []verdict {
	engine := core.New()
	out := make([]verdict, len(samples))
	for i, s := range samples {
		rep := engine.Analyze(s.Code)
		ids := make([]string, len(rep.Findings))
		for j, f := range rep.Findings {
			ids[j] = f.Rule.ID
		}
		out[i] = verdict{vulnerable: rep.Vulnerable, rules: strings.Join(ids, ",")}
	}
	return out
}

// wireFinding and wireResp are the parts of a protocol response the
// checks read.
type wireFinding struct {
	RuleID string `json:"ruleId"`
	Line   int    `json:"line"`
}

type wireResp struct {
	OK         bool          `json:"ok"`
	Error      string        `json:"error"`
	Vulnerable bool          `json:"vulnerable"`
	Findings   []wireFinding `json:"findings"`
	Patched    string        `json:"patched"`
	Session    string        `json:"session"`
	Inc        *struct {
		Full    bool `json:"full"`
		Spliced bool `json:"spliced"`
	} `json:"inc"`
	Stats *core.StatsDTO `json:"stats"`
}

func (w wireResp) verdict() verdict {
	ids := make([]string, len(w.Findings))
	for i, f := range w.Findings {
		ids[i] = f.RuleID
	}
	return verdict{vulnerable: w.Vulnerable, rules: strings.Join(ids, ",")}
}

// findingSet renders findings as a sorted "rule@line" list.
func (w wireResp) findingSet() string {
	out := make([]string, len(w.Findings))
	for i, f := range w.Findings {
		out[i] = fmt.Sprintf("%s@%d", f.RuleID, f.Line)
	}
	sort.Strings(out)
	return strings.Join(out, ",")
}

// decodeOK parses a reply, failing on transport errors, non-2xx statuses
// and ok:false.
func decodeOK(status int, body []byte, err error) (wireResp, error) {
	var w wireResp
	if err != nil {
		return w, err
	}
	if status < 200 || status > 299 {
		return w, fmt.Errorf("status %d: %s", status, bytes.TrimSpace(body))
	}
	if err := json.Unmarshal(body, &w); err != nil {
		return w, fmt.Errorf("decode reply: %w", err)
	}
	if !w.OK {
		return w, fmt.Errorf("ok:false: %s", w.Error)
	}
	return w, nil
}

// stripTrace removes the per-request "trace" field, the only part of a
// reply that may differ between identical requests.
func stripTrace(body []byte) []byte {
	const key = `,"trace":"`
	i := bytes.Index(body, []byte(key))
	if i < 0 {
		return body
	}
	j := bytes.IndexByte(body[i+len(key):], '"')
	if j < 0 {
		return body
	}
	out := append([]byte(nil), body[:i]...)
	return append(out, body[i+len(key)+j+1:]...)
}

// quality accumulates detection and repair outcomes per base sample,
// judged against the oracle: the first verdict seen for a sample counts.
type quality struct {
	orc      *oracle.Oracle
	samples  []generator.Sample
	detected map[int]bool
	repaired map[int]bool
}

func newQuality(samples []generator.Sample) *quality {
	return &quality{orc: oracle.New(), samples: samples, detected: map[int]bool{}, repaired: map[int]bool{}}
}

func (q *quality) observe(base int, vulnerable bool) {
	if _, seen := q.detected[base]; !seen {
		q.detected[base] = vulnerable
	}
}

// observePatch records a patch reply; repair counts as in the paper's
// Table III: detected, truth-vulnerable, and the oracle's markers gone.
func (q *quality) observePatch(base int, vulnerable bool, patched string) {
	if _, seen := q.repaired[base]; !seen {
		s := q.samples[base]
		q.repaired[base] = vulnerable && q.orc.Vulnerable(s) && q.orc.Repaired(s, patched)
	}
}

// report sets detect_precision and detect_recall and, when patch replies
// were seen, repair_rate over truth-vulnerable samples.
func (q *quality) report(rep *report) {
	var tp, fp, fn, vuln, fixed float64
	for base, det := range q.detected {
		truth := q.orc.Vulnerable(q.samples[base])
		switch {
		case det && truth:
			tp++
		case det:
			fp++
		case truth:
			fn++
		}
	}
	for base, ok := range q.repaired {
		if q.orc.Vulnerable(q.samples[base]) {
			vuln++
			if ok {
				fixed++
			}
		}
	}
	rep.set("detect_precision", ratio(tp, tp+fp), "ratio")
	rep.set("detect_recall", ratio(tp, tp+fn), "ratio")
	rep.set("quality_samples", float64(len(q.detected)), "count")
	if len(q.repaired) > 0 {
		rep.set("repair_rate", ratio(fixed, vuln), "ratio")
	}
}

// cacheEvictions reads whether the analyze, fix and http caches have all
// evicted, from the stats and metrics verbs.
func cacheEvictions(c *client) (bool, error) {
	status, body, err := c.do(request{path: "/v1/stats"})
	st, err := decodeOK(status, body, err)
	if err != nil {
		return false, fmt.Errorf("stats: %w", err)
	}
	status, body, err = c.do(request{path: "/v1/metrics"})
	if _, err := decodeOK(status, body, err); err != nil {
		return false, fmt.Errorf("metrics: %w", err)
	}
	var m struct {
		Metrics obs.Snapshot `json:"metrics"`
	}
	if err := json.Unmarshal(body, &m); err != nil {
		return false, fmt.Errorf("metrics: %w", err)
	}
	httpEvictions := m.Metrics.Counters[obs.MetricCacheEvictions+`{cache="http"}`]
	return st.Stats.Analyze.Evictions > 0 && st.Stats.Fix.Evictions > 0 && httpEvictions > 0, nil
}

// runEditor runs editor-cold (cold) or editor-hot.
func runEditor(ctx context.Context, o options, rep *report, cold bool) error {
	corpus, err := loadCorpus()
	if err != nil {
		return err
	}
	ref := referenceVerdicts(corpus)
	srv, err := startMeasuredServer(o, rep)
	if err != nil {
		return err
	}
	defer srv.stop()
	clients := newClients(srv.base, conns)
	defer func() {
		for _, c := range clients {
			c.close()
		}
	}()

	// Warm-up: the same traffic, closed loop, from an input stream of
	// its own so the measured requests do not depend on how many the
	// warm-up sent.
	var next func() editorReq
	warmStart := time.Now()
	var warmErrs atomic.Int64
	check := func(r request, status int, body []byte, err error) {
		if _, err := decodeOK(status, body, err); err != nil {
			warmErrs.Add(1)
		}
	}
	var stop func(c *client) bool
	if cold {
		next = newColdStream(o.seed, "w", corpus).next
		var lastPoll time.Time
		evicting := false
		limit := coldWarmMax
		if o.smoke {
			limit = 300 * time.Millisecond
		}
		stop = func(c *client) bool {
			if evicting || time.Since(warmStart) > limit {
				return true
			}
			if c == clients[0] && time.Since(lastPoll) > 250*time.Millisecond {
				lastPoll = time.Now()
				ok, err := cacheEvictions(c)
				if err != nil {
					warmErrs.Add(1)
				}
				evicting = ok
			}
			return evicting
		}
		defer func() {
			if !evicting && !o.smoke {
				rep.invalid("warm-up: caches not all evicting after %s", coldWarmMax)
			}
		}()
	} else {
		next = newHotStream(o.seed, "w", streamHotWarm, corpus).next
		limit := hotWarm
		if o.smoke {
			limit = 200 * time.Millisecond
		}
		stop = func(*client) bool { return time.Since(warmStart) > limit }
	}
	runClosedLoop(ctx, clients, func() request {
		r := next()
		return request{path: "/v1/" + r.verb, body: r.body}
	}, check, stop)
	rep.set("warmup_s", time.Since(warmStart).Seconds(), "s")
	if n := warmErrs.Load(); n > 0 {
		rep.invalid("warm-up: %d failed requests", n)
	}

	// The timed window.
	rate, limit := float64(hotRate), hotLimit
	var stream func() editorReq
	if cold {
		rate, limit = coldRate, coldLimit
		stream = newColdStream(o.seed, "", corpus).next
	} else {
		stream = newHotStream(o.seed, "", streamHot, corpus).next
	}
	var reqs []editorReq
	period := time.Duration(float64(time.Second) / rate)
	pieces, rss, err := timedWindow(ctx, srv, clients, o.window, func(start, end time.Time) *scheduler {
		sch := newScheduler(end, conns)
		sch.addLane(start, period, false)
		return sch
	}, func(s *sample) request {
		r := stream()
		s.item = len(reqs)
		reqs = append(reqs, r)
		return request{path: "/v1/" + r.verb, body: r.body}
	})
	if err != nil {
		return err
	}

	// Checks: every reply must match the in-process verdict for its base
	// sample (which also makes every later flow agree with the first);
	// editor-hot additionally requires identical requests to get
	// byte-identical replies.
	got := samples(pieces)
	rep.attempted = len(got)
	q := newQuality(corpus)
	firstBody := map[string][]byte{}
	for _, s := range got {
		r := reqs[s.item]
		w, err := decodeOK(s.status, s.body, s.err)
		if err == nil && w.verdict() != ref[r.base] {
			err = fmt.Errorf("verdict %+v, in-process %+v", w.verdict(), ref[r.base])
		}
		if err == nil && !cold && !strings.HasPrefix(r.code, "# pipbench ") {
			key := r.verb + "\x00" + r.code
			b := stripTrace(s.body)
			if first, seen := firstBody[key]; !seen {
				firstBody[key] = b
			} else if !bytes.Equal(first, b) {
				err = fmt.Errorf("reply differs from an earlier identical request")
			}
		}
		if err != nil {
			s.failed = true
			rep.fail("%s sample %d: %v", r.verb, r.base, err)
			continue
		}
		q.observe(r.base, w.Vulnerable)
		// The paper's repair figure is editor-cold's; editor-hot's
		// patches are mostly cached repeats.
		if cold && r.verb == "patch" {
			q.observePatch(r.base, w.Vulnerable, w.Patched)
		}
	}
	windowMetrics(rep, pieces, limit, rate, rss)
	rep.set("failed_ratio", ratio(float64(rep.failed), float64(rep.attempted)), "ratio")
	q.report(rep)
	return nil
}

// runEditStream runs edit-stream: editSessions buffer sessions typing
// editRate keystrokes per second each, a session's next edit waiting for
// its previous reply.
func runEditStream(ctx context.Context, o options, rep *report) error {
	corpus, err := loadCorpus()
	if err != nil {
		return err
	}
	n := editSessions
	if o.smoke {
		n = 4
	}
	bufs := sessionBuffers(o.seed, corpus, n)
	srv, err := startMeasuredServer(o, rep)
	if err != nil {
		return err
	}
	defer srv.stop()
	clients := newClients(srv.base, conns)
	defer func() {
		for _, c := range clients {
			c.close()
		}
	}()

	// Warm-up: open every session (a full scan each), untimed.
	ids := make([]string, n)
	cur := make([]string, n)
	last := make([][]byte, n)
	rngs := make([]*rand.Rand, n)
	for i, b := range bufs {
		body, _ := json.Marshal(core.Request{Code: b.text})
		status, reply, err := clients[i%conns].do(request{path: "/v1/open", body: body})
		w, err := decodeOK(status, reply, err)
		if err != nil {
			return fmt.Errorf("open session %d: %w", i, err)
		}
		ids[i], cur[i], last[i] = w.Session, b.text, reply
		rngs[i] = subRand(o.seed, streamEdits+int64(i))
	}

	// The timed window: session i's keystrokes are due every 1/editRate
	// seconds, the sessions' phases spread evenly over one period.
	period := time.Second / editRate
	pieces, rss, err := timedWindow(ctx, srv, clients, o.window, func(start, end time.Time) *scheduler {
		sch := newScheduler(end, conns)
		for i := 0; i < n; i++ {
			sch.addLane(start.Add(period*time.Duration(i)/time.Duration(n)), period, true)
		}
		return sch
	}, func(s *sample) request {
		l := s.lane
		a, b, repl := nextEdit(rngs[l], cur[l])
		te := editor.SpanEdit(cur[l], a, b, repl)
		// The buffer moves on as soon as the edit is sent; a failed edit
		// is counted below and fails every later check of its session.
		cur[l] = cur[l][:a] + repl + cur[l][b:]
		body, _ := json.Marshal(core.Request{Session: ids[l], Edits: []editor.TextEdit{te}})
		return request{path: "/v1/edit", body: body}
	})
	if err != nil {
		return err
	}

	got := samples(pieces)
	full, spliced := 0, 0
	for _, s := range got {
		w, err := decodeOK(s.status, s.body, s.err)
		if err != nil {
			s.failed = true
			rep.fail("edit session %d: %v", s.lane, err)
			continue
		}
		if w.Inc != nil && w.Inc.Full {
			full++
		}
		if w.Inc != nil && w.Inc.Spliced {
			spliced++
		}
		last[s.lane] = s.body
	}
	rep.attempted = len(got)
	windowMetrics(rep, pieces, editLimit, float64(n*editRate), rss)
	rep.set("inc.full_ratio", ratio(float64(full), float64(len(got))), "ratio")
	rep.set("inc.splice_ratio", ratio(float64(spliced), float64(len(got))), "ratio")

	// Checks: a cold detect of each final buffer must find exactly what
	// the session's last reply reported.
	for i := range bufs {
		rep.attempted += 2
		lastW, _ := decodeOK(http.StatusOK, last[i], nil)
		body, _ := json.Marshal(core.Request{Code: cur[i]})
		status, reply, err := clients[0].do(request{path: "/v1/detect", body: body})
		w, err := decodeOK(status, reply, err)
		if err == nil && w.findingSet() != lastW.findingSet() {
			err = fmt.Errorf("cold detect %q, last edit %q", w.findingSet(), lastW.findingSet())
		}
		if err != nil {
			rep.fail("session %d final text: %v", i, err)
		}
		body, _ = json.Marshal(core.Request{Session: ids[i]})
		status, reply, err = clients[0].do(request{path: "/v1/close", body: body})
		if _, err := decodeOK(status, reply, err); err != nil {
			rep.fail("close session %d: %v", i, err)
		}
	}
	rep.set("failed_ratio", ratio(float64(rep.failed), float64(rep.attempted)), "ratio")
	return nil
}
