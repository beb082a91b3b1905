package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"math/rand"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"time"

	"github.com/dessertlab/patchitpy/internal/core"
	"github.com/dessertlab/patchitpy/internal/detect"
	"github.com/dessertlab/patchitpy/internal/diag"
	"github.com/dessertlab/patchitpy/internal/diag/sarif"
	"github.com/dessertlab/patchitpy/internal/docsession"
	"github.com/dessertlab/patchitpy/internal/editor"
	"github.com/dessertlab/patchitpy/internal/lineindex"
	"github.com/dessertlab/patchitpy/internal/obs"
	"github.com/dessertlab/patchitpy/internal/patch"
	"github.com/dessertlab/patchitpy/internal/pyast"
	"github.com/dessertlab/patchitpy/internal/pytoken"
	"github.com/dessertlab/patchitpy/internal/serve"
	"github.com/dessertlab/patchitpy/internal/taint"
	"github.com/dessertlab/patchitpy/internal/workpool"
)

// The traced run replays a workload's seeded inputs in-process, one
// request at a time, and times the calls into each layer's public
// functions from the benchmark's own code; it adds no tracing inside the
// program. Layer names are module names.
//
// Serve workloads run the real serve.Server behind pipbench's own
// http.Server, whose handler wrapper times Handler().ServeHTTP. A mirror
// core.PatchitPy with the same cache budget is fed exactly the requests
// the server's engine saw (the response-cache misses), so its caches
// evolve identically and its Handle time stands for the engine's share of
// the handler. Leaf layers (detect, patch, taint, pytoken, pyast,
// lineindex) are timed on separate probe calls over the sources the
// mirror engine actually computed.
//
// Self times telescope: transport = wall - handler, serve = handler -
// Handle, core = Handle - leaves. Each is clamped at zero, and
// unattributed = wall - the sum of the clamped self times, so for every
// request the attributed self times plus unattributed equal the wall
// time. A negative unattributed share means the mirrors overstate a
// layer.

// tally accumulates the traced measurements.
type tally struct {
	samples map[string][]float64 // per-operation values
	total   map[string]time.Duration
	bytes   map[string]int

	considered, skipped uint64 // prefilter decisions of first scans
	wall, unattributed  time.Duration
}

func newTally() *tally {
	return &tally{samples: map[string][]float64{}, total: map[string]time.Duration{}, bytes: map[string]int{}}
}

func (t *tally) add(name string, v float64) { t.samples[name] = append(t.samples[name], v) }

// addBytes accumulates d spent on n bytes for a per-byte rate.
func (t *tally) addBytes(name string, d time.Duration, n int) {
	t.total[name] += d
	t.bytes[name] += n
}

// timed runs fn and returns its duration.
func timed(fn func()) time.Duration {
	t0 := time.Now()
	fn()
	return time.Since(t0)
}

// attribute accounts one request: selves are self times recorded under
// their sample names, clamped at zero; leaves are layer times already
// recorded elsewhere. Whatever of wall they do not cover is unattributed.
func (t *tally) attribute(wall time.Duration, selves map[string]time.Duration, leaves ...time.Duration) {
	rest := wall
	for name, d := range selves {
		d = max(d, 0)
		t.add(name, us(d))
		rest -= d
	}
	for _, d := range leaves {
		rest -= d
	}
	t.wall += wall
	t.unattributed += rest
	t.add("unattributed_us", us(rest))
}

// probe times the per-source layers on src: a scan on a fresh Prepared
// (artifacts plus rules), a second scan on the same Prepared (rules
// only), tokenizing, the line index, parsing, taint analysis and
// patching with the scan's findings. It returns the first scan's time and
// findings and the patch and taint times.
func (t *tally) probe(d *detect.Detector, src string) (scan, patchT, taintT time.Duration, findings []detect.Finding) {
	n := len(src)
	s0 := d.Stats()
	prep := d.Prepare(src)
	scan = timed(func() { findings = d.ScanPrepared(prep, detect.Options{NoCache: true}) })
	s1 := d.Stats()
	rules := timed(func() { d.ScanPrepared(prep, detect.Options{NoCache: true}) })
	t.considered += s1.RulesConsidered - s0.RulesConsidered
	t.skipped += s1.RulesSkipped - s0.RulesSkipped
	t.add("detect.scan_us", us(scan))
	t.addBytes("detect.scan", scan, n)
	t.addBytes("detect.rules", rules, n)
	t.addBytes("pytoken.tokenize", timed(func() { pytoken.TokenizeAll(src) }), n)
	t.addBytes("lineindex.build", timed(func() { lineindex.New(src) }), n)
	t.addBytes("pyast.parse", timed(func() { pyast.Parse(src) }), n)
	taintT = timed(func() { taint.Analyze(src) })
	t.addBytes("taint.analyze", taintT, n)
	patchT = timed(func() { patch.Apply(src, findings) })
	t.add("patch.apply_us", us(patchT))
	return scan, patchT, taintT, findings
}

// coreNew times engine construction as serve does it.
func (t *tally) coreNew() {
	for i := 0; i < 5; i++ {
		t.add("core.new_ms", ms(timed(func() { newEngine(nil) })))
	}
}

// report writes the tally's metrics into rep. A sample named x_us
// reports x_p50_us (and x_p90_us when x is named in p90); one named x_ms
// reports its median as x_ms; any other is a ratio reported as its
// median. Per-byte layers report ns/B.
func (t *tally) report(rep *report, p90 ...string) {
	for name, xs := range t.samples {
		xs = sortedCopy(xs)
		base, isUS := strings.CutSuffix(name, "_us")
		switch {
		case isUS:
			rep.set(base+"_p50_us", quantile(xs, 0.5), "us")
			if slices.Contains(p90, base) {
				rep.set(base+"_p90_us", quantile(xs, 0.9), "us")
			}
		case strings.HasSuffix(name, "_ms"):
			rep.set(name, quantile(xs, 0.5), "ms")
		default:
			rep.set(name, quantile(xs, 0.5), "ratio")
		}
	}
	for name, d := range t.total {
		rep.set(name+"_ns_per_byte", float64(d)/float64(max(t.bytes[name], 1)), "ns/B")
	}
	if n := t.bytes["detect.scan"]; n > 0 {
		rep.set("detect.artifacts_ns_per_byte", float64(t.total["detect.scan"]-t.total["detect.rules"])/float64(n), "ns/B")
		rep.set("detect.rules_run_per_kb", float64(t.considered-t.skipped)/(float64(n)/1024), "count/KiB")
	}
	rep.set("detect.prefilter_skip_ratio", ratio(float64(t.skipped), float64(t.considered)), "ratio")
	rep.set("unattributed_share", ratio(float64(t.unattributed), float64(t.wall)), "ratio")
}

// newEngine builds an engine the way `patchitpy serve -cache 8` does,
// attached to reg when reg is non-nil.
func newEngine(reg *obs.Registry) *core.PatchitPy {
	e := core.New()
	e.SetCacheBytes(8 << 20)
	e.SetAnalyzers(core.DefaultAnalyzers(e))
	if reg != nil {
		e.SetObs(reg)
	}
	return e
}

func enabledRegistry() *obs.Registry {
	reg := obs.NewRegistry()
	reg.Enable()
	return reg
}

// cacheLog is a slog.Handler that keeps the response-cache outcome of
// the last request record the server logged.
type cacheLog struct {
	mu   sync.Mutex
	last string
}

func (h *cacheLog) Enabled(context.Context, slog.Level) bool { return true }
func (h *cacheLog) WithAttrs([]slog.Attr) slog.Handler       { return h }
func (h *cacheLog) WithGroup(string) slog.Handler            { return h }

func (h *cacheLog) Handle(_ context.Context, r slog.Record) error {
	if r.Message != "request" {
		return nil
	}
	cache := ""
	r.Attrs(func(a slog.Attr) bool {
		if a.Key == "cache" {
			cache = a.Value.String()
		}
		return true
	})
	h.mu.Lock()
	h.last = cache
	h.mu.Unlock()
	return nil
}

func (h *cacheLog) take() string {
	h.mu.Lock()
	defer h.mu.Unlock()
	c := h.last
	h.last = ""
	return c
}

// handled is what the handler wrapper observed of one request.
type handled struct {
	d     time.Duration
	cache string
}

// traceServer is the real serve.Server mounted in pipbench's own
// http.Server behind a timing wrapper.
type traceServer struct {
	engine *core.PatchitPy
	reg    *obs.Registry
	srv    *serve.Server
	hs     *http.Server
	served chan error
	log    *cacheLog
	timed  chan handled
	client *client
}

func newTraceServer() (*traceServer, error) {
	ts := &traceServer{reg: enabledRegistry(), log: &cacheLog{}, timed: make(chan handled, 1)}
	logger := slog.New(ts.log)
	ts.engine = newEngine(ts.reg)
	ts.engine.SetLogger(logger)
	srv, err := serve.New(serve.Config{Engine: ts.engine, Obs: ts.reg, Logger: logger})
	if err != nil {
		return nil, err
	}
	ts.srv = srv
	h := srv.Handler()
	ts.hs = &http.Server{Handler: http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		t0 := time.Now()
		h.ServeHTTP(w, r)
		d := time.Since(t0)
		// The response is flushed only after this wrapper returns, so
		// the client reads this before it can send again.
		ts.timed <- handled{d: d, cache: ts.log.take()}
	})}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	ts.served = make(chan error, 1)
	go func() { ts.served <- ts.hs.Serve(ln) }()
	ts.client = newClients("http://"+ln.Addr().String(), 1)[0]
	return ts, nil
}

func (ts *traceServer) close() error {
	ts.client.close()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := ts.hs.Shutdown(ctx)
	if serr := <-ts.served; !errors.Is(serr, http.ErrServerClosed) && err == nil {
		err = serr
	}
	if serr := ts.srv.Shutdown(ctx); err == nil {
		err = serr
	}
	return err
}

// call sends r over loopback and returns the client wall time, what the
// handler wrapper saw, and the reply.
func (ts *traceServer) call(r request) (time.Duration, handled, []byte, error) {
	t0 := time.Now()
	status, body, err := ts.client.do(r)
	wall := time.Since(t0)
	var h handled
	select {
	case h = <-ts.timed:
	case <-time.After(5 * time.Second):
		if err == nil {
			err = errors.New("handler wrapper did not report")
		}
	}
	if err == nil && status != http.StatusOK {
		err = fmt.Errorf("status %d: %s", status, bytes.TrimSpace(body))
	}
	return wall, h, body, err
}

// direct serves r without the network or the wrapper (warm-up) and
// returns the cache outcome and reply.
func (ts *traceServer) direct(r request) (string, []byte, error) {
	rec := httptest.NewRecorder()
	ts.srv.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, r.path, bytes.NewReader(r.body)))
	if rec.Code != http.StatusOK {
		return ts.log.take(), nil, fmt.Errorf("status %d", rec.Code)
	}
	return ts.log.take(), rec.Body.Bytes(), nil
}

// httpCache reads the response cache's hit and eviction counters and the
// queue-wait histogram from the server's registry.
func (ts *traceServer) httpCache() (hits, evictions float64, wait obs.HistogramSnapshot) {
	s := ts.reg.Snapshot()
	return s.Counters[obs.MetricCacheHits+`{cache="http"}`],
		s.Counters[obs.MetricCacheEvictions+`{cache="http"}`],
		s.Histograms[obs.MetricHTTPQueueWait]
}

// mirrorHandle runs req on the mirror engine and returns its Handle time,
// its encoded reply, the encode time, and whether the analyze and fix
// caches computed.
func mirrorHandle(m *core.PatchitPy, req core.Request) (h, enc time.Duration, body []byte, analyzed, fixed bool) {
	c0 := m.CacheStats()
	var resp core.Response
	h = timed(func() { resp = m.Handle(context.Background(), req) })
	c1 := m.CacheStats()
	enc = timed(func() { body, _ = json.Marshal(resp) })
	body = append(body, '\n')
	return h, enc, body, c1.Analyze.Misses > c0.Analyze.Misses, c1.Fix.Misses > c0.Fix.Misses
}

// sameReply compares a server reply with the mirror's encoding, ignoring
// the per-request trace ID.
func sameReply(server, mirror []byte) bool {
	return bytes.Equal(stripTrace(server), stripTrace(mirror))
}

// traceEditor replays editor-cold or editor-hot in-process.
func traceEditor(ctx context.Context, o options, rep *report, cold bool) error {
	samples, err := loadCorpus()
	if err != nil {
		return err
	}
	t := newTally()
	t.coreNew()
	ts, err := newTraceServer()
	if err != nil {
		return err
	}
	defer ts.close()
	mirror := newEngine(enabledRegistry())
	probeDet := detect.New(nil)

	// Warm-up, as in the timed run, without the network: misses go to
	// the mirror too so its caches track the server engine's.
	var warm func() editorReq
	if cold {
		warm = newColdStream(o.seed, "w", samples).next
	} else {
		warm = newHotStream(o.seed, "w", streamHotWarm, samples).next
	}
	warmStart := time.Now()
	for i := 0; ctx.Err() == nil; i++ {
		if cold {
			cs := ts.engine.CacheStats()
			_, ev, _ := ts.httpCache()
			if (cs.Analyze.Evictions > 0 && cs.Fix.Evictions > 0 && ev > 0) || o.smoke && i > 0 {
				break
			}
			// The traced warm-up is serial and feeds the mirror too, so
			// it may take twice the timed run's limit.
			if time.Since(warmStart) > 2*coldWarmMax {
				return errors.New("traced warm-up: caches not all evicting")
			}
		} else if time.Since(warmStart) > hotWarm || o.smoke && i > 0 {
			break
		}
		// Poll the caches every few hundred requests only.
		for j := 0; j < 256; j++ {
			r := warm()
			req := request{path: "/v1/" + r.verb, body: r.body}
			cache, _, err := ts.direct(req)
			if err != nil {
				return fmt.Errorf("traced warm-up: %w", err)
			}
			if cache != "hit" {
				mirror.Handle(ctx, core.Request{Cmd: r.verb, Code: r.code})
			}
		}
	}
	rep.set("warmup_s", time.Since(warmStart).Seconds(), "s")

	var stream func() editorReq
	if cold {
		stream = newColdStream(o.seed, "", samples).next
	} else {
		stream = newHotStream(o.seed, "", streamHot, samples).next
	}
	hits0, ev0, wait0 := ts.httpCache()
	cs0 := ts.engine.CacheStats()
	start := time.Now()
	for time.Since(start) < o.window && ctx.Err() == nil {
		r := stream()
		rep.attempted++
		wall, h, body, err := ts.call(request{path: "/v1/" + r.verb, body: r.body})
		if err != nil {
			rep.fail("%s: %v", r.verb, err)
			continue
		}
		t.add("serve.handler_us", us(h.d))
		if h.cache == "hit" {
			t.attribute(wall, map[string]time.Duration{"transport.self_us": wall - h.d, "serve.hit_us": h.d})
			continue
		}
		hd, enc, mbody, analyzed, fixed := mirrorHandle(mirror, core.Request{Cmd: r.verb, Code: r.code})
		if !sameReply(body, mbody) {
			rep.fail("%s sample %d: server and mirror replies differ", r.verb, r.base)
		}
		t.add("serve.encode_us", us(enc))
		t.add("core."+r.verb+"_us", us(hd))
		var leaves []time.Duration
		if analyzed || fixed {
			scan, patchT, _, _ := t.probe(probeDet, r.code)
			if analyzed {
				leaves = append(leaves, scan)
			}
			if fixed {
				leaves = append(leaves, patchT)
			}
		}
		core := hd
		for _, d := range leaves {
			core -= d
		}
		t.attribute(wall, map[string]time.Duration{
			"transport.self_us": wall - h.d,
			"serve.self_us":     h.d - hd,
			"core.self_us":      core,
		}, leaves...)
	}
	n := float64(rep.attempted)
	hits1, ev1, wait1 := ts.httpCache()
	cs1 := ts.engine.CacheStats()
	t.report(rep, "serve.handler")
	rep.set("serve.queue_wait_mean_us", 1e6*ratio(wait1.Sum-wait0.Sum, float64(wait1.Count-wait0.Count)), "us")
	rep.set("resultcache.http.hit_ratio", ratio(hits1-hits0, n), "ratio")
	rep.set("resultcache.http.evictions_per_op", ratio(ev1-ev0, n), "count")
	rep.set("resultcache.analyze.evictions_per_op", ratio(float64(cs1.Analyze.Evictions-cs0.Analyze.Evictions), n), "count")
	rep.set("resultcache.fix.evictions_per_op", ratio(float64(cs1.Fix.Evictions-cs0.Fix.Evictions), n), "count")
	rep.set("resultcache.analyze.hit_ratio", hitRatio(cs0.Analyze.Hits, cs0.Analyze.Misses, cs1.Analyze.Hits, cs1.Analyze.Misses), "ratio")
	rep.set("resultcache.fix.hit_ratio", hitRatio(cs0.Fix.Hits, cs0.Fix.Misses, cs1.Fix.Hits, cs1.Fix.Misses), "ratio")
	return nil
}

// hitRatio is Δhits / Δlookups between two counter readings.
func hitRatio(h0, m0, h1, m1 uint64) float64 {
	return ratio(float64(h1-h0), float64(h1-h0+m1-m0))
}

// traceEditStream replays edit-stream in-process, one edit at a time
// over the sessions in turn.
func traceEditStream(ctx context.Context, o options, rep *report) error {
	samples, err := loadCorpus()
	if err != nil {
		return err
	}
	t := newTally()
	t.coreNew()
	ts, err := newTraceServer()
	if err != nil {
		return err
	}
	defer ts.close()
	mirror := newEngine(enabledRegistry())
	probeDet := detect.New(nil)
	mgr := docsession.NewManager(detect.New(nil), editSessions)
	rescanDet := detect.New(nil)

	n := editSessions
	if o.smoke {
		n = 4
	}
	type sess struct {
		id, mgrID string
		prep      *detect.Prepared
		prev      []detect.Finding
		cur       string
		rng       *rand.Rand
	}
	ss := make([]*sess, n)
	for i, b := range sessionBuffers(o.seed, samples, n) {
		body, _ := json.Marshal(core.Request{Code: b.text})
		_, _, reply, err := ts.call(request{path: "/v1/open", body: body})
		w, err := decodeOK(http.StatusOK, reply, err)
		if err != nil {
			return fmt.Errorf("open session %d: %w", i, err)
		}
		mirror.Handle(ctx, core.Request{Cmd: "open", Code: b.text})
		s := &sess{id: w.Session, mgrID: mgr.Open(ctx, b.text).ID, cur: b.text, rng: subRand(o.seed, streamEdits+int64(i))}
		s.prep = rescanDet.Prepare(b.text)
		s.prev = rescanDet.ScanPrepared(s.prep, detect.Options{NoCache: true})
		ss[i] = s
	}
	var full, spliced int
	var dirty []float64
	var rerun, replayed float64
	_, _, wait0 := ts.httpCache()
	start := time.Now()
	for k := 0; time.Since(start) < o.window && ctx.Err() == nil; k++ {
		l := k % n
		s := ss[l]
		a, b, repl := nextEdit(s.rng, s.cur)
		te := editor.SpanEdit(s.cur, a, b, repl)
		next := s.cur[:a] + repl + s.cur[b:]
		rep.attempted++
		body, _ := json.Marshal(core.Request{Session: s.id, Edits: []editor.TextEdit{te}})
		wall, h, reply, err := ts.call(request{path: "/v1/edit", body: body})
		if err != nil {
			rep.fail("edit session %d: %v", l, err)
			continue
		}
		s.cur = next
		hd, enc, mbody, _, _ := mirrorHandle(mirror, core.Request{Cmd: "edit", Session: s.id, Edits: []editor.TextEdit{te}})
		if !sameReply(reply, mbody) {
			rep.fail("edit session %d: server and mirror replies differ", l)
		}
		var edit, rescan time.Duration
		var ferr error
		edit = timed(func() { _, ferr = mgr.Edit(ctx, s.mgrID, []editor.TextEdit{te}) })
		var found []detect.Finding
		var st detect.RescanStats
		rescan = timed(func() {
			if ferr == nil {
				ferr = s.prep.ApplyEdits([]editor.TextEdit{te})
			}
			if ferr == nil {
				found, st = rescanDet.RescanEdited(s.prep, s.prev, detect.Options{NoCache: true})
			}
		})
		if ferr != nil {
			rep.fail("mirror edit session %d: %v", l, ferr)
			continue
		}
		s.prev = found
		var ref []detect.Finding
		t.add("detect.full_scan_us", us(timed(func() { ref = probeDet.ScanWith(next, detect.Options{NoCache: true}) })))
		if !sameFindings(found, ref) {
			rep.fail("edit session %d: incremental rescan differs from a full scan", l)
		}
		t.add("serve.handler_us", us(h.d))
		t.add("serve.encode_us", us(enc))
		t.add("core.edit_us", us(hd))
		t.add("docsession.edit_us", us(edit))
		t.add("detect.rescan_us", us(rescan))
		if st.Full {
			full++
		}
		if st.MaskSpliced {
			spliced++
		}
		dirty = append(dirty, float64(st.DirtyBytes))
		rerun += float64(st.RulesRerun)
		replayed += float64(st.RulesReplayed)
		t.probe(probeDet, next)
		t.attribute(wall, map[string]time.Duration{
			"transport.self_us":  wall - h.d,
			"serve.self_us":      h.d - hd,
			"core.self_us":       hd - edit,
			"docsession.self_us": edit - rescan,
		}, rescan)
	}
	_, _, wait1 := ts.httpCache()
	t.report(rep, "serve.handler", "docsession.edit")
	edits := float64(len(dirty))
	rep.set("serve.queue_wait_mean_us", 1e6*ratio(wait1.Sum-wait0.Sum, float64(wait1.Count-wait0.Count)), "us")
	rep.set("detect.rescan_full_ratio", ratio(float64(full), edits), "ratio")
	rep.set("detect.rescan_splice_ratio", ratio(float64(spliced), edits), "ratio")
	rep.set("detect.rescan_dirty_bytes_p50", quantile(sortedCopy(dirty), 0.5), "B")
	rep.set("detect.rescan_rules_rerun_mean", ratio(rerun, edits), "count")
	rep.set("detect.rescan_rules_replayed_mean", ratio(replayed, edits), "count")
	return nil
}

// sameFindings reports whether two scans found the same rules at the same
// spans.
func sameFindings(a, b []detect.Finding) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].Rule.ID != b[i].Rule.ID || a[i].Start != b[i].Start || a[i].End != b[i].End || a[i].Line != b[i].Line {
			return false
		}
	}
	return true
}

// traceRepoAudit replays repo-audit in-process: the CLI's analyzer over
// every file, its SARIF writer, and its worker pool.
func traceRepoAudit(ctx context.Context, o options, rep *report) error {
	samples, err := loadCorpus()
	if err != nil {
		return err
	}
	t := newTally()
	t.coreNew()
	n := repoFiles
	if o.smoke {
		n = 40
	}
	files := repoLayout(o.seed, samples, n)

	work := filepath.Join(o.dir, "work", fmt.Sprintf("trace-audit-%d-%d", o.seed, os.Getpid()))
	defer os.RemoveAll(work)
	if err := writeRepo(work, []repoFile{{path: "empty.py"}}); err != nil {
		return err
	}
	for i := 0; i < 5; i++ {
		r, err := runCLI(ctx, o.bin, append(auditArgs, work+"/...")...)
		if err != nil {
			return err
		}
		t.add("cli.setup_ms", ms(r.wall))
	}

	// The CLI's analyzer: the taint filter on, the scan cache in use. A
	// fresh detector per pass keeps every scan a miss, as in one CLI run.
	opt := detect.Options{TaintFilter: true}
	probeDet, taintDet := detect.New(nil), detect.New(nil)
	var taintRan, taintScans int
	start := time.Now()
	for pass := 0; pass == 0 || time.Since(start) < o.window; pass++ {
		if ctx.Err() != nil {
			return ctx.Err()
		}
		a := detect.New(nil).Analyzer(opt)
		out := make([]diag.FileFindings, len(files))
		for i, f := range files {
			rep.attempted++
			var res diag.Result
			var aerr error
			wall := timed(func() { res, aerr = a.Analyze(ctx, f.text) })
			if aerr != nil {
				rep.fail("%s: %v", f.path, aerr)
				continue
			}
			out[i] = diag.FileFindings{File: f.path, Findings: res.Findings}
			t.add("detect.analyzer_us", us(wall))

			prep := taintDet.Prepare(f.text)
			filtered := taintDet.ScanPrepared(prep, detect.Options{TaintFilter: true, NoCache: true})
			_, d := prep.TaintAnalysis()
			taintScans++
			if d == 0 {
				taintRan++
			}
			if diag.Unsuppressed(res.Findings) != liveCount(filtered) {
				rep.fail("%s: analyzer and filtered scan disagree", f.path)
			}
			scan, _, taintT, _ := t.probe(probeDet, f.text)
			if d == 0 {
				t.attribute(wall, nil, scan, taintT)
			} else {
				t.attribute(wall, nil, scan)
			}
		}
		t.add("sarif.write_ms", ms(timed(func() { sarif.Write(io.Discard, out) })))

		// The worker pool at the CLI's default width, on a fresh
		// detector.
		pa := detect.New(nil).Analyzer(opt)
		per := make([]time.Duration, len(files))
		workers := workpool.Clamp(0, len(files))
		wall := timed(func() {
			workpool.Run(ctx, len(files), 0, func(i int) {
				per[i] = timed(func() { pa.Analyze(ctx, files[i].text) })
			})
		})
		var busy time.Duration
		for _, d := range per {
			busy += d
		}
		t.add("workpool.efficiency", float64(busy)/float64(wall)/float64(workers))
	}
	t.report(rep, "detect.analyzer")
	rep.set("taint.run_ratio", ratio(float64(taintRan), float64(taintScans)), "ratio")
	return nil
}

// liveCount counts unsuppressed findings.
func liveCount(fs []detect.Finding) int {
	n := 0
	for _, f := range fs {
		if !f.Suppressed {
			n++
		}
	}
	return n
}
