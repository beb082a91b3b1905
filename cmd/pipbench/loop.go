package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http"
	"sort"
	"sync"
	"time"
)

// minSleep is the shortest sleep the generator takes. Go timers on a
// loaded two-core box overshoot short sleeps by about a millisecond, so
// the generator wakes at most every minSleep and sends everything due.
const minSleep = 2 * time.Millisecond

// lane is one schedule of requests: request k is due at start + k*period.
// A serial lane (an edit session) sends request k only after request k-1
// has been answered.
type lane struct {
	next     time.Time
	period   time.Duration
	serial   bool
	k        int
	inflight int
}

// scheduler decides which request goes out next and on which
// connection. It holds no clock: callers pass the current time, which is
// what lets a test drive it with a fake one.
type scheduler struct {
	lanes []*lane
	busy  []bool    // per connection
	end   time.Time // requests due at or after end are not sent
}

func newScheduler(end time.Time, conns int) *scheduler {
	return &scheduler{end: end, busy: make([]bool, conns)}
}

// addLane adds a schedule whose first request is due at first.
func (s *scheduler) addLane(first time.Time, period time.Duration, serial bool) {
	s.lanes = append(s.lanes, &lane{next: first, period: period, serial: serial})
}

// dispatch is one send decision.
type dispatch struct {
	lane, k, conn int
	serial        bool
	due           time.Time
}

// sendable reports whether the lane's next request may go out at now.
func (s *scheduler) sendable(ln *lane, now time.Time) bool {
	return !ln.next.After(now) && ln.next.Before(s.end) && !(ln.serial && ln.inflight > 0)
}

// take returns the request to send at now, if a connection is free and a
// request is due: the earliest-due sendable request goes out on the
// first free connection.
func (s *scheduler) take(now time.Time) (dispatch, bool) {
	c := -1
	for i, busy := range s.busy {
		if !busy {
			c = i
			break
		}
	}
	if c < 0 {
		return dispatch{}, false
	}
	best := -1
	for i, ln := range s.lanes {
		if s.sendable(ln, now) && (best < 0 || ln.next.Before(s.lanes[best].next)) {
			best = i
		}
	}
	if best < 0 {
		return dispatch{}, false
	}
	ln := s.lanes[best]
	d := dispatch{lane: best, k: ln.k, conn: c, serial: ln.serial, due: ln.next}
	ln.k++
	ln.next = ln.next.Add(ln.period)
	ln.inflight++
	s.busy[c] = true
	return d, true
}

// finish records that the request sent on connection c for lane l was
// answered.
func (s *scheduler) finish(l, c int) {
	s.busy[c] = false
	s.lanes[l].inflight--
}

// wakeAt returns when the generator must look at the schedule again if
// no reply arrives first, and false once no lane will send again.
func (s *scheduler) wakeAt(now time.Time) (time.Time, bool) {
	var at time.Time
	found := false
	for _, ln := range s.lanes {
		if !ln.next.Before(s.end) || (ln.serial && ln.inflight > 0) {
			continue
		}
		if !found || ln.next.Before(at) {
			at, found = ln.next, true
		}
	}
	if found && at.Before(now.Add(minSleep)) {
		at = now.Add(minSleep)
	}
	return at, found
}

// request is one HTTP call: a POST of body to path, or a GET when body is
// nil.
type request struct {
	path string
	body []byte
}

// sample is one sent request and its outcome.
type sample struct {
	dispatch
	item       int // the workload's index for the request, set by build
	sent, done time.Time
	status     int
	body       []byte
	err        error
	failed     bool // set by the workload's checks
	// start is when the request would have been sent by a generator
	// whose timer never overshoots (see settle).
	start time.Time
}

// latency is the request's latency under the timing rule: its service
// time plus the wait the program imposed on it.
func (s *sample) latency() time.Duration { return s.done.Sub(s.sent) + s.wait() }

// wait is the backlog share of the request's lateness: how long after
// its due time it would have started with a perfect timer.
func (s *sample) wait() time.Duration { return s.start.Sub(s.due) }

// late is how long after its due time the request was actually sent.
func (s *sample) late() time.Duration { return s.sent.Sub(s.due) }

// timerLate is the share of the request's lateness due to the generator
// waking late.
func (s *sample) timerLate() time.Duration { return max(0, s.sent.Sub(s.start)) }

// settle applies the timing rule to a finished window. A request's
// latency runs from its due time only when the program caused the delay:
// when every connection was still busy at that moment, or (serial lanes)
// the previous reply had not arrived. Otherwise it runs from the send.
//
// "Busy" is judged on the timeline a perfect generator would have
// produced, not the real one: the real generator wakes at most every
// minSleep and sends what is due in a burst, so a connection can be busy
// at a due time only because an earlier request went out late. settle
// therefore replays the requests in due order on ideal connections, each
// taking the service time it really took (done - sent), and sets each
// request's start to max(due, first free ideal connection, previous reply
// of its lane).
func settle(got []*sample, conns int) {
	order := append([]*sample(nil), got...)
	sort.SliceStable(order, func(i, j int) bool { return order[i].due.Before(order[j].due) })
	free := make([]time.Time, conns)
	laneDone := map[int]time.Time{}
	for _, s := range order {
		c := 0
		for i := range free {
			if free[i].Before(free[c]) {
				c = i
			}
		}
		start := s.due
		if free[c].After(start) {
			start = free[c]
		}
		if d, ok := laneDone[s.lane]; s.serial && ok && d.After(start) {
			start = d
		}
		s.start = start
		free[c] = start.Add(s.done.Sub(s.sent))
		laneDone[s.lane] = free[c]
	}
}

// client is one keep-alive connection to the server.
type client struct {
	base string
	hc   *http.Client
}

// newClients returns n clients, each pinned to a single connection.
func newClients(base string, n int) []*client {
	out := make([]*client, n)
	for i := range out {
		out[i] = &client{base: base, hc: &http.Client{
			Timeout: 30 * time.Second,
			Transport: &http.Transport{
				MaxConnsPerHost:     1,
				MaxIdleConnsPerHost: 1,
				DisableCompression:  true,
			},
		}}
	}
	return out
}

// do sends r and returns the status and body.
func (c *client) do(r request) (int, []byte, error) {
	var resp *http.Response
	var err error
	if r.body == nil {
		resp, err = c.hc.Get(c.base + r.path)
	} else {
		resp, err = c.hc.Post(c.base+r.path, "application/json", bytes.NewReader(r.body))
	}
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	return resp.StatusCode, body, err
}

func (c *client) close() { c.hc.CloseIdleConnections() }

// runOpenLoop drives the scheduler in real time over clients, one
// goroutine per connection. build is called when a request is sent and
// onDone when it is answered, both on the calling goroutine, so they may
// share state without locks. It returns once every request due before
// the scheduler's end has been answered.
func runOpenLoop(ctx context.Context, s *scheduler, clients []*client,
	build func(*sample) request, onDone func(*sample)) error {
	type job struct {
		s *sample
		r request
	}
	jobs := make([]chan job, len(clients))
	// One slot per connection: a connection has at most one reply
	// outstanding, so sends on done never block.
	done := make(chan *sample, len(clients))
	var wg sync.WaitGroup
	for i, c := range clients {
		jobs[i] = make(chan job)
		wg.Add(1)
		go func(c *client, in chan job) {
			defer wg.Done()
			for j := range in {
				j.s.sent = time.Now()
				j.s.status, j.s.body, j.s.err = c.do(j.r)
				j.s.done = time.Now()
				done <- j.s
			}
		}(c, jobs[i])
	}
	defer func() {
		for _, ch := range jobs {
			close(ch)
		}
		wg.Wait()
	}()

	inflight := 0
	for {
		now := time.Now()
		for {
			d, ok := s.take(now)
			if !ok {
				break
			}
			sm := &sample{dispatch: d}
			jobs[d.conn] <- job{s: sm, r: build(sm)}
			inflight++
		}
		wake, ok := s.wakeAt(now)
		if !ok && inflight == 0 {
			return nil
		}
		var timer *time.Timer
		var fire <-chan time.Time
		if ok {
			timer = time.NewTimer(wake.Sub(now))
			fire = timer.C
		}
		select {
		case sm := <-done:
			inflight--
			s.finish(sm.lane, sm.conn)
			onDone(sm)
		case <-fire:
		case <-ctx.Done():
		}
		if timer != nil {
			timer.Stop()
		}
		if ctx.Err() != nil {
			for ; inflight > 0; inflight-- {
				<-done
			}
			return fmt.Errorf("open loop: %w", ctx.Err())
		}
	}
}

// runClosedLoop sends back-to-back requests on every client until stop
// returns true or ctx ends. next and stop are called under one lock and
// may keep state; stop is told which client asks, so one of the load
// connections can also poll the server. Each reply goes to check on the
// sending goroutine, so check must synchronize what it shares.
func runClosedLoop(ctx context.Context, clients []*client, next func() request,
	check func(request, int, []byte, error), stop func(*client) bool) {
	var mu sync.Mutex
	var wg sync.WaitGroup
	for _, c := range clients {
		wg.Add(1)
		go func(c *client) {
			defer wg.Done()
			for ctx.Err() == nil {
				mu.Lock()
				if stop(c) {
					mu.Unlock()
					return
				}
				r := next()
				mu.Unlock()
				status, body, err := c.do(r)
				check(r, status, body, err)
			}
		}(c)
	}
	wg.Wait()
}
