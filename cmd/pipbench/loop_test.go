package main

import (
	"testing"
	"time"
)

// simulate drives the scheduler on a fake clock the way runOpenLoop does
// in real time: a reply wakes the generator at once, while a timer wake
// comes overshoot late. Every request takes service. It returns the
// settled samples in send order.
func simulate(s *scheduler, start time.Time, overshoot, service time.Duration) []*sample {
	var got, inflight []*sample
	now := start
	for {
		for {
			d, ok := s.take(now)
			if !ok {
				break
			}
			sm := &sample{dispatch: d, sent: now}
			// A connection serves one request at a time, so the reply
			// comes service after both the send and the connection's
			// previous reply.
			sm.done = now.Add(service)
			got = append(got, sm)
			inflight = append(inflight, sm)
		}
		next, timer := s.wakeAt(now)
		if timer {
			next = next.Add(overshoot)
		}
		if len(inflight) == 0 && !timer {
			break
		}
		for _, sm := range inflight {
			if !timer || sm.done.Before(next) {
				next, timer = sm.done, true
			}
		}
		now = next
		rest := inflight[:0]
		for _, sm := range inflight {
			if sm.done.After(now) {
				rest = append(rest, sm)
				continue
			}
			s.finish(sm.lane, sm.conn)
		}
		inflight = rest
	}
	settle(got, len(s.busy))
	return got
}

var t0 = time.Date(2025, 1, 1, 0, 0, 0, 0, time.UTC)

// TestTimerOvershootIsNotCharged: the generator wakes 1.07ms late every
// time, but the server answers in 0.1ms, so every request's latency is
// its 0.1ms service time.
func TestTimerOvershootIsNotCharged(t *testing.T) {
	s := newScheduler(t0.Add(50*time.Millisecond), 1)
	s.addLane(t0, time.Millisecond, false)
	got := simulate(s, t0, 1070*time.Microsecond, 100*time.Microsecond)
	if len(got) != 50 {
		t.Fatalf("sent %d requests, want 50", len(got))
	}
	late := 0
	for _, sm := range got {
		if sm.latency() != 100*time.Microsecond || sm.wait() != 0 {
			t.Fatalf("request %d: latency %v, wait %v; want 100µs, 0", sm.k, sm.latency(), sm.wait())
		}
		if sm.late() > time.Millisecond {
			late++
		}
	}
	if late < 25 {
		t.Fatalf("only %d requests went out more than 1ms late; the test does not exercise overshoot", late)
	}
}

// TestBacklogIsCharged: requests due every 1ms that take 3ms each queue
// behind one another, and each one's latency counts the queueing from
// its due time.
func TestBacklogIsCharged(t *testing.T) {
	s := newScheduler(t0.Add(10*time.Millisecond), 1)
	s.addLane(t0, time.Millisecond, false)
	got := simulate(s, t0, 0, 3*time.Millisecond)
	if len(got) != 10 {
		t.Fatalf("sent %d requests, want 10", len(got))
	}
	for _, sm := range got {
		wait := time.Duration(sm.k) * 2 * time.Millisecond
		if sm.wait() != wait || sm.latency() != wait+3*time.Millisecond {
			t.Fatalf("request %d: wait %v, latency %v; want %v, %v", sm.k, sm.wait(), sm.latency(), wait, wait+3*time.Millisecond)
		}
	}
}

// TestSerialLaneWaitsForItsReply: with connections to spare, a session
// whose edits take longer than its keystroke period is charged for
// waiting on its own previous reply.
func TestSerialLaneWaitsForItsReply(t *testing.T) {
	s := newScheduler(t0.Add(5*time.Millisecond), 2)
	s.addLane(t0, time.Millisecond, true)
	got := simulate(s, t0, 0, 3*time.Millisecond)
	for _, sm := range got {
		wait := time.Duration(sm.k) * 2 * time.Millisecond
		if sm.wait() != wait {
			t.Fatalf("request %d: wait %v, want %v", sm.k, sm.wait(), wait)
		}
	}
	if len(got) != 5 {
		t.Fatalf("sent %d requests, want 5", len(got))
	}
}
