package main

import (
	"context"
	"sort"
	"time"
)

// The timed window runs in pieces of pieceLen. Between pieces the load
// pauses and the calibration task runs while the server is idle. Each
// piece's times are scaled by the machine speed the calibrations on
// either side of it measured. The benchmark shares a machine whose speed
// drifts by tens of percent over minutes and in bursts of seconds, and
// only a calibration taken right next to a measurement tracks that.
const (
	pieceLen  = time.Second
	maxPieces = 20
	calibRuns = 3 // calibration tasks per pause
)

// piece is one part of the timed window.
type piece struct {
	got     []*sample
	cpu     time.Duration // server CPU time over the piece
	elapsed time.Duration
	speed   float64 // scales the piece's times to the reference machine
}

// timedWindow runs the open-loop window against srv in pieces. schedule
// returns the scheduler of one piece, given its start and end. It
// returns the settled pieces and the server's peak RSS at the end.
func timedWindow(ctx context.Context, srv *server, clients []*client, length time.Duration,
	schedule func(start, end time.Time) *scheduler, build func(*sample) request) ([]piece, int64, error) {
	n := min(max(int(length/pieceLen), 1), maxPieces)
	per := length / time.Duration(n)
	pid := srv.cmd.Process.Pid
	before := speedNow(calibRuns)
	var pieces []piece
	for i := 0; i < n; i++ {
		cpu0, err := procCPU(pid)
		if err != nil {
			return nil, 0, err
		}
		var p piece
		start := time.Now().Add(5 * time.Millisecond)
		err = runOpenLoop(ctx, schedule(start, start.Add(per)), clients, build,
			func(s *sample) { p.got = append(p.got, s) })
		if err != nil {
			return nil, 0, err
		}
		p.elapsed = time.Since(start)
		cpu1, err := procCPU(pid)
		if err != nil {
			return nil, 0, err
		}
		p.cpu = cpu1 - cpu0
		settle(p.got, conns)
		after := speedNow(calibRuns)
		p.speed = (before + after) / 2
		before = after
		pieces = append(pieces, p)
	}
	rss, err := procPeakRSS(pid)
	return pieces, rss, err
}

// samples returns every sample of the pieces.
func samples(pieces []piece) []*sample {
	var out []*sample
	for _, p := range pieces {
		out = append(out, p.got...)
	}
	return out
}

// windowMetrics sets the latency, SLO, generator and server-cost metrics
// of a timed window. Latency and CPU are reported scaled to the reference
// machine, and raw as ".raw" diagnostics; the SLO is judged on raw
// latency, which is what a user waits.
func windowMetrics(rep *report, pieces []piece, limit time.Duration, offered float64, peakRSS int64) {
	var lat, raw, late, lateBusy, lateTimer, speeds []float64
	var cpu, cpuRaw, elapsed time.Duration
	misses, backlog, n := 0, 0, 0
	for _, p := range pieces {
		speeds = append(speeds, p.speed)
		cpu += time.Duration(float64(p.cpu) * p.speed)
		cpuRaw += p.cpu
		elapsed += p.elapsed
		for _, s := range p.got {
			n++
			if s.failed || s.latency() > limit {
				misses++
			}
			if !s.failed {
				lat = append(lat, ms(s.latency())*p.speed)
				raw = append(raw, ms(s.latency()))
			}
			if s.wait() > 0 {
				backlog++
			}
			late = append(late, ms(s.late()))
			lateBusy = append(lateBusy, ms(s.wait()))
			lateTimer = append(lateTimer, ms(s.timerLate()))
		}
	}
	sort.Float64s(lat)
	sort.Float64s(raw)
	rep.set("latency_p50_ms", quantile(lat, 0.50), "ms")
	rep.set("latency_p90_ms", quantile(lat, 0.90), "ms")
	rep.set("latency_p99_ms", quantile(lat, 0.99), "ms")
	rep.set("latency_p50_ms.raw", quantile(raw, 0.50), "ms")
	rep.set("latency_p90_ms.raw", quantile(raw, 0.90), "ms")
	rep.set("latency_p99_ms.raw", quantile(raw, 0.99), "ms")
	rep.set("slo_miss_ratio", ratio(float64(misses), float64(n)), "ratio")
	rep.set("slo_limit_ms", ms(limit), "ms")
	rep.set("gen.late_p99_ms", quantile(sortedCopy(late), 0.99), "ms")
	rep.set("gen.late_busy_p99_ms", quantile(sortedCopy(lateBusy), 0.99), "ms")
	rep.set("gen.late_timer_p99_ms", quantile(sortedCopy(lateTimer), 0.99), "ms")
	rep.set("gen.backlog_ratio", ratio(float64(backlog), float64(n)), "ratio")
	rep.set("gen.offered_rps", offered, "1/s")
	rep.set("gen.achieved_rps", float64(n)/elapsed.Seconds(), "1/s")
	rep.set("cpu_us_per_op", us(cpu)/float64(max(n, 1)), "us")
	rep.set("cpu_us_per_op.raw", us(cpuRaw)/float64(max(n, 1)), "us")
	rep.set("peak_rss_mb", float64(peakRSS)/(1<<20), "MiB")
	rep.set("machine.speed", median(speeds), "ratio")
}
