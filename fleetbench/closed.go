package main

import (
	"context"
	"errors"
	"fmt"
	"io"
	"sync"
	"time"
)

const (
	// heapEvery paces the peak-heap sampler: often enough to catch the
	// heap near each GC's goal, rarely enough to cost no measurable CPU.
	heapEvery = 20 * time.Millisecond
)

// clientTrace holds the client-layer spans one goroutine records in a
// traced pass: the time spent inside Send, the time blocked inside
// ReadScores, and the Scores frames those reads returned.
type clientTrace struct {
	sendUs         []float64
	readWait       time.Duration
	frames, scores int64
}

func (t *clientTrace) merge(o *clientTrace) {
	t.sendUs = append(t.sendUs, o.sendUs...)
	t.readWait += o.readWait
	t.frames += o.frames
	t.scores += o.scores
}

// read records one ReadScores call that blocked from t0 to t.
func (t *clientTrace) read(t0, t1 time.Time, scores int) {
	t.readWait += t1.Sub(t0)
	t.frames++
	t.scores += int64(scores)
}

// lifeTally is what churn lifecycles record.
type lifeTally struct {
	tally
	open, first weighted // ms: dial → Welcome, dial → first score
	life        weighted // ms: dial → EOF, one whole lifecycle
	lat         weighted // ms, frame send → score read
}

func (l *lifeTally) merge(o *lifeTally) {
	l.tally.merge(o.tally)
	l.open.merge(&o.open)
	l.first.merge(&o.first)
	l.life.merge(&o.life)
	l.lat.merge(&o.lat)
}

// lifecycle is one churn iteration: dial, send 2w rows as one frame,
// read the w+1 scores, Bye, read to EOF, close. The session's rows are
// the stream's rows base..base+2w−1, so its score i is the oracle's
// window ending at row base+i. Verified windows are counted on m when
// it is not nil.
func lifecycle(ctx context.Context, addr, prec string, st *sessionStream, base, w int, lt *lifeTally, tr *clientTrace, m *meter) error {
	lt.dials++
	t0 := time.Now()
	cl, err := dial(ctx, addr, prec)
	if err != nil {
		lt.failedDials++
		return nil
	}
	defer cl.Close()
	lt.open.add(ms(time.Since(t0)), 1)
	watchdog := time.AfterFunc(readDeadline, func() { cl.Close() })
	defer watchdog.Stop()

	v := newVerifier(st, w, base, prec)
	owed := int64(w + 1)
	tSend := time.Now()
	if err := cl.Send(st.rows[base : base+2*w]); err != nil {
		return err
	}
	if tr != nil {
		tr.sendUs = append(tr.sendUs, us(time.Since(tSend)))
	}
	for got := int64(0); got < owed; {
		tr0 := time.Now()
		scores, err := cl.ReadScores()
		t := time.Now()
		if tr != nil {
			tr.read(tr0, t, len(scores))
		}
		if err != nil {
			return fmt.Errorf("%s session: %w", prec, err)
		}
		if got == 0 {
			lt.first.add(ms(t.Sub(t0)), 1)
		}
		good := 0
		for _, sc := range scores {
			if v.check(sc) {
				good++
			}
			got++
		}
		lt.lat.add(ms(t.Sub(tSend)), good)
		if m != nil {
			m.verified.Add(int64(good))
		}
	}
	if err := cl.Bye(); err != nil {
		return err
	}
	for {
		scores, err := cl.ReadScores()
		for _, sc := range scores {
			v.check(sc)
		}
		if err != nil {
			if !errors.Is(err, io.EOF) {
				return err
			}
			break
		}
	}
	lt.life.add(ms(time.Since(t0)), 1)
	lt.addVerifier(v, owed)
	return nil
}

// churnLoops runs loops concurrent lifecycle loops against addr for d,
// cycling precision per iteration and walking each loop through its own
// stream in 2w-row chunks. It returns the merged tallies and client
// traces (when traced).
func churnLoops(addr string, precs []string, streams []*sessionStream, loops, w int, d time.Duration, traced bool, m *meter) (*lifeTally, *clientTrace, error) {
	var (
		wg    sync.WaitGroup
		mu    sync.Mutex
		all   lifeTally
		trAll clientTrace
		first error
	)
	chunks := loopRows / (2 * w)
	deadline := time.Now().Add(d)
	for l := 0; l < loops; l++ {
		wg.Add(1)
		go func(l int) {
			defer wg.Done()
			var lt lifeTally
			var tr *clientTrace
			if traced {
				tr = &clientTrace{}
			}
			var err error
			for it := 0; time.Now().Before(deadline); it++ {
				base := ((it + 1) % chunks) * 2 * w
				if err = lifecycle(context.Background(), addr, precs[it%len(precs)], streams[l], base, w, &lt, tr, m); err != nil {
					break
				}
			}
			mu.Lock()
			defer mu.Unlock()
			all.merge(&lt)
			if tr != nil {
				trAll.merge(tr)
			}
			if err != nil && first == nil {
				first = err
			}
		}(l)
	}
	wg.Wait()
	return &all, &trAll, first
}

// probeLifecycles measures session open, first score and lifecycle rate
// on a persistent-session workload's own topology, before its measured
// phase and while its sessions sit idle: the loop churn-routed runs, for
// probeDuration, on the fresh fleet. The measured phase then starts once
// the probe's sessions have gone.
func (p *pass) probeLifecycles() error {
	p.f.quiesce(len(p.devs))
	m := startMeter()
	lt, _, err := churnLoops(p.f.front, specs[2].precs, p.in.streams, p.nsess, p.in.w, probeDuration, false, m)
	m.finish()
	if err != nil {
		return fmt.Errorf("lifecycle probe: %w", err)
	}
	p.f.quiesce(len(p.devs))
	p.tally.merge(lt.tally)
	p.e2e["session_open_p50_ms"] = lt.open.quantile(0.5)
	p.e2e["first_score_p50_ms"] = lt.first.quantile(0.5)
	p.e2e["sessions_per_s"] = lifecycleRate(p.nsess, lt.life.quantile(0.5))
	return nil
}

// lifecycleRate is sessions_per_s: the rate at which loops closed loops
// complete lifecycles that each take the median lifecycle time lifeMs.
// It is read from the median, as the latencies are, and not from the
// count of lifecycles completed: while a neighbour loads the host a
// tenth of the lifecycles stall for 10 ms or more (at 30% stolen CPU
// time the mean time from dial to the last score was 6.4 ms against a
// median of 4.5), and a count charges those stalls to every session.
func lifecycleRate(loops int, lifeMs float64) float64 {
	if lifeMs <= 0 {
		return 0
	}
	return float64(loops) * 1000 / lifeMs
}

func (p *pass) runChurn() error {
	m := p.startMeasure()
	lt, tr, err := churnLoops(p.f.front, p.sp.precs, p.in.streams, p.nsess, p.in.w, p.duration(), p.traced, m.meter)
	if err != nil {
		return err
	}
	m.stop()
	p.tally.merge(lt.tally)
	_, cpu := m.meter.rates()
	p.verified = lt.ok
	lps := lifecycleRate(p.nsess, lt.life.quantile(0.5))
	p.e2e["session_open_p50_ms"] = lt.open.quantile(0.5)
	p.e2e["first_score_p50_ms"] = lt.first.quantile(0.5)
	p.e2e["sessions_per_s"] = lps
	// Every lifecycle owes, and must deliver, w+1 verified windows.
	p.closedLoopE2E(m, float64(p.in.w+1)*lps, cpu, &lt.lat)
	if p.traced {
		p.layerReport(m, tr, m.ended.Sub(m.began), p.nsess, 2*p.in.w, &lt.lat)
	}
	return nil
}

// closedLoopE2E records the figures both closed loops share, and the
// host's stolen CPU share over the run. In a closed
// loop the offered rate is the achieved one, so the sustained rate is
// the verified rate itself.
func (p *pass) closedLoopE2E(m *measure, wps, cpu float64, lat *weighted) {
	p.e2e["windows_per_s"] = wps
	p.e2e["sustained_rate_wps"] = wps
	p.e2e["score_latency_p50_ms"] = lat.quantile(0.5)
	p.e2e["cpu_us_per_window"] = cpu
	p.e2e["peak_heap_mb"] = m.peakMB
	p.reportTail(lat)
	p.reportSteal(m.meter)
}

// reportSteal prints how much CPU time the hypervisor gave to other
// machines during the run: the context for its spread.
func (p *pass) reportSteal(m *meter) {
	p.printf("host steal: %.1f%% of CPU time over the measured phase", 100*m.runSteal())
}

func (p *pass) duration() time.Duration { return time.Duration(p.secs * float64(time.Second)) }

func (p *pass) runBulk() error {
	if err := p.settle(); err != nil {
		return err
	}
	if err := p.probeLifecycles(); err != nil {
		return err
	}
	m := p.startMeasure()
	deadline := time.Now().Add(p.duration())
	var (
		wg    sync.WaitGroup
		mu    sync.Mutex
		lat   weighted
		trAll clientTrace
		first error
	)
	for _, d := range p.devs {
		wg.Add(1)
		go func(d *device) {
			defer wg.Done()
			var tr *clientTrace
			if p.traced {
				tr = &clientTrace{}
			}
			var my weighted
			var err error
			for time.Now().Before(deadline) && err == nil {
				err = p.bulkFrame(d, &my, tr, m.meter)
			}
			mu.Lock()
			defer mu.Unlock()
			lat.merge(&my)
			if tr != nil {
				trAll.merge(tr)
			}
			if err != nil && first == nil {
				first = err
			}
		}(d)
	}
	wg.Wait()
	m.stop()
	if first != nil {
		return first
	}
	wps, cpu := m.meter.rates()
	p.verified = int64(lat.count())
	p.closedLoopE2E(m, wps, cpu, &lat)
	p.finishDevices()
	if p.traced {
		p.layerReport(m, &trAll, m.ended.Sub(m.began), len(p.devs), bulkFrameRows, &lat)
	}
	return nil
}

// bulkFrame sends one full frame and reads exactly that frame's scores:
// one closed-loop step. Latency is timed from the moment the frame was
// handed to Send.
func (p *pass) bulkFrame(d *device, lat *weighted, tr *clientTrace, m *meter) error {
	off := d.rows % loopRows
	owed := windowsOwed(d.rows+bulkFrameRows, p.in.w) - windowsOwed(d.rows, p.in.w)
	watchdog := time.AfterFunc(readDeadline, func() { d.cl.Close() })
	defer watchdog.Stop()
	t0 := time.Now()
	if err := d.cl.Send(d.st.rows[off : off+bulkFrameRows]); err != nil {
		return err
	}
	if tr != nil {
		tr.sendUs = append(tr.sendUs, us(time.Since(t0)))
	}
	d.rows += bulkFrameRows
	for got := 0; got < owed; {
		tr0 := time.Now()
		scores, err := d.cl.ReadScores()
		t := time.Now()
		if tr != nil {
			tr.read(tr0, t, len(scores))
		}
		if err != nil {
			return fmt.Errorf("%s session: %w", d.prec, err)
		}
		good := 0
		for _, sc := range scores {
			if d.v.check(sc) {
				good++
			}
			got++
		}
		lat.add(ms(t.Sub(t0)), good)
		m.verified.Add(int64(good))
	}
	return nil
}

// reportTail prints the tail under the percentile rule; it is reported,
// never gated (p99 does not repeat within a tenth on a shared host).
func (p *pass) reportTail(lat *weighted) {
	t := lat.tail(99)
	if t.Pct == 0 {
		p.printf("tail.score_latency: too few samples (%d) for any percentile with %d beyond", t.N, minBeyond)
		return
	}
	p.printf("tail.score_latency_p%g_ms = %.4f  (%d samples, %d beyond)", t.Pct, t.Value, t.N, t.Beyond)
}

// measure brackets a measured phase: window meter, peak heap, and — in
// a traced pass — the layers' own counters.
type measure struct {
	p            *pass
	meter        *meter
	heap         *heapSampler
	peakMB       float64
	start, end   layerSnap
	rtm0, rtm1   runtimeSnap
	began, ended time.Time
	// whole spans the full run when the measure covers only part of it
	// (paced: the reference step); drop counters are read over whole.
	whole [2]layerSnap
}

func (p *pass) startMeasure() *measure {
	m := &measure{p: p}
	if p.traced {
		m.start = p.f.snap()
		m.rtm0 = readRuntime()
	}
	m.heap = startHeapSampler(heapEvery)
	m.began = time.Now()
	m.meter = startMeter()
	return m
}

func (m *measure) stop() {
	m.meter.finish()
	m.ended = time.Now()
	m.peakMB = m.heap.peakMB()
	if m.p.traced {
		m.rtm1 = readRuntime()
		m.end = m.p.f.snap()
	}
}
