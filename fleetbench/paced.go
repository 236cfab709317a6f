package main

import (
	"errors"
	"fmt"
	"io"
	"math"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

const (
	ringRows = 1 << 17 // due-time ring per session; far beyond any backlog a step can build
	// abortLag: a generator this far behind its schedule stops offering
	// the rest of the step (the step is then not sustained) so an
	// overloaded top step cannot stretch the run.
	abortLag = 250 * time.Millisecond
)

// dueSlot is one ring entry: which session row it holds and when that
// row was due (ns since the ladder's start).
type dueSlot struct {
	row, due atomic.Int64
}

// pacedDev is a paced session's open-loop state. The generator owns
// sent/lag; the reader owns ok/bad/lat.
type pacedDev struct {
	*device
	meter    *meter // counts reference-step windows as they are verified
	ring     []dueSlot
	sent     []int64
	lag      [][]float64 // ms, per step
	aborted  []bool
	ok, bad  []int64
	lat      [][]float64 // ms, per step
	lastRead []int64     // per step: when its last verified score arrived (ns since start)
	sentAll  atomic.Int64
	readAll  atomic.Int64
	trace    clientTrace // traced: Send spans and reads of the reference step
	err      error       // the generator's: a failed Send or Bye
	readErr  error       // the reader's: a read that ended other than at EOF
}

// stepOutcome is one ladder step as the sustained-rate rule sees it.
type stepOutcome struct {
	rate          float64 // offered per-session rows/s
	owed, ok      int64
	shed, drops   int64   // backend admission sheds, router relay drops
	backlogGrowth float64 // windows in flight (sent, not scored) gained over the step
	backlogLimit  float64 // growth allowed: sustainedP99Ms worth of offered windows
	tail          tail    // latency tail (ms) under the percentile rule
	lagP99Ms      float64
	aborted       bool
}

// sustained reports whether the fleet kept up with the step: nothing
// shed or dropped or lost, no growing backlog, the generator on
// schedule, and the latency tail within sustainedP99Ms.
func (s stepOutcome) sustained() bool { return len(s.misses()) == 0 }

// misses names every clause of the sustained rule the step broke.
func (s stepOutcome) misses() []string {
	var out []string
	add := func(bad bool, name string) {
		if bad {
			out = append(out, name)
		}
	}
	add(s.aborted, "aborted")
	add(s.shed != 0, "shed")
	add(s.drops != 0, "drops")
	add(s.owed != s.ok, "lost")
	add(s.backlogGrowth > s.backlogLimit, "backlog")
	add(s.tail.Pct == 0 || s.tail.Value > sustainedP99Ms, "tail")
	add(s.lagP99Ms > sustainedP99Ms, "lag")
	return out
}

// sustainedStep is the highest step such that it and every step below
// it were sustained; -1 when even the first was not. A step that passes
// above a failed one is load noise, not capacity.
func sustainedStep(steps []stepOutcome) int {
	best := -1
	for k, s := range steps {
		if !s.sustained() {
			break
		}
		best = k
	}
	return best
}

const (
	// backlogEvery paces the in-flight samples the backlog rule reads.
	backlogEvery = 50 * time.Millisecond
	// stepGap separates ladder steps: no row is due in it, so drops and
	// sheds a step causes are counted against that step, not the next.
	stepGap = 200 * time.Millisecond
)

// backlogGrowth is how much the floor of the in-flight count rose over a
// step: the minimum over its last quarter minus the minimum over its
// first. Minima ignore the transient peaks a flush cycle or one stall
// leaves; a fleet falling behind raises the floor itself.
func backlogGrowth(samples []float64) float64 {
	q := len(samples) / 4
	if q == 0 {
		return 0
	}
	lo := func(xs []float64) float64 {
		m := xs[0]
		for _, x := range xs {
			m = math.Min(m, x)
		}
		return m
	}
	return lo(samples[len(samples)-q:]) - lo(samples[:q])
}

// receiptRate is a step's verified windows per second, over the span
// from the step's start to the arrival of its last verified score.
func receiptRate(devs []*pacedDev, k int, start int64) float64 {
	var ok, last int64
	for _, pd := range devs {
		ok += pd.ok[k]
		last = max(last, pd.lastRead[k])
	}
	if last <= start {
		return 0
	}
	return float64(ok) / (float64(last-start) / 1e9)
}

func stepOf(due int64, ends []int64) int {
	for k, e := range ends {
		if due < e {
			return k
		}
	}
	return len(ends) - 1
}

func (p *pass) runPaced() error {
	if err := p.probeLifecycles(); err != nil {
		return err
	}
	nsteps := len(pacedLadder)
	total := time.Duration(p.secs * float64(time.Second))
	starts := make([]int64, nsteps)
	ends := make([]int64, nsteps)
	var at int64
	for k := range pacedLadder {
		starts[k] = at
		ends[k] = at + int64(float64(total)*pacedShare[k])
		at = ends[k] + int64(stepGap)
	}
	devs := make([]*pacedDev, len(p.devs))
	for i, d := range p.devs {
		pd := &pacedDev{device: d, ring: make([]dueSlot, ringRows),
			sent: make([]int64, nsteps), lag: make([][]float64, nsteps), aborted: make([]bool, nsteps),
			ok: make([]int64, nsteps), bad: make([]int64, nsteps), lat: make([][]float64, nsteps),
			lastRead: make([]int64, nsteps)}
		for k, r := range pacedLadder {
			n := int(r*float64(ends[k]-starts[k])/1e9) + 16
			pd.lag[k] = make([]float64, 0, n)
			pd.lat[k] = make([]float64, 0, n)
		}
		devs[i] = pd
	}
	snaps := make([]layerSnap, nsteps+1)
	rtm := make([]runtimeSnap, nsteps+1)
	backlog := make([][]float64, nsteps) // in-flight windows, sampled every backlogEvery
	heap := startHeapSampler(heapEvery)
	snaps[0] = p.f.snap()
	rtm[0] = readRuntime()
	refEnd := ends[pacedRef]
	// A stream that stalls without ending would block its reader; past the
	// ladder and the drain allowance, every session is closed and the
	// pass fails.
	var stalled atomic.Bool
	base := time.Now()
	watchdog := time.AfterFunc(time.Duration(ends[nsteps-1])+drainTimeout+abortLag, func() {
		stalled.Store(true)
		for _, pd := range devs {
			pd.cl.Close()
		}
	})
	defer watchdog.Stop()
	refMeter := startMeter() // the reference step is step 0: it starts now
	for _, pd := range devs {
		pd.meter = refMeter
	}

	var wg sync.WaitGroup
	for _, pd := range devs {
		wg.Add(2)
		go func(pd *pacedDev) { defer wg.Done(); p.pacedGen(pd, base, starts, ends) }(pd)
		go func(pd *pacedDev) { defer wg.Done(); p.pacedRead(pd, base, ends, refEnd) }(pd)
	}
	for k := range pacedLadder {
		for {
			var inFlight int64
			for _, pd := range devs {
				inFlight += pd.sentAll.Load() - pd.readAll.Load()
			}
			backlog[k] = append(backlog[k], float64(inFlight))
			left := time.Until(base.Add(time.Duration(ends[k])))
			if left <= 0 {
				break
			}
			time.Sleep(min(left, backlogEvery))
		}
		if k == pacedRef {
			refMeter.finish()
		}
		// Read the step's counters in the gap after it, once its last rows
		// are through and before the next step's first are due.
		time.Sleep(time.Until(base.Add(time.Duration(ends[k]) + stepGap/2)))
		rtm[k+1] = readRuntime()
		snaps[k+1] = p.f.snap()
	}
	wg.Wait()
	peak := heap.peakMB()
	if stalled.Load() {
		return fmt.Errorf("paced: scores still owed %v after the ladder ended", drainTimeout+abortLag)
	}
	for _, pd := range devs {
		if pd.readErr != nil {
			return fmt.Errorf("paced %s session %d: %w", pd.prec, pd.id, pd.readErr)
		}
	}

	steps := make([]stepOutcome, nsteps)
	var refLat weighted
	for k, rate := range pacedLadder {
		var lat, lag []float64
		s := stepOutcome{rate: rate}
		for _, pd := range devs {
			s.owed += pd.sent[k]
			s.ok += pd.ok[k]
			s.aborted = s.aborted || pd.aborted[k]
			lat = append(lat, pd.lat[k]...)
			lag = append(lag, pd.lag[k]...)
		}
		s.shed = int64(snaps[k+1].srv.sum("varade_admission_drops_total") - snaps[k].srv.sum("varade_admission_drops_total"))
		s.drops = int64(snaps[k+1].rt.sum("varade_router_relay_dropped_frames_total") - snaps[k].rt.sum("varade_router_relay_dropped_frames_total"))
		s.backlogGrowth = backlogGrowth(backlog[k])
		s.backlogLimit = sustainedP99Ms / 1000 * rate * float64(len(devs))
		s.tail = tailAt(sortedCopy(lat), 99)
		s.lagP99Ms = quantile(sortedCopy(lag), 0.99)
		steps[k] = s
		if k == pacedRef {
			p.e2e["windows_per_s"] = receiptRate(devs, k, starts[k])
			_, p.e2e["cpu_us_per_window"] = refMeter.rates()
			for _, pd := range devs {
				for _, x := range pd.lat[k] {
					refLat.add(x, 1)
				}
			}
			p.e2e["score_latency_p50_ms"] = refLat.quantile(0.5)
			p.reportTail(&refLat)
			p.reportSteal(refMeter)
			p.layer["gen.lag_p99_ms"] = s.lagP99Ms
			p.verified = s.ok
		}
	}
	p.e2e["peak_heap_mb"] = peak
	best := sustainedStep(steps)
	if best >= 0 {
		p.e2e["sustained_rate_wps"] = receiptRate(devs, best, starts[best])
	} else {
		p.e2e["sustained_rate_wps"] = 0
	}
	p.printf("%-5s %12s %10s %10s %9s %8s %8s %10s %10s %9s %s", "step", "offered/s", "owed", "verified", "failed", "shed", "drops", "backlog+", "p50_ms", "tail_ms", "gen_lag_p99_ms")
	for k, s := range steps {
		mark := ""
		if k == pacedRef {
			mark += " ref"
		}
		if m := s.misses(); len(m) == 0 {
			mark += " sustained"
		} else {
			mark += " missed:" + strings.Join(m, ",")
		}
		var lat []float64
		for _, pd := range devs {
			lat = append(lat, pd.lat[k]...)
		}
		p.printf("%-5d %12.0f %10d %10d %9d %8d %8d %10.0f %10.3f %9s %9.3f%s", k, s.rate*float64(len(devs)), s.owed, s.ok, s.owed-s.ok,
			s.shed, s.drops, s.backlogGrowth, median(lat), fmt.Sprintf("p%g=%.2f", s.tail.Pct, s.tail.Value), s.lagP99Ms, mark)
	}

	// Correctness: every window owed at the reference step (and at the
	// set-up frames and the lifecycle probe) must arrive verified. Loss
	// at steps past capacity is the measurement, reported above and in
	// the per-layer overload figures, not a benchmark failure.
	p.tally.owed += steps[pacedRef].owed
	p.tally.ok += steps[pacedRef].ok
	var overOwed, overOK int64
	for k, s := range steps {
		if k != pacedRef {
			overOwed += s.owed
			overOK += s.ok
		}
	}
	for _, pd := range devs {
		if pd.err != nil {
			return fmt.Errorf("paced %s session %d: %w", pd.prec, pd.id, pd.err)
		}
		// The set-up window was scored before the ladder began.
		var stepOK int64
		for _, n := range pd.ok {
			stepOK += n
		}
		p.tally.owed++
		p.tally.ok += min(1, pd.v.ok-stepOK)
		p.tally.f64Wrong += pd.v.f64Wrong
		p.tally.bad += pd.bad[pacedRef]
		if p.tally.firstBad == "" {
			p.tally.firstBad = pd.v.firstBad
		}
	}
	if overOwed > 0 {
		p.layer["paced.overload_failed_share"] = float64(overOwed-overOK) / float64(overOwed)
	}
	if p.traced {
		m := &measure{p: p, start: snaps[pacedRef], end: snaps[pacedRef+1], rtm0: rtm[pacedRef], rtm1: rtm[pacedRef+1]}
		m.whole = [2]layerSnap{snaps[0], snaps[nsteps]}
		tr := &clientTrace{}
		for _, pd := range devs {
			tr.merge(&pd.trace)
		}
		p.layerReport(m, tr, time.Duration(ends[pacedRef]-starts[pacedRef]), len(devs), 1, &refLat)
	}
	return nil
}

// pacedGen is one session's open-loop generator: every row has a due
// time on a fixed per-step schedule, and is sent as its own frame as
// soon as the generator gets to it. Latency is later timed from the due
// time, so a late generator is charged to the figures, and the lag is
// recorded. Rows are pre-generated and the loop does not allocate.
func (p *pass) pacedGen(pd *pacedDev, base time.Time, starts, ends []int64) {
	defer func() {
		if pd.err == nil {
			pd.err = pd.cl.Bye()
		}
	}()
	for k, rate := range pacedLadder {
		period := 1e9 / rate
		phase := period * float64(pd.id) / float64(len(p.devs))
		for j := 0; ; j++ {
			due := starts[k] + int64(phase+float64(j)*period)
			if due >= ends[k] {
				break
			}
			now := int64(time.Since(base))
			if wait := due - now; wait > 0 {
				time.Sleep(time.Duration(wait))
				now = int64(time.Since(base))
			}
			lag := now - due
			if time.Duration(lag) > abortLag {
				pd.aborted[k] = true
				break
			}
			idx := int64(pd.rows)
			slot := &pd.ring[idx&(ringRows-1)]
			slot.due.Store(due)
			slot.row.Store(idx)
			pd.lag[k] = append(pd.lag[k], float64(lag)/1e6)
			off := pd.rows % loopRows
			t0 := time.Now()
			if err := pd.cl.Send(pd.st.rows[off : off+1]); err != nil {
				pd.err = err
				return
			}
			if p.traced && k == pacedRef {
				pd.trace.sendUs = append(pd.trace.sendUs, us(time.Since(t0)))
			}
			pd.rows++
			pd.sent[k]++
			pd.sentAll.Add(1)
		}
	}
}

// pacedRead consumes one session's scores until the server closes the
// stream after Bye, verifying each against the oracle and timing it from
// its row's due time.
func (p *pass) pacedRead(pd *pacedDev, base time.Time, ends []int64, refEnd int64) {
	for {
		tr0 := time.Now()
		scores, err := pd.cl.ReadScores()
		read := time.Now()
		t := int64(read.Sub(base))
		if p.traced && t <= refEnd {
			pd.trace.read(tr0, read, len(scores))
		}
		for _, sc := range scores {
			good := pd.v.check(sc)
			pd.readAll.Add(1)
			slot := &pd.ring[sc.Index&(ringRows-1)]
			due := slot.due.Load()
			if slot.row.Load() != int64(sc.Index) {
				continue
			}
			k := stepOf(due, ends)
			if good {
				if k == pacedRef {
					pd.meter.verified.Add(1)
				}
				pd.ok[k]++
				pd.lastRead[k] = t
				pd.lat[k] = append(pd.lat[k], float64(t-due)/1e6)
			} else {
				pd.bad[k]++
			}
		}
		if err != nil {
			if !errors.Is(err, io.EOF) {
				pd.readErr = err
			}
			return
		}
	}
}
