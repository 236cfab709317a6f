package main

import (
	"bufio"
	"math"
	"os"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"sync/atomic"
	"syscall"
	"time"
)

// cpuTime is the process's user+sys CPU time so far (getrusage).
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// heapSampler records the peak in-use heap (HeapInuse: live objects plus
// fragmentation within in-use spans) by sampling runtime/metrics, which
// unlike ReadMemStats does not stop the world.
type heapSampler struct {
	stop chan struct{}
	done chan struct{}
	peak uint64
}

var heapInuseMetrics = []string{"/memory/classes/heap/objects:bytes", "/memory/classes/heap/unused:bytes"}

func heapInuse(s []metrics.Sample) uint64 {
	metrics.Read(s)
	var b uint64
	for _, x := range s {
		if x.Value.Kind() == metrics.KindUint64 {
			b += x.Value.Uint64()
		}
	}
	return b
}

func startHeapSampler(every time.Duration) *heapSampler {
	h := &heapSampler{stop: make(chan struct{}), done: make(chan struct{})}
	s := make([]metrics.Sample, len(heapInuseMetrics))
	for i, name := range heapInuseMetrics {
		s[i].Name = name
	}
	h.peak = heapInuse(s)
	go func() {
		defer close(h.done)
		tk := time.NewTicker(every)
		defer tk.Stop()
		for {
			select {
			case <-h.stop:
				return
			case <-tk.C:
				if b := heapInuse(s); b > h.peak {
					h.peak = b
				}
			}
		}
	}()
	return h
}

// peakMB stops the sampler and returns the peak in MB.
func (h *heapSampler) peakMB() float64 {
	close(h.stop)
	<-h.done
	return float64(h.peak) / (1 << 20)
}

// runtimeSnap is the Go runtime's view at one instant: allocations, GC
// cycles and the scheduler-latency histogram (how long runnable
// goroutines waited for a core).
type runtimeSnap struct {
	allocs, gcs uint64
	sched       *metrics.Float64Histogram
}

func readRuntime() runtimeSnap {
	s := []metrics.Sample{
		{Name: "/gc/heap/allocs:objects"},
		{Name: "/gc/cycles/total:gc-cycles"},
		{Name: "/sched/latencies:seconds"},
	}
	metrics.Read(s)
	var r runtimeSnap
	if s[0].Value.Kind() == metrics.KindUint64 {
		r.allocs = s[0].Value.Uint64()
	}
	if s[1].Value.Kind() == metrics.KindUint64 {
		r.gcs = s[1].Value.Uint64()
	}
	if s[2].Value.Kind() == metrics.KindFloat64Histogram {
		r.sched = s[2].Value.Float64Histogram()
	}
	return r
}

// schedWaitQuantile returns the q-quantile of scheduler latency between
// two snapshots, in seconds (the upper bound of the bucket it falls in).
func schedWaitQuantile(a, b runtimeSnap, q float64) float64 {
	if a.sched == nil || b.sched == nil || len(a.sched.Counts) != len(b.sched.Counts) {
		return 0
	}
	var total uint64
	delta := make([]uint64, len(b.sched.Counts))
	for i := range delta {
		delta[i] = b.sched.Counts[i] - a.sched.Counts[i]
		total += delta[i]
	}
	if total == 0 {
		return 0
	}
	want := uint64(math.Ceil(q * float64(total)))
	var cum uint64
	for i, c := range delta {
		cum += c
		if cum >= want {
			hi := b.sched.Buckets[i+1]
			if math.IsInf(hi, 1) {
				hi = b.sched.Buckets[i]
			}
			return hi
		}
	}
	return 0
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// epoch anchors now: every timestamp the benchmark records is
// nanoseconds since process start on the monotonic clock.
var epoch = time.Now()

func now() int64 { return int64(time.Since(epoch)) }

// readSteal returns the host's cumulative stolen and total CPU time in
// jiffies (the "cpu" line of /proc/stat): time the hypervisor ran
// something else on this machine's virtual CPUs. ok is false where the
// kernel does not expose it.
func readSteal() (steal, total uint64, ok bool) {
	f, err := os.Open("/proc/stat")
	if err != nil {
		return 0, 0, false
	}
	defer f.Close()
	line, err := bufio.NewReader(f).ReadString('\n')
	if err != nil {
		return 0, 0, false
	}
	fields := strings.Fields(line)
	if len(fields) < 9 || fields[0] != "cpu" {
		return 0, 0, false
	}
	for i, fld := range fields[1:] {
		v, err := strconv.ParseUint(fld, 10, 64)
		if err != nil {
			return 0, 0, false
		}
		total += v
		if i == 7 {
			steal = v
		}
	}
	return steal, total, true
}

// meter reads a measured phase whole: the verified-window rate and the
// CPU time per verified window are ratios of sums over the phase, so a
// cost that comes in bursts (a GC cycle, a stall) is charged in full.
// It also records the host's stolen CPU share over the phase, the
// context for a run's figures: on a shared host a neighbour's load comes
// and goes in regimes lasting minutes and slows every timing figure by
// 15-25% while it lasts.
type meter struct {
	verified atomic.Int64 // windows verified so far

	t             [2]int64
	cpu           [2]time.Duration
	steal, jiffie [2]uint64
}

func startMeter() *meter {
	m := &meter{}
	m.sample(0)
	return m
}

func (m *meter) sample(i int) {
	m.steal[i], m.jiffie[i], _ = readSteal()
	m.t[i] = now()
	m.cpu[i] = cpuTime()
}

// finish ends the phase.
func (m *meter) finish() { m.sample(1) }

// runSteal is the stolen share of the host's CPU time over the phase.
func (m *meter) runSteal() float64 {
	if dt := m.jiffie[1] - m.jiffie[0]; dt > 0 {
		return float64(m.steal[1]-m.steal[0]) / float64(dt)
	}
	return 0
}

// rates returns verified windows/s and CPU µs per verified window over
// the phase.
func (m *meter) rates() (wps, cpuUsPerWindow float64) {
	v := m.verified.Load()
	if dt := m.t[1] - m.t[0]; dt > 0 {
		wps = float64(v) * 1e9 / float64(dt)
	}
	if v > 0 {
		cpuUsPerWindow = us(m.cpu[1]-m.cpu[0]) / float64(v)
	}
	return wps, cpuUsPerWindow
}

// leastStolen lists, in order, the set-ups setup_s is read from, given
// the CPU time stolen during each: the steal-free ones, or the
// least-stolen fifth when fewer are steal-free.
func leastStolen(stolen []uint64) []int {
	n := len(stolen)
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool { return stolen[idx[a]] < stolen[idx[b]] })
	free := 0
	for free < n && stolen[idx[free]] == 0 {
		free++
	}
	out := idx[:min(max(free, (n+4)/5), n)]
	sort.Ints(out)
	return out
}
