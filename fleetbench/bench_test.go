package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"math"
	"os"
	"strings"
	"testing"
	"time"

	"varade/internal/core"
	"varade/internal/detect"
	"varade/internal/stream"
	"varade/internal/tensor"
)

func ascending(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	return xs
}

func TestTailRule(t *testing.T) {
	cases := []struct {
		n          int
		want       float64
		pct, value float64
		beyond     int
	}{
		{n: 1000, want: 99, pct: 99, value: 990, beyond: 10},
		{n: 999, want: 99, pct: 90, value: 900, beyond: 99}, // rank 990 leaves only 9 beyond
		{n: 10000, want: 99.9, pct: 99.9, value: 9990, beyond: 10},
		{n: 10000, want: 99, pct: 99, value: 9900, beyond: 100}, // never above what was asked
		{n: 20, want: 99, pct: 50, value: 10, beyond: 10},
		{n: 19, want: 99, pct: 0}, // nothing has 10 samples beyond it
		{n: 0, want: 99, pct: 0},
	}
	for _, c := range cases {
		got := tailAt(ascending(c.n), c.want)
		if got.Pct != c.pct || got.N != c.n {
			t.Fatalf("n=%d want p%g: got %+v, expected p%g", c.n, c.want, got, c.pct)
		}
		if c.pct > 0 && (got.Value != c.value || got.Beyond != c.beyond) {
			t.Fatalf("n=%d p%g: got value %g beyond %d, expected %g and %d", c.n, c.pct, got.Value, got.Beyond, c.value, c.beyond)
		}
		if c.pct > 0 && got.Beyond < minBeyond {
			t.Fatalf("n=%d: reported p%g with only %d beyond", c.n, got.Pct, got.Beyond)
		}
	}
}

func TestQuantileNearestRank(t *testing.T) {
	xs := ascending(10)
	for _, c := range []struct{ q, want float64 }{{0.5, 5}, {0.9, 9}, {0.91, 10}, {1, 10}, {0, 1}} {
		if got := quantile(xs, c.q); got != c.want {
			t.Fatalf("quantile(%g) = %g, want %g", c.q, got, c.want)
		}
	}
}

// okStep is a step that passes every clause of the sustained rule.
func okStep() stepOutcome {
	return stepOutcome{rate: 1000, owed: 100, ok: 100, backlogLimit: 20,
		tail: tail{Pct: 99, Value: 5, Beyond: 10, N: 1000}, lagP99Ms: 2}
}

func TestSustainedRule(t *testing.T) {
	if !okStep().sustained() {
		t.Fatal("a clean step must be sustained")
	}
	breakers := map[string]func(*stepOutcome){
		"shed":            func(s *stepOutcome) { s.shed = 1 },
		"router drop":     func(s *stepOutcome) { s.drops = 1 },
		"lost window":     func(s *stepOutcome) { s.ok = s.owed - 1 },
		"growing backlog": func(s *stepOutcome) { s.backlogGrowth = s.backlogLimit + 1 },
		"p99 over 20 ms":  func(s *stepOutcome) { s.tail.Value = sustainedP99Ms + 0.01 },
		"no tail at all":  func(s *stepOutcome) { s.tail = tail{N: 5} },
		"generator lag":   func(s *stepOutcome) { s.lagP99Ms = sustainedP99Ms + 0.01 },
		"aborted":         func(s *stepOutcome) { s.aborted = true },
	}
	for name, brk := range breakers {
		s := okStep()
		brk(&s)
		if s.sustained() {
			t.Fatalf("%s: step still counted as sustained", name)
		}
	}
	// p99 exactly at the bound still passes.
	s := okStep()
	s.tail.Value = sustainedP99Ms
	if !s.sustained() {
		t.Fatal("p99 == 20 ms must pass")
	}
}

func TestSustainedStepIsHighestPassingPrefix(t *testing.T) {
	bad := okStep()
	bad.shed = 3
	good := okStep()
	cases := []struct {
		steps []stepOutcome
		want  int
	}{
		{[]stepOutcome{good, good, good}, 2},
		{[]stepOutcome{good, good, bad, bad}, 1},
		{[]stepOutcome{good, bad, good, good}, 0}, // a pass above a failure is noise
		{[]stepOutcome{bad, good}, -1},
		{nil, -1},
	}
	for i, c := range cases {
		if got := sustainedStep(c.steps); got != c.want {
			t.Fatalf("case %d: sustainedStep = %d, want %d", i, got, c.want)
		}
	}
}

func TestBacklogGrowthIgnoresTransients(t *testing.T) {
	steady := []float64{2, 30, 1, 2, 3, 2, 1, 40, 2, 3, 1, 2}
	if g := backlogGrowth(steady); g != 0 {
		t.Fatalf("steady in-flight with spikes: growth %g, want 0", g)
	}
	rising := []float64{1, 2, 1, 10, 20, 30, 40, 50, 60, 70, 80, 90}
	if g := backlogGrowth(rising); g != 69 { // floor of the last quarter (70) minus the first's (1)
		t.Fatalf("rising backlog: growth %g, want 69", g)
	}
}

func tinyStream(t *testing.T, n int) (*core.Model, *sessionStream) {
	t.Helper()
	model, err := core.New(core.TinyConfig(3))
	if err != nil {
		t.Fatal(err)
	}
	rng := tensor.NewRNG(5)
	rows := make([][]float64, n)
	for i := range rows {
		rows[i] = []float64{rng.NormFloat64(), rng.NormFloat64(), rng.NormFloat64()}
	}
	return model, &sessionStream{rows: rows, oracle: loopOracle(model, rows)}
}

func series(rows [][]float64) *tensor.Tensor {
	s := tensor.New(len(rows), len(rows[0]))
	for i, r := range rows {
		copy(s.Row(i).Data(), r)
	}
	return s
}

func TestOracleAlignment(t *testing.T) {
	const n = 40
	model, st := tinyStream(t, n)
	w := model.WindowSize()
	direct := detect.ScoreSeries(model, series(st.rows))

	v := newVerifier(st, w, 0, precF64)
	// The first w−1 rows complete no window: nothing may be labelled there,
	// even though ScoreSeries pads those entries with its first score.
	for i := 0; i < w-1; i++ {
		if _, ok := v.expected(i); ok {
			t.Fatalf("index %d < w-1 must have no oracle", i)
		}
	}
	for i := w - 1; i < n; i++ {
		want, ok := v.expected(i)
		if !ok || math.Float64bits(want) != math.Float64bits(direct[i]) {
			t.Fatalf("index %d: oracle %v (%v), ScoreSeries %v", i, want, ok, direct[i])
		}
	}
	// Looped: the second pass's windows, seam included, are ScoreSeries'
	// over the stream played twice.
	twice := append(append([][]float64{}, st.rows...), st.rows...)
	loop := detect.ScoreSeries(model, series(twice))
	for i := n; i < 2*n; i++ {
		if want, _ := v.expected(i); math.Float64bits(want) != math.Float64bits(loop[i]) {
			t.Fatalf("looped index %d: oracle %v, ScoreSeries %v", i, want, loop[i])
		}
	}
	// A session starting at base b: its score i is the window ending at
	// stream row b+i.
	const base = 16
	vb := newVerifier(st, w, base, precF64)
	own := detect.ScoreSeries(model, series(st.rows[base:base+2*w]))
	for i := w - 1; i < 2*w; i++ {
		if want, _ := vb.expected(i); math.Float64bits(want) != math.Float64bits(own[i]) {
			t.Fatalf("base %d index %d: oracle %v, ScoreSeries %v", base, i, want, own[i])
		}
	}
}

func TestVerifierClassifies(t *testing.T) {
	model, st := tinyStream(t, 40)
	w := model.WindowSize()
	v := newVerifier(st, w, 0, precF64)
	good := func(i int) stream.Score { x, _ := v.expected(i); return stream.Score{Index: i, Value: x} }

	if v.check(stream.Score{Index: w - 2, Value: 1}) {
		t.Fatal("a score labelled before the first window must fail")
	}
	if !v.check(good(w - 1)) {
		t.Fatal("the first window's exact score must pass")
	}
	if v.check(good(w - 1)) {
		t.Fatal("a repeated index must fail as mislabelled")
	}
	next := good(w)
	next.Value = math.Nextafter(next.Value, math.Inf(1))
	if v.check(next) {
		t.Fatal("float64 one ulp off must fail")
	}
	if !v.check(good(w + 3)) {
		t.Fatal("a gap (missing windows) must not fail the next correct score")
	}
	if v.ok != 2 || v.mislabelled != 2 || v.wrongValue != 1 || v.f64Wrong != 1 {
		t.Fatalf("counts ok=%d mislabelled=%d wrong=%d f64=%d", v.ok, v.mislabelled, v.wrongValue, v.f64Wrong)
	}

	for _, c := range []struct {
		prec string
		rel  float64
		pass bool
	}{{precF32, 0.9e-4, true}, {precF32, 1.1e-4, false}, {precInt8, 0.19, true}, {precInt8, 0.21, false}} {
		if got := valueOK(c.prec, 1+c.rel, 1); got != c.pass {
			t.Fatalf("%s at rel %g: ok=%v, want %v", c.prec, c.rel, got, c.pass)
		}
	}
}

func TestWindowsOwed(t *testing.T) {
	for _, c := range []struct{ rows, want int }{{0, 0}, {7, 0}, {8, 1}, {256, 249}} {
		if got := windowsOwed(c.rows, 8); got != c.want {
			t.Fatalf("windowsOwed(%d) = %d, want %d", c.rows, got, c.want)
		}
	}
}

func testEnv() Env {
	return Env{CPUModel: "cpu A", NProc: 2, GOMAXPROCS: 2, GoVersion: "go1.24.0", Kernel: "6.1",
		GemmKernel: "avx2", QGemmKernel: "avx2", Seed: 1}
}

func record(env Env, v float64) Record {
	return Record{Env: env, Workload: "bulk-direct",
		Result: Result{Correct: true, Attempted: 1, Metrics: map[string]Metric{"windows_per_s": {Value: v, Unit: "windows/s"}}}}
}

func TestCompareRefusesEnvironmentMismatch(t *testing.T) {
	a := testEnv()
	// Another seed is the same environment.
	b := a
	b.Seed = 9
	var out bytes.Buffer
	if err := compare(&out, record(a, 100), record(b, 110)); err != nil {
		t.Fatalf("same environment, other seed: %v", err)
	}
	if !strings.Contains(out.String(), "+10.0%") {
		t.Fatalf("missing delta in %q", out.String())
	}
	for name, mutate := range map[string]func(*Env){
		"cpu":        func(e *Env) { e.CPUModel = "cpu B" },
		"nproc":      func(e *Env) { e.NProc = 4 },
		"gomaxprocs": func(e *Env) { e.GOMAXPROCS = 1 },
		"go":         func(e *Env) { e.GoVersion = "go1.23.0" },
		"kernel":     func(e *Env) { e.Kernel = "5.15" },
		"gemm":       func(e *Env) { e.GemmKernel = "generic" },
		"qgemm":      func(e *Env) { e.QGemmKernel = "generic" },
	} {
		c := a
		mutate(&c)
		out.Reset()
		err := compare(&out, record(a, 100), record(c, 110))
		var mm errEnvMismatch
		if !errors.As(err, &mm) || len(mm) != 1 {
			t.Fatalf("%s differs: err = %v, want one mismatch", name, err)
		}
		if out.Len() != 0 {
			t.Fatalf("%s differs: refused compare still printed %q", name, out.String())
		}
	}
}

func TestPromParsingAndHistogramDelta(t *testing.T) {
	a := parseProm(`# TYPE x_total counter
x_total{stage="fill",group="g"} 3
x_total{stage="score",group="g"} 5
h_bucket{group="g",le="10"} 1
h_bucket{group="g",le="20"} 2
h_bucket{group="g",le="+Inf"} 2
`)
	b := parseProm(`x_total{stage="fill",group="g"} 10
x_total{stage="score",group="g"} 6
h_bucket{group="g",le="10"} 2
h_bucket{group="g",le="20"} 11
h_bucket{group="g",le="+Inf"} 12
`)
	if got := b.sum("x_total", "stage", "fill") - a.sum("x_total", "stage", "fill"); got != 7 {
		t.Fatalf("fill delta %g, want 7", got)
	}
	if got := b.sum("x_total"); got != 16 {
		t.Fatalf("family sum %g, want 16", got)
	}
	// Delta: 1 obs ≤10, 8 in (10,20], 1 above. Median falls in the 20 bucket.
	if got := histQuantile(a, b, "h", 0.5); got != 20 {
		t.Fatalf("delta median %g, want 20", got)
	}
	if got := histQuantile(a, b, "h", 0.1); got != 10 {
		t.Fatalf("delta p10 %g, want 10", got)
	}
}

func TestGemmCostFromShapes(t *testing.T) {
	// EdgeConfig over 17 channels: conv 17→16 on 8→4 positions, conv
	// 16→16 on 4→2, head 32→34 (float64) or its 17-row log-variance half.
	fl, _ := gemmCost(17, 8, []int{16, 16}, precF64, 1)
	if want := 2.0 * (4*34*16 + 2*32*16 + 32*34); fl != want {
		t.Fatalf("f64 flops %g, want %g", fl, want)
	}
	fl8, _ := gemmCost(17, 8, []int{16, 16}, precInt8, 1)
	if want := 2.0 * (4*34*16 + 2*32*16 + 32*17); fl8 != want {
		t.Fatalf("int8 flops %g, want %g", fl8, want)
	}
}

// BENCHMARK.json at the repository root must describe what the program
// runs and reports: workloads it knows and, by name, unit and direction,
// exactly its end-to-end and per-layer metrics. (bulk-direct is left
// out of the gated set: see README.)
func TestBenchmarkJSONMatchesProgram(t *testing.T) {
	blob, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skipf("no BENCHMARK.json beside the benchmark: %v", err)
	}
	var b struct {
		Workloads []struct{ Name string }
		EndToEnd  []metricJSON `json:"end_to_end"`
		PerLayer  []metricJSON `json:"per_layer"`
	}
	if err := json.Unmarshal(blob, &b); err != nil {
		t.Fatal(err)
	}
	if len(b.Workloads) < 2 {
		t.Fatalf("%d workloads listed, want at least 2", len(b.Workloads))
	}
	for _, w := range b.Workloads {
		if _, ok := findSpec(w.Name); !ok {
			t.Fatalf("workload %q listed, program has no such workload", w.Name)
		}
	}
	same := func(kind string, listed []metricJSON, defs []metricDef) {
		if len(listed) != len(defs) {
			t.Fatalf("%s: %d listed, program reports %d", kind, len(listed), len(defs))
		}
		for i, m := range listed {
			d := defs[i]
			if m.Name != d.name || m.Unit != d.unit || m.Better != d.better {
				t.Fatalf("%s %d: listed %+v, program %s %s %s", kind, i, m, d.name, d.unit, d.better)
			}
		}
	}
	same("end_to_end", b.EndToEnd, e2eMetrics)
	same("per_layer", b.PerLayer, layerMetrics)
}

type metricJSON struct {
	Name, Unit, Better string
}

func TestMeterReadsWholePhase(t *testing.T) {
	// 500 windows verified over 2 s at 10 ms of CPU; half the host's CPU
	// time stolen.
	m := &meter{t: [2]int64{0, int64(2 * time.Second)}, cpu: [2]time.Duration{0, 10 * time.Millisecond},
		steal: [2]uint64{10, 110}, jiffie: [2]uint64{1000, 1200}}
	m.verified.Store(500)
	if wps, cpu := m.rates(); wps != 250 || cpu != 20 {
		t.Fatalf("read %g windows/s at %g µs/window, want 250 and 20", wps, cpu)
	}
	if got := m.runSteal(); got != 0.5 {
		t.Fatalf("stolen share %g, want 0.5", got)
	}
	// A CPU burst anywhere in the phase (a GC cycle, say) is charged in
	// full.
	m.cpu[1] += 5 * time.Millisecond
	if _, cpu := m.rates(); cpu != 30 {
		t.Fatalf("with a 5 ms burst: %g µs/window, want 30", cpu)
	}
}

func TestLifecycleRate(t *testing.T) {
	if got := lifecycleRate(2, 4); got != 500 {
		t.Fatalf("2 loops at 4 ms a lifecycle: %g sessions/s, want 500", got)
	}
	if got := lifecycleRate(2, 0); got != 0 {
		t.Fatalf("no lifecycle: %g sessions/s, want 0", got)
	}
}

func TestSetupReadsLeastStolen(t *testing.T) {
	if got := leastStolen([]uint64{0, 0, 3, 2, 0, 0, 0, 0, 5, 0}); len(got) != 7 || got[2] != 4 {
		t.Fatalf("read %v, want the 7 steal-free set-ups", got)
	}
	// Every set-up stolen: the least-stolen fifth (2 of 10) is read.
	if got := leastStolen([]uint64{4, 1, 3, 3, 3, 1, 3, 3, 3, 3}); len(got) != 2 || got[0] != 1 || got[1] != 5 {
		t.Fatalf("no steal-free set-up: read %v, want [1 5]", got)
	}
}
