package main

import (
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"sort"
	"time"

	"varade"
	"varade/internal/baselines/arlstm"
	"varade/internal/core"
	"varade/internal/detect"
	"varade/internal/fleetlane"
	"varade/internal/obs"
	"varade/internal/tensor"
)

// The machine-readable benchmark suite: `varade-bench -exp bench -json
// BENCH_pr3.json` runs the precision-axis micro-benchmarks and writes one
// JSON object per benchmark, so the perf trajectory is trackable across
// PRs without parsing `go test -bench` text output.
//
// Timing is deliberately noise-robust for shared/1-core CI boxes: each
// benchmark runs a fixed iteration count for several rounds and records
// the fastest round (scheduler preemption and neighbour load only ever
// slow a round down, so the minimum is the least-contended estimate).

// BenchResult is one benchmark's machine-readable record.
type BenchResult struct {
	Name          string  `json:"name"`
	NsPerOp       float64 `json:"ns_per_op"`
	AllocsPerOp   int64   `json:"allocs_per_op"`
	WindowsPerSec float64 `json:"windows_per_sec,omitempty"`
	Iterations    int     `json:"iterations"`
	Rounds        int     `json:"rounds"`
	// StageNsPerWindow breaks the op down by compute stage (quantize,
	// pack, gemm, requant) as ns/window, sampled from the process-global
	// stage timers over one profiled run. Absent in pre-PR-7 baselines
	// and for benchmarks without a windows metric.
	StageNsPerWindow map[string]float64 `json:"stage_ns_per_window,omitempty"`
	// P50/P99CoalesceMs are the server-measured coalesce-latency
	// percentiles for serving lanes with bursty admission. Informational:
	// -diff renders them but never gates on them (latency under sleeps is
	// too host-sensitive for a hard threshold). Absent elsewhere.
	P50CoalesceMs float64 `json:"p50_coalesce_ms,omitempty"`
	P99CoalesceMs float64 `json:"p99_coalesce_ms,omitempty"`
	// Handoffs/HandoffP99Ms are the failover lane's hand-off plane: how
	// many sessions the router re-placed after the mid-run backend kill
	// and the router-measured detection-to-warmed p99. Informational like
	// the coalesce percentiles: -diff renders them but never gates (dial
	// and scheduler costs dominate and are host-sensitive). Absent
	// elsewhere.
	Handoffs     int64   `json:"handoffs,omitempty"`
	HandoffP99Ms float64 `json:"handoff_p99_ms,omitempty"`
}

const (
	benchRounds      = 5
	benchTargetRound = 400 * time.Millisecond
)

// snapStages folds the process-global compute-stage timers into
// per-stage {ns, windows} totals (summed over precisions — a single
// benchmark case only moves one precision's timers).
func snapStages() map[string][2]int64 {
	out := make(map[string][2]int64)
	for _, st := range obs.StagesSnapshot() {
		cur := out[st.Stage]
		cur[0] += st.Ns
		cur[1] += st.Windows
		out[st.Stage] = cur
	}
	return out
}

// stageProfile runs fn once and attributes the compute-stage time that
// accrued to it, as ns/window per stage. Stages the run never touched
// produce no delta and stay out of the map; nil when nothing moved.
func stageProfile(fn func(iters int)) map[string]float64 {
	before := snapStages()
	fn(1)
	after := snapStages()
	var out map[string]float64
	for stage, a := range after {
		b := before[stage]
		if dn, dw := a[0]-b[0], a[1]-b[1]; dn > 0 && dw > 0 {
			if out == nil {
				out = make(map[string]float64)
			}
			out[stage] = float64(dn) / float64(dw)
		}
	}
	return out
}

// benchCase is one suite entry.
type benchCase struct {
	name    string
	windows int // per op, 0 for non-streaming benchmarks
	fn      func(iters int)
}

// measureSuite times every case over benchRounds interleaved rounds
// (case A round 1, case B round 1, …, case A round 2, …) and keeps each
// case's fastest round. Interleaving matters on shared hosts: slow spells
// hit neighbouring cases equally instead of biasing whichever case ran
// during the throttled window, so cross-case ratios stay meaningful.
func measureSuite(cases []benchCase) []BenchResult {
	iters := make([]int, len(cases))
	allocs := make([]int64, len(cases))
	best := make([]time.Duration, len(cases))
	for i, c := range cases {
		c.fn(1) // warm caches, pools and lazily compiled programs
		start := time.Now()
		c.fn(1)
		per := time.Since(start)
		iters[i] = 1
		if per > 0 {
			iters[i] = int(benchTargetRound / per)
		}
		if iters[i] < 1 {
			iters[i] = 1
		}
		var ms0, ms1 runtime.MemStats
		runtime.ReadMemStats(&ms0)
		c.fn(1)
		runtime.ReadMemStats(&ms1)
		allocs[i] = int64(ms1.Mallocs - ms0.Mallocs)
		best[i] = 1<<62 - 1
	}
	for r := 0; r < benchRounds; r++ {
		for i, c := range cases {
			t0 := time.Now()
			c.fn(iters[i])
			if d := time.Since(t0); d < best[i] {
				best[i] = d
			}
		}
	}
	results := make([]BenchResult, len(cases))
	for i, c := range cases {
		res := BenchResult{
			Name:        c.name,
			NsPerOp:     float64(best[i].Nanoseconds()) / float64(iters[i]),
			AllocsPerOp: allocs[i],
			Iterations:  iters[i],
			Rounds:      benchRounds,
		}
		if c.windows > 0 && res.NsPerOp > 0 {
			res.WindowsPerSec = float64(c.windows) * 1e9 / res.NsPerOp
		}
		results[i] = res
	}
	return results
}

func runBenchSuite(jsonPath string, seed uint64) error {
	// A small fitted model shared by the score-stream benchmarks: seeded
	// initialisation scores at the same cost as a trained one.
	const channels = 17
	model, err := core.New(core.EdgeConfig(channels))
	if err != nil {
		return err
	}
	rng := tensor.NewRNG(seed)
	// 16384 steps ≈ 2.2 MB of float64 stream: comfortably past the L2 a
	// 1-core container gets, so the float64 path pays its full memory
	// bandwidth and the precision comparison is stable run to run instead
	// of hinging on cache-residency luck.
	series := tensor.New(16384, channels)
	sd := series.Data()
	for i := range sd {
		sd[i] = rng.NormFloat64()
	}
	windows := series.Dim(0)

	scoreStream := func(precision string) func(iters int) {
		return func(iters int) {
			if err := model.SetPrecision(precision); err != nil {
				panic(err)
			}
			for i := 0; i < iters; i++ {
				detect.ScoreSeriesBatched(model, series)
			}
		}
	}

	// The AR-LSTM baseline rides the small-product TransB fast path: its
	// per-step gate GEMMs are far below the packed-engine threshold, so
	// this case tracks the small-matrix kernels the VARADE cases never
	// exercise. A shorter stream keeps the recurrent cost in budget.
	lstm, err := arlstm.New(arlstm.EdgeConfig(channels))
	if err != nil {
		return err
	}
	lstmSeries := series.SliceRows(0, 4096)
	lstmWindows := lstmSeries.Dim(0)

	const mmN = 128
	x64 := tensor.RandNormal(tensor.NewRNG(1), 0, 1, mmN, mmN)
	y64 := tensor.RandNormal(tensor.NewRNG(2), 0, 1, mmN, mmN)
	dst64 := tensor.New(mmN, mmN)
	x32 := tensor.Convert[float32](x64)
	y32 := tensor.Convert[float32](y64)
	dst32 := tensor.NewOf[float32](mmN, mmN)

	suite := []benchCase{
		{"MatMul128", 0, func(n int) {
			for i := 0; i < n; i++ {
				tensor.MatMulInto(dst64, x64, y64)
			}
		}},
		{"MatMul128F32", 0, func(n int) {
			for i := 0; i < n; i++ {
				tensor.MatMulInto(dst32, x32, y32)
			}
		}},
		{"MatMulTransB128", 0, func(n int) {
			for i := 0; i < n; i++ {
				tensor.MatMulTransBInto(dst64, x64, y64)
			}
		}},
		{"MatMulTransB128F32", 0, func(n int) {
			for i := 0; i < n; i++ {
				tensor.MatMulTransBInto(dst32, x32, y32)
			}
		}},
		{"Figure3ScoreStream", windows, scoreStream(varade.PrecisionFloat64)},
		{"Figure3ScoreStreamF32", windows, scoreStream(varade.PrecisionFloat32)},
		{"Figure3ScoreStreamInt8", windows, scoreStream(varade.PrecisionInt8)},
		{"ARLSTMScoreStream", lstmWindows, func(n int) {
			for i := 0; i < n; i++ {
				detect.ScoreSeriesBatched(lstm, lstmSeries)
			}
		}},
	}

	results := measureSuite(suite)
	// One extra profiled run per streaming case attributes the measured
	// time to pipeline stages — after timing, so the stage-timer atomics
	// (negligible as they are) can't colour the headline numbers.
	for i, c := range suite {
		if c.windows > 0 {
			results[i].StageNsPerWindow = stageProfile(c.fn)
		}
	}

	// The serving lanes run as their own phase, each on a fresh fleet from
	// internal/fleetlane (the harness the root BenchmarkFleet* functions
	// run): a live fleet server (per-group flusher tickers, 64 session
	// goroutine trios) must not steal cycles from the single-threaded
	// numeric cases above. The routed lane is rendered by -diff/-trend
	// for the sharding trajectory but never gated (the relay hop's cost
	// is host-sensitive); the bursty lane's throughput is informational
	// (the op includes deliberate idle gaps) and its numbers that matter
	// are the server-measured coalesce percentiles against the 5ms SLO.
	for _, l := range []struct {
		name string
		lane fleetlane.Lane
	}{
		{"FleetServeMixed64", fleetlane.Mixed},
		{"FleetServeRouted64", fleetlane.Routed},
		{"FleetServeBursty64", fleetlane.Bursty},
	} {
		res, err := replayLane(l.name, l.lane, seed)
		if err != nil {
			return fmt.Errorf("%s: %w", l.name, err)
		}
		results = append(results, res)
	}
	foRes, err := failoverLane(seed)
	if err != nil {
		return fmt.Errorf("%s: %w", foRes.Name, err)
	}
	results = append(results, foRes)

	// Which micro-kernel family produced these numbers: cross-runner
	// comparisons are only meaningful on the same dispatch.
	fmt.Printf("gemm kernel: %s, qgemm kernel: %s\n", tensor.GemmKernelName(), tensor.QGemmKernelName())
	for _, res := range results {
		if res.WindowsPerSec > 0 {
			fmt.Printf("%-24s %12.0f ns/op %8d allocs/op %12.0f windows/s\n",
				res.Name, res.NsPerOp, res.AllocsPerOp, res.WindowsPerSec)
		} else {
			fmt.Printf("%-24s %12.0f ns/op %8d allocs/op\n", res.Name, res.NsPerOp, res.AllocsPerOp)
		}
		if res.P99CoalesceMs > 0 {
			fmt.Printf("  · %-20s %12.3f ms p50 %10.3f ms p99\n", "coalesce latency", res.P50CoalesceMs, res.P99CoalesceMs)
		}
		if res.Handoffs > 0 {
			fmt.Printf("  · %-20s %12d sessions %9.3f ms p99\n", "hand-off", res.Handoffs, res.HandoffP99Ms)
		}
		if len(res.StageNsPerWindow) > 0 {
			stages := make([]string, 0, len(res.StageNsPerWindow))
			for s := range res.StageNsPerWindow {
				stages = append(stages, s)
			}
			sort.Strings(stages)
			for _, s := range stages {
				fmt.Printf("  · %-20s %12.0f ns/window\n", s, res.StageNsPerWindow[s])
			}
		}
	}

	if jsonPath != "" {
		blob, err := json.MarshalIndent(map[string]any{
			"gemm_kernel":  tensor.GemmKernelName(),
			"qgemm_kernel": tensor.QGemmKernelName(),
			"benchmarks":   results,
		}, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(jsonPath, append(blob, '\n'), 0o644); err != nil {
			return err
		}
		fmt.Printf("\nwrote %s\n", jsonPath)
	}
	return nil
}

// replayLane times the lane's Replay op on a fresh fleet. The mixed lane
// also gets a stage profile; the bursty lane records its coalesce
// percentiles.
func replayLane(name string, lane fleetlane.Lane, seed uint64) (BenchResult, error) {
	f, err := fleetlane.New(lane, seed)
	if err != nil {
		return BenchResult{}, err
	}
	defer f.Close()
	var opErr error
	op := func(iters int) {
		for i := 0; i < iters && opErr == nil; i++ {
			_, opErr = f.Replay()
		}
	}
	res := measureSuite([]benchCase{{name, fleetlane.Sessions * fleetlane.Steps, op}})[0]
	if lane == fleetlane.Mixed {
		res.StageNsPerWindow = stageProfile(op)
	}
	if lane.Bursty {
		m := f.Metrics()
		res.P50CoalesceMs, res.P99CoalesceMs = m.P50CoalesceMs, m.P99CoalesceMs
	}
	return res, opErr
}

// failoverLane runs the one-shot failover op on a fresh routed fleet: a
// backend only dies once per fleet, so the figures are a single survival
// sample rather than a min-of-rounds estimate. windows/s counts scores
// actually received across the kill; the hand-off columns come from the
// router's own counters.
func failoverLane(seed uint64) (BenchResult, error) {
	res := BenchResult{Name: "FleetServeFailover64", Iterations: 1, Rounds: 1}
	f, err := fleetlane.New(fleetlane.Routed, seed)
	if err != nil {
		return res, err
	}
	defer f.Close()
	fo, err := f.Failover()
	if err != nil {
		return res, err
	}
	res.NsPerOp = float64(fo.Elapsed.Nanoseconds())
	res.Handoffs = fo.Handoffs
	res.HandoffP99Ms = float64(fo.HandoffP99) / 1e6
	if fo.Elapsed > 0 {
		res.WindowsPerSec = float64(fo.Windows) / fo.Elapsed.Seconds()
	}
	return res, nil
}
