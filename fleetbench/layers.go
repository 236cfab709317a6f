package main

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"runtime/metrics"
	"time"

	"varade/internal/detect"
	"varade/internal/serve"
	"varade/internal/stream"
	"varade/internal/tensor"
)

// layerSnap is every layer's exported state at one instant, read from
// outside through public functions only.
type layerSnap struct {
	srv    promSnap // all backends' Server.WritePrometheus, concatenated
	rt     promSnap // Router.WritePrometheus (empty for a direct fleet)
	stages stageSnap
}

func (f *fleet) snap() layerSnap {
	s := layerSnap{stages: readStages()}
	for _, srv := range f.srvs {
		s.srv = append(s.srv, scrape(func(b *bytes.Buffer) { srv.WritePrometheus(b) })...)
	}
	if f.rt != nil {
		s.rt = scrape(func(b *bytes.Buffer) { f.rt.WritePrometheus(b) })
	}
	return s
}

// delta of a server-side family between the measure's snapshots.
func (m *measure) srvDelta(name string, match ...string) float64 {
	return m.end.srv.sum(name, match...) - m.start.srv.sum(name, match...)
}

// stageNsPerWindow is a serve-layer stage's ns/window over the measure.
func (m *measure) stageNsPerWindow(stage string) float64 {
	w := m.srvDelta("varade_serve_stage_windows_total", "stage", stage)
	if w <= 0 {
		return 0
	}
	return m.srvDelta("varade_serve_stage_ns_total", "stage", stage) / w
}

// stageNsPerBatch is a serve-layer stage's ns per coalesced batch.
func (m *measure) stageNsPerBatch(stage string) float64 {
	c := m.srvDelta("varade_serve_stage_calls_total", "stage", stage)
	if c <= 0 {
		return 0
	}
	return m.srvDelta("varade_serve_stage_ns_total", "stage", stage) / c
}

// nnDelta is one nn compute stage's (ns, windows) gained over the measure.
func (m *measure) nnDelta(stage, prec string) (ns, windows float64) {
	k := stage + "/" + prec
	a, b := m.start.stages[k], m.end.stages[k]
	return float64(b.Ns - a.Ns), float64(b.Windows - a.Windows)
}

// nnPrec maps serving precisions to the nn stage timers' labels.
var nnPrec = map[string]string{precF64: "f64", precF32: "f32", precInt8: "int8"}

// nnStages lists the compute stages each precision's program records.
var nnStages = map[string][]string{
	precF64:  {"pack", "gemm"},
	precF32:  {"pack", "gemm"},
	precInt8: {"quantize", "gemm", "requant"},
}

var allPrecs = []string{precF64, precF32, precInt8}

// layerReport derives every per-layer metric from a traced measure and
// prints the latency budget. lat is the client-observed latency sample
// (ms) the budget explains; rowsPerFrame the workload's frame shape.
func (p *pass) layerReport(m *measure, tr *clientTrace, wall time.Duration, readers, rowsPerFrame int, lat *weighted) {
	L := p.layer
	whole := m.whole
	if whole[1].srv == nil {
		whole = [2]layerSnap{m.start, m.end}
	}
	wholeSrv := func(name string) float64 { return whole[1].srv.sum(name) - whole[0].srv.sum(name) }

	// serve.Client
	sendP50 := median(tr.sendUs)
	L["client.send_us_p50"] = sendP50
	L["client.read_wait_share"] = tr.readWait.Seconds() / (wall.Seconds() * float64(readers))

	// serve
	for _, st := range []string{"admit_wait", "fill_wait", "score", "emit"} {
		L["serve."+st+"_ns_per_window"] = m.stageNsPerWindow(st)
	}
	batches := m.srvDelta("varade_batches_total")
	wpb := 0.0
	if batches > 0 {
		wpb = m.srvDelta("varade_windows_scored_total") / batches
	}
	L["serve.windows_per_batch"] = wpb
	coalP50 := histQuantile(m.start.srv, m.end.srv, "varade_coalesce_latency_ns", 0.5) / 1e6
	L["serve.coalesce_p50_ms"] = coalP50
	L["serve.samples_dropped"] = wholeSrv("varade_admission_drops_total")
	L["serve.scores_dropped"] = wholeSrv("varade_scores_dropped_total")
	for _, trig := range []string{"fill", "deadline", "drain"} {
		L["serve.flushes."+trig] = m.srvDelta("varade_sched_flushes_total", "trigger", trig)
	}
	L["serve.empty_wakeups"] = m.srvDelta("varade_sched_empty_wakeups_total")

	// route
	latP50 := lat.quantile(0.5)
	remainderUs := latP50*1000 - coalP50*1000 - sendP50
	L["route.relay_remainder_us_p50"] = remainderUs
	L["route.relay_dropped_frames"] = whole[1].rt.sum("varade_router_relay_dropped_frames_total") - whole[0].rt.sum("varade_router_relay_dropped_frames_total")
	L["route.handoffs"] = 0
	if p.f.rt != nil {
		n, _, _ := p.f.rt.HandoffStats()
		L["route.handoffs"] = float64(n)
	}
	direct, routed := p.dialProbe()
	L["serve.session_setup_ms_p50"] = direct
	L["route.dial_overhead_ms_p50"] = 0
	if p.f.rt != nil {
		L["route.dial_overhead_ms_p50"] = routed - direct
	}

	// nn: compute-stage deltas over the measure.
	for _, prec := range allPrecs {
		for _, st := range nnStages[prec] {
			ns, w := m.nnDelta(st, nnPrec[prec])
			v := 0.0
			if w > 0 {
				v = ns / w
			}
			L[fmt.Sprintf("nn.%s_ns_per_window.%s", st, nnPrec[prec])] = v
		}
	}

	// proc
	verified := float64(p.verified)
	L["proc.allocs_per_window"] = float64(m.rtm1.allocs-m.rtm0.allocs) / math.Max(verified, 1)
	L["proc.gc_cycles"] = float64(m.rtm1.gcs - m.rtm0.gcs)
	L["proc.sched_wait_p99_us"] = schedWaitQuantile(m.rtm0, m.rtm1, 0.99) * 1e6
	if _, ok := L["gen.lag_p99_ms"]; !ok {
		L["gen.lag_p99_ms"] = 0 // closed loops have no schedule to fall behind
	}

	// Replays after the clock: codec, scorer, model shapes.
	p.codecReplay(rowsPerFrame, float64(tr.scores)/math.Max(float64(tr.frames), 1))
	p.scorerReplay(int(math.Round(wpb)))
	for _, prec := range allPrecs {
		fl, by := gemmCost(p.in.model.Config().Channels, p.in.w, p.in.model.Config().LayerMaps(), prec, math.Max(wpb, 1))
		L["tensor.gemm_flops_per_window."+nnPrec[prec]] = fl
		L["tensor.gemm_bytes_per_window."+nnPrec[prec]] = by
	}

	coalMeanUs := 0.0
	if n := m.srvDelta("varade_coalesce_latency_ns_count"); n > 0 {
		coalMeanUs = m.srvDelta("varade_coalesce_latency_ns_sum") / n / 1000
	}
	p.budget(m, lat.mean()*1000, mean(tr.sendUs), coalMeanUs)
}

// budget prints where the mean window's latency went and records each
// row. Means, not medians, so that the rows add. Rows measured by the
// layers: client send (span), admit_wait, fill_wait, compute (batch
// scoring time, split into nn stages and the core glue around them),
// emit. The route row is by difference: client latency minus the
// backend's coalesce latency (window ready → scored) and the send span,
// less the backend stages that lie outside coalesce (admit_wait, emit).
// On a direct fleet there is no router and that residual stays
// unattributed.
func (p *pass) budget(m *measure, totalUs, sendUs, coalUs float64) {
	L := p.layer
	admit := L["serve.admit_wait_ns_per_window"] / 1000
	fill := L["serve.fill_wait_ns_per_window"] / 1000
	scoreBatch := m.stageNsPerBatch("score") / 1000
	emit := m.stageNsPerBatch("emit") / 1000
	scoreCalls := m.srvDelta("varade_serve_stage_calls_total", "stage", "score")
	type row struct {
		name string
		us   float64
	}
	var comp []row
	nnSum := 0.0
	for _, prec := range allPrecs {
		for _, st := range nnStages[prec] {
			ns, _ := m.nnDelta(st, nnPrec[prec])
			if ns <= 0 || scoreCalls <= 0 {
				continue
			}
			v := ns / scoreCalls / 1000
			nnSum += v
			comp = append(comp, row{"compute." + st + "." + nnPrec[prec], v})
		}
	}
	comp = append(comp, row{"compute.core", scoreBatch - nnSum})
	route := 0.0
	if p.f.rt != nil {
		route = totalUs - coalUs - sendUs - admit - emit
	}
	rows := []row{{"client_send", sendUs}, {"route_remainder", route}, {"admit_wait", admit}, {"fill_wait", fill}}
	rows = append(rows, comp...)
	rows = append(rows, row{"emit", emit})
	sum := 0.0
	for _, r := range rows {
		sum += r.us
	}
	unattr := totalUs - sum
	rows = append(rows, row{"unattributed", unattr})
	p.printf("budget (%s, mean window, us): total %.1f; route_remainder is by difference", p.sp.name, totalUs)
	for _, r := range rows {
		share := 0.0
		if totalUs > 0 {
			share = 100 * r.us / totalUs
		}
		p.printf("  %-24s %10.1f us %6.1f%%", r.name, r.us, share)
	}
	share := 0.0
	if totalUs > 0 {
		share = math.Abs(unattr) / totalUs
	}
	p.printf("  unattributed share %.1f%% (target <= 15%%, not gated)", 100*share)
	L["budget.total_us"] = totalUs
	L["budget.client_send_us"] = sendUs
	L["budget.route_remainder_us"] = route
	L["budget.admit_wait_us"] = admit
	L["budget.fill_wait_us"] = fill
	L["budget.compute_us"] = scoreBatch
	L["budget.compute.nn_us"] = nnSum
	L["budget.emit_us"] = emit
	L["budget.unattributed_us"] = unattr
	L["budget.unattributed_share"] = share
}

// dialProbe times DialWith straight to a backend and, on a routed
// fleet, through the router: session setup at the backend and the
// router's placement overhead on top of it. Returns p50s in ms.
func (p *pass) dialProbe() (directMs, routedMs float64) {
	const n = 20
	once := func(addr string) []float64 {
		var out []float64
		for i := 0; i < n; i++ {
			t0 := time.Now()
			cl, err := dial(context.Background(), addr, precF64)
			if err != nil {
				continue
			}
			out = append(out, ms(time.Since(t0)))
			_ = cl.Bye() // a failed Bye ends the read loop below just the same
			for {
				if _, err := cl.ReadScores(); err != nil {
					break
				}
			}
			cl.Close()
		}
		return out
	}
	directMs = median(once(p.f.addrs[0]))
	if p.f.rt != nil {
		routedMs = median(once(p.f.front))
	}
	return directMs, routedMs
}

// codecReplay times the public stream codec on the workload's own frame
// shape and on Scores frames of the mean size the clients read.
func (p *pass) codecReplay(rowsPerFrame int, scoresPerFrame float64) {
	L := p.layer
	st := p.in.streams[0]
	c := p.in.model.Config().Channels
	frames := max(1, 4096/rowsPerFrame)
	payloads := make([][]byte, frames)
	allocs := []metrics.Sample{{Name: "/gc/heap/allocs:objects"}}
	readAllocs := func() uint64 { metrics.Read(allocs); return allocs[0].Value.Uint64() }

	a0 := readAllocs()
	t0 := time.Now()
	for i := range payloads {
		off := (i * rowsPerFrame) % (loopRows - rowsPerFrame + 1)
		// Rows are c wide by construction, the encoder's only error.
		payloads[i], _ = stream.EncodeSamplesPayload(st.rows[off:off+rowsPerFrame], c)
	}
	enc := time.Since(t0)
	t0 = time.Now()
	for _, pl := range payloads {
		stream.DecodeSamplesPayload(pl, c)
	}
	dec := time.Since(t0)
	a1 := readAllocs()
	rows := float64(frames * rowsPerFrame)
	L["stream.encode_samples_ns_per_row"] = float64(enc) / rows
	L["stream.decode_samples_ns_per_row"] = float64(dec) / rows
	L["stream.allocs_per_frame"] = float64(a1-a0) / float64(frames)

	perFrame := max(1, int(math.Round(scoresPerFrame)))
	scores := make([]stream.Score, perFrame)
	for i := range scores {
		scores[i] = stream.Score{Index: i + p.in.w - 1, Value: st.oracle[i]}
	}
	spl := stream.EncodeScoresPayload(scores)
	reps := max(1, 200000/perFrame)
	t0 = time.Now()
	for i := 0; i < reps; i++ {
		stream.DecodeScoresPayload(spl)
	}
	L["stream.decode_scores_ns_per_score"] = float64(time.Since(t0)) / float64(reps*perFrame)
	const head = 5 + 4 // frame header + count
	L["stream.bytes_per_window"] = float64(c*8) + float64(head)/float64(rowsPerFrame) + 16 + float64(head)/float64(perFrame)
}

// scorerReplay times Scorer.ScoreBatch on the workload's own windows at
// the batch size its server formed, for every precision (float32 and
// int8 through ScoreBatch32, as the coalescer calls them).
func (p *pass) scorerReplay(batch int) {
	batch = min(max(batch, 1), detect.BatchChunk)
	st := p.in.streams[0]
	w, c := p.in.w, p.in.model.Config().Channels
	wins := tensor.New(batch, w, c)
	wd := wins.Data()
	for j := 0; j < batch; j++ {
		for r := 0; r < w; r++ {
			copy(wd[(j*w+r)*c:], st.rows[(j+r)%loopRows])
		}
	}
	wins32 := tensor.Convert[float32](wins)
	path, _, err := p.f.reg.Resolve(modelName, 0)
	if err != nil {
		return
	}
	for _, prec := range allPrecs {
		// A fresh copy of the served model per precision, re-targeted the
		// way the server derives its serving groups.
		det, err := serve.LoadDetector(path)
		if err != nil {
			continue
		}
		model, ok := det.(interface{ SetPrecision(string) error })
		if !ok || model.SetPrecision(prec) != nil {
			continue
		}
		sc := detect.AsScorer(det)
		call := func() {
			if prec == precF64 {
				sc.ScoreBatch(wins)
			} else {
				sc.ScoreBatch32(wins32)
			}
		}
		call() // compile, and calibrate the int8 lane
		n := 0
		t0 := time.Now()
		for time.Since(t0) < 100*time.Millisecond {
			call()
			n++
		}
		p.layer["detect.score_batch_ns_per_window."+nnPrec[prec]] = float64(time.Since(t0)) / float64(n*batch)
	}
}

// gemmCost is the model's GEMM work per window, computed from its shapes
// (not measured): each conv layer (kernel 2, stride 2) is one im2col
// GEMM of out-positions × (in·2) × out-maps, the head one of
// features × outputs (the reduced-precision programs keep only the
// log-variance half of the head). Bytes count operands and results at
// the precision's element size, with weights amortised over the batch.
func gemmCost(channels, window int, maps []int, prec string, batch float64) (flops, bytes float64) {
	elemA, elemW, elemC := 8.0, 8.0, 8.0
	switch prec {
	case precF32:
		elemA, elemW, elemC = 4, 4, 4
	case precInt8:
		elemA, elemW, elemC = 1, 1, 4
	}
	add := func(m, k, n float64) {
		flops += 2 * m * k * n
		bytes += m*k*elemA + m*n*elemC + k*n*elemW/batch
	}
	in, length := float64(channels), float64(window)
	for _, out := range maps {
		length /= 2
		add(length, in*2, float64(out))
		in = float64(out)
	}
	heads := 2 * float64(channels)
	if prec != precF64 {
		heads = float64(channels)
	}
	add(1, in*length, heads)
	return flops, bytes
}
