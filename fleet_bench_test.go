package varade

// Fleet-serving benchmarks: the scaling story of the serving subsystem.
// Every serving lane is built and driven by internal/fleetlane, the same
// harness `varade-bench -exp bench` times.
//
//	BenchmarkFleetServe64      — 64 concurrent device sessions through the
//	                             fleet server, windows coalesced across
//	                             sessions into batched forward passes
//	BenchmarkFleetPerDevice64  — the same 64 streams through 64 independent
//	                             per-device runners (the scalar Push path),
//	                             i.e. the aggregate a fleet of standalone
//	                             processes achieves on the same cores
//
// Both report windows/s on identical work, so the ratio is the serving
// layer's coalescing win. Run with:
//
//	go test -run='^$' -bench=Fleet -benchtime=1x
import (
	"testing"

	"varade/internal/fleetlane"
	"varade/internal/stream"
)

func BenchmarkFleetServe64(b *testing.B) { benchFleetLane(b, fleetlane.Lane{Precision: "float64"}) }

// BenchmarkFleetServe64F32 serves the same fleet from a float32 model:
// the coalescer assembles float32 batches and scores through the
// reduced-precision engine.
func BenchmarkFleetServe64F32(b *testing.B) { benchFleetLane(b, fleetlane.Lane{Precision: "float32"}) }

// BenchmarkFleetServe64Int8 serves the fleet from an int8-quantized
// registry entry (the registry file itself is the VMF2 int8 container).
func BenchmarkFleetServe64Int8(b *testing.B) { benchFleetLane(b, fleetlane.Lane{Precision: "int8"}) }

// BenchmarkFleetServeMixed64 is the negotiated-session shape: ONE
// float64 registry entry, 64 protocol-v2 sessions requesting
// float64/float32/int8 round-robin, each precision coalesced in its own
// derived serving group.
func BenchmarkFleetServeMixed64(b *testing.B) { benchFleetLane(b, fleetlane.Mixed) }

// BenchmarkFleetServeBursty64 is the closed-loop scheduler's lane: the
// mixed fleet admits windows in 12-row bursts with idle gaps under a 5ms
// p99 SLO and a deliberately hopeless 50ms fallback flush interval, so
// every latency bound comes from the deadline scheduler. Reports the
// server-measured p50/p99 coalesce latency alongside windows/s (the
// throughput includes the idle gaps and is informational).
func BenchmarkFleetServeBursty64(b *testing.B) { benchFleetLane(b, fleetlane.Bursty) }

// BenchmarkFleetServeRouted64 is the sharded-tier lane: the mixed fleet
// dialed through a varade-router fronting two backend servers over one
// registry — each precision's sessions consistent-hash to one backend,
// so the number prices the relay hop plus the two-way split against
// BenchmarkFleetServeMixed64.
func BenchmarkFleetServeRouted64(b *testing.B) { benchFleetLane(b, fleetlane.Routed) }

// benchFleetLane dials the lane's fleet once; each iteration replays
// every device's stream through its live session.
func benchFleetLane(b *testing.B, lane fleetlane.Lane) {
	f, err := fleetlane.New(lane, 0)
	if err != nil {
		b.Fatal(err)
	}
	defer f.Close()
	windows := 0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n, err := f.Replay()
		if err != nil {
			b.Fatal(err)
		}
		windows += n
	}
	b.StopTimer()
	b.ReportMetric(float64(windows)/b.Elapsed().Seconds(), "windows/s")
	m := f.Metrics()
	b.ReportMetric(m.AvgBatchSize, "windows/batch")
	if lane.Bursty {
		b.ReportMetric(m.P50CoalesceMs, "p50-coalesce-ms")
		b.ReportMetric(m.P99CoalesceMs, "p99-coalesce-ms")
	}
}

// BenchmarkFleetServeFailover64 is the fault-tolerance lane: the routed
// mixed fleet over two backends, with the backend serving session 0
// force-killed once every session has streamed half its rows (see
// fleetlane.Fleet.Failover). Reports windows/s over scores actually
// received plus the router-measured hand-off p99. Each iteration builds
// a fresh fleet: a backend can only die once.
func BenchmarkFleetServeFailover64(b *testing.B) {
	windows := 0
	var p99 float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		f, err := fleetlane.New(fleetlane.Routed, 0)
		if err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		res, err := f.Failover()
		b.StopTimer()
		f.Close()
		if err != nil {
			b.Fatal(err)
		}
		windows += res.Windows
		p99 = max(p99, float64(res.HandoffP99)/1e6)
		b.StartTimer()
	}
	b.StopTimer()
	b.ReportMetric(float64(windows)/b.Elapsed().Seconds(), "windows/s")
	b.ReportMetric(p99, "p99-handoff-ms")
}

func BenchmarkFleetPerDevice64(b *testing.B) {
	model, err := fleetlane.NewModel()
	if err != nil {
		b.Fatal(err)
	}
	rows := fleetlane.Rows(0)
	want := fleetlane.Steps - model.WindowSize() + 1
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for id := range rows {
			r := stream.NewRunner(model, fleetlane.Channels)
			n := 0
			for _, row := range rows[id] {
				if _, ok := r.Push(row); ok {
					n++
				}
			}
			if n != want {
				b.Fatalf("runner %d: %d scores want %d", id, n, want)
			}
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(fleetlane.Sessions*want*b.N)/b.Elapsed().Seconds(), "windows/s")
}
