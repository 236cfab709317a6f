// Package fleetlane is the in-process fleet harness: the root
// BenchmarkFleet* functions and `varade-bench -exp bench` both build
// their serving lanes here, so the two entry points time the same work.
//
// A Fleet is one registry holding the EdgeConfig model, one backend (two
// when routed, behind a router announcing b1 and b2) and Sessions live
// device sessions. Replay streams every device's rows through its
// session and reads the windows owed; Failover kills a loaded backend
// half-way through and reads every session to end-of-stream across the
// router's hand-off.
//
// fleetbench/ is the separate, client-observed benchmark; this package
// only prices the server and router from inside one process.
package fleetlane

import (
	"context"
	"errors"
	"fmt"
	"os"
	"sync"
	"time"

	"varade/internal/core"
	"varade/internal/route"
	"varade/internal/serve"
	"varade/internal/stream"
	"varade/internal/tensor"
)

const (
	Sessions = 64
	Steps    = 72 // samples per device per replay
	Channels = 17
)

// Lane is one fleet shape.
type Lane struct {
	// Precision, when set, converts the registered model to it and dials
	// protocol-v1 sessions. Empty keeps the model float64 and dials
	// protocol-v2 sessions requesting float64/float32/int8 round-robin,
	// each precision coalesced in its own derived serving group.
	Precision string
	// Routed serves from two backends over the one registry, dialed
	// through a router: each precision's sessions consistent-hash to one
	// backend.
	Routed bool
	// Bursty admits rows in 12-row bursts with 1 ms gaps under a 5 ms
	// p99 SLO and a deliberately hopeless 50 ms fallback flush interval,
	// so every latency bound comes from the deadline scheduler.
	Bursty bool
}

// The mixed-precision lanes. Failover runs on a Routed fleet.
var (
	Mixed  = Lane{}
	Routed = Lane{Routed: true}
	Bursty = Lane{Bursty: true}
)

// NewModel returns the serving model: EdgeConfig topology at its seeded
// initialisation (scoring cost is identical to a trained model's).
func NewModel() (*core.Model, error) {
	return core.New(core.EdgeConfig(Channels))
}

// Rows returns one deterministic Steps×Channels series per session;
// session id's rows are drawn from tensor.NewRNG(seed+1000+id).
func Rows(seed uint64) [][][]float64 {
	out := make([][][]float64, Sessions)
	for id := range out {
		rng := tensor.NewRNG(seed + uint64(1000+id))
		out[id] = make([][]float64, Steps)
		for r := range out[id] {
			row := make([]float64, Channels)
			for c := range row {
				row[c] = rng.NormFloat64()
			}
			out[id][r] = row
		}
	}
	return out
}

// Fleet is a live lane: backends, optional router and dialed sessions.
type Fleet struct {
	// Window is the model's window: the first Replay reads Window−1
	// fewer scores per session while the session rings fill.
	Window int

	lane    Lane
	regDir  string
	servers []*serve.Server
	router  *route.Router
	clients []*serve.Client
	rows    [][][]float64
	primed  bool
}

// New builds the lane's fleet with every session dialed. The session
// rows come from Rows(seed). Close releases it.
func New(lane Lane, seed uint64) (f *Fleet, err error) {
	model, err := NewModel()
	if err != nil {
		return nil, err
	}
	if lane.Precision != "" {
		if err := model.SetPrecision(lane.Precision); err != nil {
			return nil, err
		}
	}
	f = &Fleet{Window: model.WindowSize(), lane: lane, rows: Rows(seed)}
	// A failure below must not strand the temp registry, the servers or
	// already-dialed sessions.
	defer func() {
		if err != nil {
			f.Close()
			f = nil
		}
	}()
	if f.regDir, err = os.MkdirTemp("", "varade-fleetlane-"); err != nil {
		return nil, err
	}
	reg, err := serve.OpenRegistry(f.regDir)
	if err != nil {
		return nil, err
	}
	if _, err := reg.Register("varade", model); err != nil {
		return nil, fmt.Errorf("fleetlane: register model: %w", err)
	}
	flush, slo := time.Millisecond, time.Duration(0)
	if lane.Bursty {
		flush, slo = 50*time.Millisecond, 5*time.Millisecond
	}
	backends := 1
	if lane.Routed {
		backends = 2
	}
	addrs := make([]string, backends)
	for i := range addrs {
		srv, err := serve.NewServer(serve.Config{
			Registry:      reg,
			DefaultModel:  "varade",
			FlushInterval: flush,
			SLOP99:        slo,
			QueueDepth:    Steps + 8, // score every window
		})
		if err != nil {
			return nil, err
		}
		f.servers = append(f.servers, srv)
		if addrs[i], err = srv.Serve("127.0.0.1:0"); err != nil {
			return nil, err
		}
	}
	addr := addrs[0]
	if lane.Routed {
		f.router = route.NewRouter(route.Config{DefaultModel: "varade", TTL: time.Hour})
		if addr, err = f.router.Serve("127.0.0.1:0"); err != nil {
			return nil, err
		}
		for i, baddr := range addrs {
			if err := f.router.Register(route.Announcement{ID: fmt.Sprintf("b%d", i+1), Addr: baddr}); err != nil {
				return nil, err
			}
		}
	}
	precisions := []string{"float64", "float32", "int8"}
	f.clients = make([]*serve.Client, Sessions)
	for id := range f.clients {
		var cl *serve.Client
		if lane.Precision != "" {
			cl, err = serve.Dial(context.Background(), addr, "", Channels)
		} else {
			cl, err = serve.DialWith(context.Background(), addr, "", Channels,
				stream.SessionCaps{Precision: precisions[id%len(precisions)]})
		}
		if err != nil {
			return nil, fmt.Errorf("fleetlane: dial session %d: %w", id, err)
		}
		f.clients[id] = cl
	}
	return f, nil
}

// Metrics returns the first backend's serving metrics.
func (f *Fleet) Metrics() serve.Metrics { return f.servers[0].Metrics() }

// Replay is the steady-state op: every session sends its whole stream
// (or, on a Bursty lane, 12-row bursts with 1 ms gaps) and reads the
// windows it is owed. The session rings stay primed across replays, so
// only the first pays the Window−1 warmup. It returns the windows read.
func (f *Fleet) Replay() (int, error) {
	expect := Steps
	if !f.primed {
		expect = Steps - f.Window + 1
		f.primed = true
	}
	burst, gap := Steps, time.Duration(0)
	if f.lane.Bursty {
		burst, gap = 12, time.Millisecond
	}
	got := make([]int, len(f.clients))
	errs := make([]error, len(f.clients))
	var wg sync.WaitGroup
	for id, cl := range f.clients {
		wg.Add(1)
		go func(id int, cl *serve.Client) {
			defer wg.Done()
			rows := f.rows[id]
			for off := 0; off < len(rows); off += burst {
				end := min(off+burst, len(rows))
				if err := cl.Send(rows[off:end]); err != nil {
					errs[id] = fmt.Errorf("session %d: send: %w", id, err)
					return
				}
				if gap > 0 && end < len(rows) {
					time.Sleep(gap)
				}
			}
			for got[id] < expect {
				scores, err := cl.ReadScores()
				if err != nil {
					errs[id] = fmt.Errorf("session %d: read: %w", id, err)
					return
				}
				got[id] += len(scores)
			}
		}(id, cl)
	}
	wg.Wait()
	windows := 0
	for _, n := range got {
		windows += n
	}
	return windows, errors.Join(errs...)
}

// FailoverResult is one Failover op's outcome.
type FailoverResult struct {
	Windows    int           // scores received across the kill
	Elapsed    time.Duration // first send to the last session's end-of-stream
	Handoffs   int64         // sessions the router re-placed
	HandoffP99 time.Duration // router-measured detection-to-warmed p99
}

// Failover is the fault-tolerance op on a Routed fleet: every session
// sends the first half of its rows in 4-row frames, a barrier force-kills
// the backend serving session 0 (expired-context Shutdown: no drain,
// live connections torn), then the fleet sends the rest, says Bye and
// reads scores to end-of-stream. Orphaned sessions ride the router's
// hand-off to the survivor; sessions already there are the control
// group. Windows in flight past the replay ring may be lost to the
// crash, so Windows counts survival, not completeness. One-shot: a
// backend only dies once per fleet. It fails if no session was handed
// off.
func (f *Fleet) Failover() (FailoverResult, error) {
	if f.router == nil {
		return FailoverResult{}, errors.New("fleetlane: failover needs a routed lane")
	}
	victim := f.servers[0]
	if f.clients[0].Welcome().Backend == "b2" {
		victim = f.servers[1]
	}
	dead, cancel := context.WithCancel(context.Background())
	cancel() // already expired: Shutdown force-closes instead of draining

	var sent, wg sync.WaitGroup
	sent.Add(len(f.clients))
	killed := make(chan struct{})
	go func() {
		sent.Wait()
		victim.Shutdown(dead)
		close(killed)
	}()

	got := make([]int, len(f.clients))
	errs := make([]error, len(f.clients))
	start := time.Now()
	for id, cl := range f.clients {
		wg.Add(1)
		go func(id int, cl *serve.Client) {
			defer wg.Done()
			send := func(part [][]float64) error {
				for off := 0; off < len(part); off += 4 {
					if err := cl.Send(part[off:min(off+4, len(part))]); err != nil {
						return err
					}
				}
				return nil
			}
			mid := Steps / 2
			err := send(f.rows[id][:mid])
			sent.Done()
			<-killed
			if err == nil {
				err = send(f.rows[id][mid:])
			}
			if err == nil {
				err = cl.Bye()
			}
			if err != nil {
				errs[id] = fmt.Errorf("session %d: %w", id, err)
			}
			// Read to end-of-stream whatever happened: a read error
			// here is the crash or the hand-off's end, not a failure.
			for {
				scores, rerr := cl.ReadScores()
				got[id] += len(scores)
				if rerr != nil {
					return
				}
			}
		}(id, cl)
	}
	wg.Wait()
	res := FailoverResult{Elapsed: time.Since(start)}
	for _, n := range got {
		res.Windows += n
	}
	var p99 int64
	res.Handoffs, _, p99 = f.router.HandoffStats()
	res.HandoffP99 = time.Duration(p99)
	if err := errors.Join(errs...); err != nil {
		return res, err
	}
	if res.Handoffs < 1 {
		return res, fmt.Errorf("fleetlane: recorded %d hand-offs, want >= 1 — the kill missed every session", res.Handoffs)
	}
	return res, nil
}

// Close ends every session, shuts the router and backends down (bounded
// at 10 s) and removes the registry.
func (f *Fleet) Close() error {
	for _, cl := range f.clients {
		if cl != nil {
			cl.Bye() // best effort: a failed-over session may already be closed
			cl.Close()
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	var errs []error
	if f.router != nil {
		errs = append(errs, f.router.Shutdown(ctx))
	}
	for _, srv := range f.servers {
		errs = append(errs, srv.Shutdown(ctx))
	}
	if f.regDir != "" {
		errs = append(errs, os.RemoveAll(f.regDir))
	}
	return errors.Join(errs...)
}
