package route

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"varade/internal/obs"
	"varade/internal/stream"
)

// Config tunes a Router.
type Config struct {
	// DefaultModel is the placement reference for sessions whose Hello
	// names no model (and for CSV sessions, which have no handshake).
	DefaultModel string
	// TTL ages backend registrations: a backend that has not announced
	// within TTL is drained from the ring. Default 5s.
	TTL time.Duration
	// RelayDepth bounds the per-direction frame queue of each proxied
	// session; when the slow side stalls past it, the oldest queued
	// frames are shed and counted (stream.Bus drop accounting). Default
	// 256 frames.
	RelayDepth int
	// DialTimeout bounds one backend connection attempt. Default 2s.
	DialTimeout time.Duration
	// ScrapeTimeout bounds one backend /metrics fetch during
	// aggregation. Default 2s.
	ScrapeTimeout time.Duration
	// HandoffDeadline bounds one session hand-off: how long a live
	// session may retry re-placement after its backend dies before the
	// client gets a reasoned Bye. Default 10s.
	HandoffDeadline time.Duration
	// AdmissionWait bounds how long a *new* session may wait in the
	// admission queue for a healthy backend before being refused
	// (instead of the pre-handoff instant refusal). Default 5s.
	AdmissionWait time.Duration
	// RedialBackoff is the base of the capped exponential backoff
	// (base<<min(attempt−1,5), ±50% jitter) between re-placement
	// attempts. Default 25ms.
	RedialBackoff time.Duration
	// ReplayExtra sizes the replay ring beyond the w−1 rows a window
	// boundary needs: the extra rows make a warmed backend re-score the
	// most recent windows, recovering scores lost in flight at the kill
	// instant (already-delivered ones are suppressed as duplicates).
	// Default 32 rows.
	ReplayExtra int
	// AdmissionQueue caps how many sessions may wait for a backend at
	// once (initial placement + hand-offs); past it, sessions are
	// refused immediately. Default 256.
	AdmissionQueue int
	// ReloadTimeout bounds one backend's POST /reload during router-side
	// reload orchestration. Default 10s.
	ReloadTimeout time.Duration
	// MonitorInterval paces the health sweep that nudges sessions off
	// TTL-expired or draining backends. Default min(TTL/4, 500ms).
	MonitorInterval time.Duration
	// JitterSeed seeds the backoff jitter stream; 0 seeds from the
	// clock. Tests pin it for reproducible hand-off schedules.
	JitterSeed int64
}

// Router is the routing plane: one session listener, a registration
// table, and an HTTP control/observability plane.
type Router struct {
	cfg Config
	reg *obs.Registry
	tab *table

	mu       sync.Mutex
	ln       net.Listener
	ctl      *http.Server
	conns    map[net.Conn]struct{}
	sessions map[*hsession]struct{} // live framed sessions, for the health sweep
	closed   bool
	wg       sync.WaitGroup
	stopCh   chan struct{}

	// placements records the backend each placement key last landed
	// on, for /models.
	placements sync.Map // string -> string

	// rings memoises the placement ring per member set.
	rings ringCache

	// admitQ is the bounded admission queue: a slot is held while a
	// session waits for a healthy backend (initial placement or
	// hand-off re-placement).
	admitQ chan struct{}

	// rng drives the backoff jitter, seeded for reproducible tests.
	rngMu sync.Mutex
	rng   *rand.Rand

	active           atomic.Int64 // mirrored to the gauge at exposition
	handoffAll       atomic.Int64 // hand-offs across all reasons, for HandoffStats
	sessionsActive   *obs.Gauge
	healthyGauge     *obs.Gauge
	handshakeErrs    *obs.Counter
	replaySuppressed *obs.Counter
	handoffLatency   *obs.Histogram
	redialBackoff    *obs.Histogram
}

// NewRouter returns a router with an empty backend table.
func NewRouter(cfg Config) *Router {
	if cfg.RelayDepth <= 0 {
		cfg.RelayDepth = 256
	}
	if cfg.DialTimeout <= 0 {
		cfg.DialTimeout = 2 * time.Second
	}
	if cfg.ScrapeTimeout <= 0 {
		cfg.ScrapeTimeout = 2 * time.Second
	}
	if cfg.HandoffDeadline <= 0 {
		cfg.HandoffDeadline = 10 * time.Second
	}
	if cfg.AdmissionWait <= 0 {
		cfg.AdmissionWait = 5 * time.Second
	}
	if cfg.RedialBackoff <= 0 {
		cfg.RedialBackoff = 25 * time.Millisecond
	}
	if cfg.ReplayExtra <= 0 {
		cfg.ReplayExtra = 32
	}
	if cfg.AdmissionQueue <= 0 {
		cfg.AdmissionQueue = 256
	}
	if cfg.ReloadTimeout <= 0 {
		cfg.ReloadTimeout = 10 * time.Second
	}
	seed := cfg.JitterSeed
	if seed == 0 {
		seed = time.Now().UnixNano()
	}
	reg := obs.NewRegistry()
	return &Router{
		cfg:      cfg,
		reg:      reg,
		tab:      newTable(cfg.TTL),
		conns:    make(map[net.Conn]struct{}),
		sessions: make(map[*hsession]struct{}),
		stopCh:   make(chan struct{}),
		admitQ:   make(chan struct{}, cfg.AdmissionQueue),
		rng:      rand.New(rand.NewSource(seed)),
		sessionsActive: reg.Gauge("varade_router_sessions_active",
			"sessions currently proxied"),
		healthyGauge: reg.Gauge("varade_router_backends_healthy",
			"backends currently in the placement ring"),
		handshakeErrs: reg.Counter("varade_router_handshake_errors_total",
			"client handshakes refused before placement"),
		replaySuppressed: reg.Counter("varade_router_replay_suppressed_scores_total",
			"duplicate warmup scores suppressed after a hand-off replay"),
		handoffLatency: reg.Histogram("varade_router_handoff_latency_ns",
			"backend-death detection to warmed-replacement latency"),
		redialBackoff: reg.Histogram("varade_router_redial_backoff_ns",
			"backoff delays slept between re-placement dial attempts"),
	}
}

// Register applies one announcement — the programmatic form of the
// POST /register control endpoint, for in-process fleets.
func (rt *Router) Register(ann Announcement) error {
	if ann.ID == "" {
		return fmt.Errorf("route: announcement without id")
	}
	rt.tab.upsert(ann)
	return nil
}

// Serve starts accepting fleet sessions on addr and returns the bound
// address.
func (rt *Router) Serve(addr string) (string, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", err
	}
	rt.mu.Lock()
	rt.ln = ln
	rt.mu.Unlock()
	rt.wg.Add(1)
	go rt.monitor()
	rt.wg.Add(1)
	go func() {
		defer rt.wg.Done()
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			rt.mu.Lock()
			if rt.closed {
				rt.mu.Unlock()
				conn.Close()
				return
			}
			rt.conns[conn] = struct{}{}
			rt.mu.Unlock()
			rt.wg.Add(1)
			go rt.handleConn(conn)
		}
	}()
	return ln.Addr().String(), nil
}

// Shutdown stops the control plane and the session listener, severs
// every proxied session, and waits for the relay goroutines to drain
// (bounded by ctx).
func (rt *Router) Shutdown(ctx context.Context) error {
	rt.ShutdownControl(ctx)
	rt.mu.Lock()
	var alreadyClosed bool
	alreadyClosed, rt.closed = rt.closed, true
	ln := rt.ln
	conns := make([]net.Conn, 0, len(rt.conns))
	for c := range rt.conns {
		conns = append(conns, c)
	}
	rt.mu.Unlock()
	if !alreadyClosed {
		close(rt.stopCh) // aborts hand-off backoff sleeps and the monitor
	}
	if ln != nil {
		ln.Close()
	}
	for _, c := range conns {
		c.Close()
	}
	done := make(chan struct{})
	go func() {
		rt.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

func (rt *Router) track(c net.Conn) bool {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	if rt.closed {
		return false
	}
	rt.conns[c] = struct{}{}
	return true
}

func (rt *Router) untrack(c net.Conn) {
	rt.mu.Lock()
	delete(rt.conns, c)
	rt.mu.Unlock()
}

// parseRef splits "name", "name@latest", "name@vN" for placement
// canonicalisation only — the backend revalidates with the full rules,
// so a malformed ref simply keys on its raw text.
func parseRef(ref string) (string, int) {
	if i := strings.LastIndex(ref, "@"); i > 0 {
		name, suffix := ref[:i], ref[i+1:]
		if suffix == "latest" {
			return name, 0
		}
		if strings.HasPrefix(suffix, "v") {
			if v, err := strconv.Atoi(suffix[1:]); err == nil && v > 0 {
				return name, v
			}
		}
		return ref, 0
	}
	return ref, 0
}

// placementKey canonicalises a handshake into the ring key
// "name@vN:precision" (floating versions key as @latest so they
// co-batch wherever the registry head moves).
func (rt *Router) placementKey(h stream.Hello) (key, model, prec string) {
	ref := h.Model
	if ref == "" {
		ref = rt.cfg.DefaultModel
	}
	name, ver := parseRef(ref)
	if h.Version > 0 {
		ver = h.Version
	}
	prec = h.GetCaps().Precision
	key = name
	if ver > 0 {
		key += "@v" + strconv.Itoa(ver)
	} else {
		key += "@latest"
	}
	if prec != "" {
		key += ":" + prec
	}
	return key, name, prec
}

// place returns backends to try for a session, in preference order: the
// consistent-hash ring over the per-precision pool (narrowed to
// backends advertising the model when any do), with the top two ring
// candidates swapped if the second is strictly less loaded, then the
// rest of the pool in ring order as dial failover.
func (rt *Router) place(model, prec, key string) []backendView {
	healthy := rt.tab.views(true)
	pool := make([]backendView, 0, len(healthy))
	for _, v := range healthy {
		if supports(v.ann, prec) {
			pool = append(pool, v)
		}
	}
	if len(pool) == 0 {
		// No backend claims the precision: let the most natural backend
		// refuse over the protocol rather than synthesising our own
		// error text for every case.
		pool = healthy
	}
	adv := make([]backendView, 0, len(pool))
	for _, v := range pool {
		if advertises(v.ann, model) {
			adv = append(adv, v)
		}
	}
	if len(adv) > 0 {
		pool = adv
	}
	ids := make([]string, len(pool))
	byID := make(map[string]backendView, len(pool))
	for i, v := range pool {
		ids[i] = v.b.id
		byID[v.b.id] = v
	}
	order := ringLookup(rt.rings.ring(ids), key, len(pool))
	out := make([]backendView, 0, len(healthy))
	for _, id := range order {
		out = append(out, byID[id])
	}
	// Least-loaded tie-break with hysteresis: only overrule the ring
	// when the favourite is more than one session busier, so same-key
	// sessions keep co-batching on one backend under balanced load.
	if len(out) >= 2 && out[1].b.load()+1 < out[0].b.load() {
		out[0], out[1] = out[1], out[0]
	}
	for _, v := range healthy {
		if _, inPool := byID[v.b.id]; !inPool {
			out = append(out, v)
		}
	}
	return out
}

// dialFirst walks the candidate list, returning the first backend that
// accepts a connection and marking the ones that refuse as failed.
func (rt *Router) dialFirst(cands []backendView) (*backend, net.Conn) {
	for _, v := range cands {
		c, err := net.DialTimeout("tcp", v.ann.Addr, rt.cfg.DialTimeout)
		if err != nil {
			rt.tab.fail(v.b.id)
			rt.reg.Counter("varade_router_dial_failures_total",
				"backend connection attempts that failed",
				obs.L("backend", v.b.id)).Inc()
			continue
		}
		return v.b, c
	}
	return nil, nil
}

func (rt *Router) handleConn(conn net.Conn) {
	defer rt.wg.Done()
	defer rt.untrack(conn)
	br := bufio.NewReader(conn)
	peek, err := br.Peek(len(stream.FrameMagic))
	if err != nil {
		conn.Close()
		return
	}

	if stream.SniffProto(peek) == 0 {
		rt.proxyCSV(conn, br)
		return
	}

	proto, rawHello, hello, err := stream.ReadHello(br)
	if err != nil {
		rt.handshakeErrs.Inc()
		stream.WriteFrame(conn, stream.FrameError, []byte(err.Error()))
		conn.Close()
		return
	}
	key, model, prec := rt.placementKey(hello)
	s := rt.newHSession(conn, br, proto, rawHello, key, model, prec)

	// Initial placement runs through the same dial-retry loop as a
	// hand-off (bounded admission queue, backoff, deadline), so an
	// empty pool parks the session instead of refusing instantly.
	link, replyT, reply, aerr := s.acquireBackend(time.Now().Add(rt.cfg.AdmissionWait), false)
	if aerr != nil {
		rt.handshakeErrs.Inc()
		rt.refuseClient(conn, proto, "route: no healthy backend: "+aerr.Error())
		conn.Close()
		return
	}
	rt.placements.Store(key, link.bk.id)

	// Forward the backend's reply, rewriting a v2 Welcome to name the
	// chosen backend. v1 Welcomes pass through byte-identical. The
	// parsed Welcome also sizes the session's replay ring (window and
	// channel geometry).
	var w stream.Welcome
	parsed := replyT == stream.FrameWelcome && json.Unmarshal(reply, &w) == nil
	var werr error
	if parsed && proto >= stream.ProtoV2 {
		w.Backend = link.bk.id
		werr = stream.WriteJSONFrame(conn, stream.FrameWelcome, w)
	} else {
		werr = stream.WriteFrame(conn, replyT, reply)
	}
	if werr != nil || replyT != stream.FrameWelcome {
		conn.Close()
		link.conn.Close()
		rt.untrack(link.conn)
		return
	}
	if parsed {
		s.setGeometry(w)
	}

	rt.beginSession(link.bk, s.protoLabel)
	rt.addSession(s)
	s.run(link)
	rt.removeSession(s)
}

// refuseClient tells a client why its session cannot start: a reasoned
// Bye on v2 (machine-readable), a terminal Error on v1.
func (rt *Router) refuseClient(conn net.Conn, proto int, reason string) {
	if proto >= stream.ProtoV2 {
		stream.WriteFrame(conn, stream.FrameBye, stream.EncodeByePayload(stream.Bye{Reason: reason}))
		return
	}
	stream.WriteFrame(conn, stream.FrameError, []byte(reason))
}

func (rt *Router) addSession(s *hsession) {
	rt.mu.Lock()
	rt.sessions[s] = struct{}{}
	rt.mu.Unlock()
}

func (rt *Router) removeSession(s *hsession) {
	rt.mu.Lock()
	delete(rt.sessions, s)
	rt.mu.Unlock()
}

// monitor is the proactive half of failure detection: a periodic sweep
// that nudges live sessions off backends that have left the health
// plane (heartbeat TTL expiry, Draining announcement) without waiting
// for their TCP connections to die — a hung backend can hold a socket
// open long past its last heartbeat.
func (rt *Router) monitor() {
	defer rt.wg.Done()
	iv := rt.cfg.MonitorInterval
	if iv <= 0 {
		iv = rt.tab.ttl / 4
		if iv > 500*time.Millisecond {
			iv = 500 * time.Millisecond
		}
		if iv < 10*time.Millisecond {
			iv = 10 * time.Millisecond
		}
	}
	tick := time.NewTicker(iv)
	defer tick.Stop()
	for {
		select {
		case <-rt.stopCh:
			return
		case <-tick.C:
			rt.sweepSessions()
		}
	}
}

func (rt *Router) sweepSessions() {
	type health struct {
		draining bool
		expired  bool
	}
	cutoff := time.Now().Add(-rt.tab.ttl)
	state := make(map[string]health)
	for _, v := range rt.tab.views(false) {
		state[v.b.id] = health{draining: v.draining, expired: !v.lastSeen.After(cutoff)}
	}
	rt.mu.Lock()
	sessions := make([]*hsession, 0, len(rt.sessions))
	for s := range rt.sessions {
		sessions = append(sessions, s)
	}
	rt.mu.Unlock()
	for _, s := range sessions {
		l := s.currentLink()
		if l == nil {
			continue
		}
		h, known := state[l.bk.id]
		switch {
		case known && h.draining:
			s.nudge(reasonDrain)
		case known && h.expired:
			s.nudge(reasonTTLExpired)
		}
	}
}

func (rt *Router) beginSession(bk *backend, protoLabel string) {
	bk.inflight.Add(1)
	bk.proxied.Add(1)
	rt.active.Add(1)
	rt.reg.Counter("varade_router_sessions_total", "sessions proxied",
		obs.L("proto", protoLabel)).Inc()
	rt.reg.Counter("varade_router_backend_sessions_total",
		"sessions placed per backend", obs.L("backend", bk.id)).Inc()
}

func (rt *Router) endSession(bk *backend) {
	bk.inflight.Add(-1)
	rt.active.Add(-1)
}

// moveSession shifts a live session's placement accounting from a dead
// backend to its hand-off replacement — the session itself (rt.active,
// sessions_total) is unchanged, it just lives somewhere else now.
func (rt *Router) moveSession(old, new *backend) {
	old.inflight.Add(-1)
	new.inflight.Add(1)
	new.proxied.Add(1)
	rt.reg.Counter("varade_router_backend_sessions_total",
		"sessions placed per backend", obs.L("backend", new.id)).Inc()
}

// relayDrops is the per-direction shed counter relay queues attach to.
func (rt *Router) relayDrops(dir string) *obs.Counter {
	return rt.reg.Counter("varade_router_relay_dropped_frames_total",
		"relayed frames shed because a session side stalled past the bounded queue",
		obs.L("dir", dir))
}

// handoffCounter names one hand-off outcome family by reason.
func (rt *Router) handoffCounter(name, help, reason string) *obs.Counter {
	return rt.reg.Counter(name, help, obs.L("reason", reason))
}

// jitter returns a uniform value in [0, n) from the router's seeded
// stream — the randomness under backoffDelay.
func (rt *Router) jitter(n int64) int64 {
	if n <= 0 {
		return 0
	}
	rt.rngMu.Lock()
	defer rt.rngMu.Unlock()
	return rt.rng.Int63n(n)
}

// admitAcquire claims an admission-queue slot; false means the queue is
// full and the session should be refused rather than parked.
func (rt *Router) admitAcquire() bool {
	select {
	case rt.admitQ <- struct{}{}:
		return true
	default:
		return false
	}
}

func (rt *Router) admitRelease() { <-rt.admitQ }

// HandoffStats reports the hand-off plane's aggregates: total hand-offs
// across all reasons and the detection-to-warmed latency p50/p99 in
// nanoseconds.
func (rt *Router) HandoffStats() (total, p50ns, p99ns int64) {
	return rt.handoffAll.Load(), rt.handoffLatency.Quantile(0.5), rt.handoffLatency.Quantile(0.99)
}

// relayFrame is one buffered frame in a relay direction.
type relayFrame struct {
	t       stream.FrameType
	payload []byte
}

// proxyCSV relays a CSV line session (no handshake to decode) to the
// default placement as a raw byte stream — the line protocol has its
// own flow control (one line per sample), so plain copies with the
// kernel's socket backpressure suffice.
func (rt *Router) proxyCSV(conn net.Conn, br *bufio.Reader) {
	key, model, prec := rt.placementKey(stream.Hello{})
	bk, bconn := rt.dialFirst(rt.place(model, prec, key))
	if bk == nil {
		conn.Close()
		return
	}
	if !rt.track(bconn) {
		bconn.Close()
		conn.Close()
		return
	}
	defer rt.untrack(bconn)
	rt.placements.Store(key, bk.id)
	rt.beginSession(bk, "csv")
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		io.Copy(bconn, br)
		closeWrite(bconn)
	}()
	go func() {
		defer wg.Done()
		io.Copy(conn, bconn)
		conn.Close()
	}()
	wg.Wait()
	conn.Close()
	bconn.Close()
	rt.endSession(bk)
}

// closeWrite half-closes the write side when the transport supports it
// (TCP does), else closes outright.
func closeWrite(c net.Conn) {
	type cw interface{ CloseWrite() error }
	if t, ok := c.(cw); ok {
		t.CloseWrite()
		return
	}
	c.Close()
}
