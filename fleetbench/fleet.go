package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"varade/internal/core"
	"varade/internal/route"
	"varade/internal/serve"
	"varade/internal/stream"
	"varade/internal/tensor"
)

const (
	modelName     = "varade"      // the float64 registry entry; float32 sessions derive from it
	int8ModelName = "varade-int8" // the calibrated int8 container int8 sessions are served from
)

// fleet is one live serving topology: a registry, one or more
// varade-serve backends and, when routed, a varade-router in front.
// Clients dial front.
type fleet struct {
	dir   string
	reg   *serve.Registry
	srvs  []*serve.Server
	addrs []string
	rt    *route.Router
	front string
}

// startFleet builds the topology from nothing: registry directory,
// model file, backend servers with the deployment defaults, and the
// router with every backend registered.
func startFleet(dir string, model *core.Model, calib *tensor.Tensor32, backends int, routed bool) (*fleet, error) {
	f := &fleet{dir: dir}
	ok := false
	defer func() {
		if !ok {
			f.close()
		}
	}()
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	reg, err := serve.OpenRegistry(filepath.Join(dir, "registry"))
	if err != nil {
		return nil, err
	}
	f.reg = reg
	if _, err := reg.Register(modelName, model); err != nil {
		return nil, err
	}
	// int8 calibration: a copy of the registered model, quantized and
	// calibrated on the calibration set, registered as its own int8
	// container (weights and activation scales), as a deployment ships it.
	path, _, err := reg.Resolve(modelName, 0)
	if err != nil {
		return nil, err
	}
	q, err := core.LoadModel(path)
	if err != nil {
		return nil, err
	}
	if err := q.SetPrecision(precInt8); err != nil {
		return nil, err
	}
	q.ScoreBatch32(calib)
	if _, err := reg.Register(int8ModelName, q); err != nil {
		return nil, err
	}
	for i := 0; i < backends; i++ {
		srv, err := serve.NewServer(serve.Config{Registry: reg, DefaultModel: modelName})
		if err != nil {
			return nil, err
		}
		f.srvs = append(f.srvs, srv)
		addr, err := srv.Serve("127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		f.addrs = append(f.addrs, addr)
	}
	f.front = f.addrs[0]
	if routed {
		f.rt = route.NewRouter(route.Config{DefaultModel: modelName, TTL: time.Hour})
		if f.front, err = f.rt.Serve("127.0.0.1:0"); err != nil {
			return nil, err
		}
		for i, addr := range f.addrs {
			if err := f.rt.Register(route.Announcement{ID: fmt.Sprintf("b%d", i+1), Addr: addr}); err != nil {
				return nil, err
			}
		}
	}
	ok = true
	return f, nil
}

// quiesce waits (up to drainTimeout) until the backends hold no more
// than keep live sessions, then collects garbage, so a phase does not
// inherit the previous phase's teardown.
func (f *fleet) quiesce(keep int) {
	deadline := time.Now().Add(drainTimeout)
	for time.Now().Before(deadline) {
		live := 0
		for _, srv := range f.srvs {
			live += srv.Metrics().ActiveSessions
		}
		if live <= keep {
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	runtime.GC()
}

func (f *fleet) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if f.rt != nil {
		f.rt.Shutdown(ctx)
	}
	for _, srv := range f.srvs {
		srv.Shutdown(ctx)
	}
	if f.dir != "" {
		os.RemoveAll(f.dir)
	}
}

// dial opens a protocol-v2 session at the given precision.
func dial(ctx context.Context, addr, prec string) (*serve.Client, error) {
	model := modelName
	if prec == precInt8 {
		model = int8ModelName
	}
	return serve.DialWith(ctx, addr, model, numChannels, stream.SessionCaps{Precision: prec})
}
