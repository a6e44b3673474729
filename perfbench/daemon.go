package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"time"

	"github.com/in-net/innet/internal/api"
	"github.com/in-net/innet/internal/controller"
	_ "github.com/in-net/innet/internal/elements"
	"github.com/in-net/innet/internal/journal"
	"github.com/in-net/innet/internal/telemetry"
	"github.com/in-net/innet/internal/topology"
)

// daemon is innetd's stack, built in-process the way cmd/innetd
// builds it with its default flags plus -simulate, -state-dir and
// -fsync none: a controller restored from a journal, telemetry, the
// flight recorder and drop hub attached, the platform simulator, and
// the API server on a loopback listener.
//
// The journal writes every record but leaves flushing to the OS. With
// the default -fsync always, each deploy cycle waited about two fsyncs
// on the shared virtual disk, whose latency other tenants set: in five
// paired 10-s runs on a 2-vCPU VM, admit-warm spread 0.18
// (IQR/median) with the state directory on disk and 0.05 on tmpfs.
// The benchmark may only write inside its checkout, so it drops the
// wait instead; the appends per cycle, each one fsync under -fsync
// always, stay counted.
type daemon struct {
	dir       string
	platforms []string
	store     *journal.Store
	ctl       *controller.Controller
	sim       *api.Simulator
	reg       *telemetry.Registry
	drops     *telemetry.Drops
	server    *api.Server
	http      *http.Server
	url       string
	done      chan error
}

// startDaemon builds the stack over a fresh state directory dir. wrap,
// when non-nil, wraps the API handler (the traced run times
// ServeHTTP through it).
func startDaemon(dir string, wrap func(http.Handler) http.Handler) (*daemon, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	topo, err := topology.PaperFig3()
	if err != nil {
		return nil, err
	}
	store, err := journal.Open(dir, journal.Options{Sync: journal.SyncNone, CompactEvery: 256})
	if err != nil {
		return nil, fmt.Errorf("open state dir: %w", err)
	}
	d := &daemon{dir: dir, store: store, done: make(chan error, 1)}
	opts := controller.Options{PipelineWorkers: 1}
	ctl, _, err := controller.Restore(topo, "", opts, store.State(), nil, store)
	if err != nil {
		store.Close()
		return nil, fmt.Errorf("restore controller: %w", err)
	}
	d.ctl = ctl
	d.reg = telemetry.New()
	ctl.AttachTelemetry(d.reg, telemetry.NewTracer(telemetry.DefaultTraceRing))
	store.RegisterMetrics(d.reg)
	rec := telemetry.NewRecorder(telemetry.DefaultEventRing)
	drops := telemetry.NewDrops()
	d.drops = drops
	ctl.SetRecorder(rec)
	ctl.RegisterDrops(drops)
	store.SetRecorder(rec)

	d.platforms = topo.Platforms()
	d.sim = api.NewSimulator(d.platforms)
	for _, dep := range ctl.Deployments() {
		if dep.Status() == controller.StatusFailed {
			continue
		}
		if err := d.sim.Register(dep); err != nil {
			store.Close()
			return nil, fmt.Errorf("re-register %s: %w", dep.ID, err)
		}
	}
	d.sim.RegisterMetrics(d.reg)
	d.sim.RegisterDrops(drops)
	d.sim.SetRecorder(rec)
	d.sim.SetTraceEvery(telemetry.DefaultTraceEvery)
	drops.Attach(d.reg)

	d.server = api.NewServerWithSimulator(ctl, d.sim)
	d.server.AttachTelemetry(d.reg, ctl.Tracer())
	d.server.AttachObservability(drops, rec)
	d.server.AttachJournal(store)

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		store.Close()
		return nil, err
	}
	var h http.Handler = d.server
	if wrap != nil {
		h = wrap(h)
	}
	d.http = &http.Server{
		Handler:           h,
		ReadHeaderTimeout: 5 * time.Second,
		ReadTimeout:       30 * time.Second,
		WriteTimeout:      30 * time.Second,
		IdleTimeout:       2 * time.Minute,
	}
	d.url = "http://" + ln.Addr().String()
	go func() { d.done <- d.http.Serve(ln) }()
	return d, nil
}

// close stops the server, waits for its goroutine, closes the journal
// and removes the state directory.
func (d *daemon) close() error {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := d.http.Shutdown(ctx)
	if serr := <-d.done; !errors.Is(serr, http.ErrServerClosed) && err == nil {
		err = serr
	}
	if cerr := d.store.Close(); err == nil {
		err = cerr
	}
	if rerr := os.RemoveAll(d.dir); err == nil {
		err = rerr
	}
	return err
}
