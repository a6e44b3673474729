package main

import (
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"github.com/in-net/innet/internal/controller"
	"github.com/in-net/innet/internal/symexec"
	"github.com/in-net/innet/internal/telemetry"
)

// warmClients is how many closed-loop clients run the untimed warm-up
// at once, one per CPU of the 2-CPU machine the benchmark is sized
// for, so that the oracle also checks deploys and kills that overlap.
// The timed window has one client: admission runs under the
// controller lock, so a second timed client added no throughput (about
// 250 cycles/s on admit-cold with one or two), only lock waits in the
// latencies and two busy CPUs, and runs of the same code spread by a
// quarter.
const warmClients = 2

// catalogSize is the admit-warm request catalog.
const catalogSize = 8

// warmCycles is each warm-up client's untimed work: a fixed amount,
// so the live heap measured after it does not depend on speed.
const warmCycles = 300

// admitOp is one deploy → kill cycle as a client saw it.
type admitOp struct {
	blk      int
	end      time.Time
	deployMS float64
	fail     string // why the cycle failed the oracle; empty when it passed
	tr       *tracedAdmit
}

// tracedAdmit holds one cycle's spans: the client calls, the
// ServeHTTP spans under them, and the controller's admission trace
// under the deploy's ServeHTTP.
type tracedAdmit struct {
	deploy, deployServe interval
	ctl                 *telemetry.Trace
	kill, killServe     interval
}

// admitLayers are the admission-side counters read at window edges.
type admitLayers struct {
	rt      runtimeSnap
	cache   symexec.CacheStats
	memo    symexec.MemoStats
	appends float64
}

func readAdmitLayers(d *daemon) admitLayers {
	return admitLayers{
		rt:      readRuntime(),
		cache:   d.ctl.CacheStats(),
		memo:    d.ctl.MemoStats(),
		appends: registryValues(d.reg, "innet_journal_appends_total")["innet_journal_appends_total"],
	}
}

// setupAdmission builds the daemon and deploys the resident
// population over HTTP. It returns the daemon ready for the first
// timed op.
func setupAdmission(stateRoot string, wrap func(http.Handler) http.Handler) (*daemon, error) {
	dir, err := os.MkdirTemp(stateRoot, "admit-")
	if err != nil {
		return nil, err
	}
	d, err := startDaemon(dir, wrap)
	if err != nil {
		return nil, err
	}
	c := newHTTPClient(d.url, 1)
	defer c.close()
	for _, req := range residentRequests() {
		body, _ := json.Marshal(req)
		status, resp, err := c.do(http.MethodPost, "/v1/modules", body, "")
		if err == nil && status != http.StatusCreated {
			err = fmt.Errorf("status %d: %s", status, resp)
		}
		if err != nil {
			d.close()
			return nil, fmt.Errorf("deploy resident %s: %w", req.ModuleName, err)
		}
	}
	return d, nil
}

// journalBytes follows the journal file's growth across traced ops.
// A compaction truncates the file; the bytes appended after it are
// counted from zero, the record that triggered it is lost (about one
// in 256).
type journalBytes struct {
	mu    sync.Mutex
	path  string
	last  int64
	total int64
}

func (j *journalBytes) observe() {
	fi, err := os.Stat(j.path)
	if err != nil {
		return
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	if sz := fi.Size(); sz >= j.last {
		j.total += sz - j.last
		j.last = sz
	} else {
		j.total += sz
		j.last = sz
	}
}

// runAdmission drives admit-cold (cold) or admit-warm.
func runAdmission(cfg runConfig, cold bool) (*result, error) {
	var spans *serveSpans
	var wrap func(http.Handler) http.Handler
	if cfg.trace {
		spans = newServeSpans()
		wrap = spans.wrap
	}
	d, setups, err := setupRepeated(func() (*daemon, error) {
		return setupAdmission(cfg.stateRoot, wrap)
	}, (*daemon).close)
	if err != nil {
		return nil, err
	}
	defer d.close()

	tracer := d.ctl.Tracer()
	jb := &journalBytes{path: filepath.Join(d.dir, "journal.log")}
	jb.observe()
	catalog := Catalog(cfg.seed, catalogSize)
	var phase atomic.Int64
	const stop = -1
	var wg, warm sync.WaitGroup
	ops := make([][]admitOp, warmClients)
	for cl := 0; cl < warmClients; cl++ {
		gen := NewAdmissionGen(cfg.seed, cl)
		// Warm-up clients deploy disjoint shares of the catalog, so no
		// name is hosted twice at once; the timed client cycles
		// through all of it.
		var mine []DeployCase
		for i := cl; i < len(catalog); i += warmClients {
			mine = append(mine, catalog[i])
		}
		next := gen.Next
		if !cold {
			i := 0
			next = func() DeployCase { c := mine[i%len(mine)]; i++; return c }
		}
		hc := newHTTPClient(d.url, 1)
		wg.Add(1)
		warm.Add(1)
		go func(cl int) {
			defer wg.Done()
			defer hc.close()
			for i := 0; i < warmCycles; i++ {
				ops[cl] = append(ops[cl], admitCycle(hc, next(), false, spans, tracer, ""))
			}
			warm.Done()
			if cl > 0 {
				return
			}
			mine = catalog
			for phase.Load() == 0 {
				time.Sleep(100 * time.Microsecond)
			}
			for seq := 0; ; seq++ {
				blk := int(phase.Load())
				if blk == stop {
					return
				}
				traced := cfg.trace && blk > 0 && blk%2 == 0
				op := admitCycle(hc, next(), traced, spans, tracer, fmt.Sprintf("%d-%d", cl, seq))
				op.blk = blk
				if traced {
					jb.observe()
				}
				ops[cl] = append(ops[cl], op)
			}
		}(cl)
	}
	warm.Wait()
	heap := liveHeapMiB()
	blocks := runBlocks(cfg, &phase, func() admitLayers { return readAdmitLayers(d) })
	phase.Store(stop)
	wg.Wait()

	return admissionResult(cfg, setups, blocks, ops, jb.total, heap), nil
}

// admitCycle runs one deploy and, when the module was placed, its
// kill, checking the verdict against the oracle.
func admitCycle(hc *httpClient, c DeployCase, traced bool, spans *serveSpans, tracer *telemetry.Tracer, op string) admitOp {
	name := c.Req.ModuleName
	body, err := json.Marshal(c.Req)
	if err != nil {
		return admitOp{fail: fmt.Sprintf("deploy %s: %v", name, err)}
	}
	var res admitOp
	var tr tracedAdmit
	var wait chan interval
	tag := ""
	if traced {
		tag = op + "-d"
		wait = spans.expect(tag)
	}
	t0 := time.Now()
	status, resp, err := hc.do(http.MethodPost, "/v1/modules", body, tag)
	t1 := time.Now()
	res.deployMS = float64(t1.Sub(t0)) / 1e6
	tr.deploy = interval{t0, t1}
	if traced {
		tr.deployServe = awaitSpan(spans, wait, tag, err)
	}
	var out Outcome
	if err == nil {
		out, err = Classify(status, resp)
	}
	switch {
	case err != nil:
		res.fail = fmt.Sprintf("deploy %s: %v", name, err)
	case !c.Matches(out):
		res.fail = fmt.Sprintf("deploy %s: %s on %q, want %s on %q", name, out.Verdict, out.Platform, c.Want, c.WantPlatform)
	}
	if traced {
		tr.ctl = findTrace(tracer, name, out.ID)
		if res.fail == "" && (tr.ctl == nil || !tr.deployServe.end.After(tr.deployServe.start)) {
			res.fail = fmt.Sprintf("deploy %s: admission trace or ServeHTTP span missing", name)
		}
	}
	// A placed module is killed even when its verdict was wrong, so
	// the hosted population stays constant.
	if out.ID != "" {
		if traced {
			tag = op + "-k"
			wait = spans.expect(tag)
		}
		k0 := time.Now()
		status, _, kerr := hc.do(http.MethodDelete, "/v1/modules/"+out.ID, nil, tag)
		tr.kill = interval{k0, time.Now()}
		if traced {
			tr.killServe = awaitSpan(spans, wait, tag, kerr)
		}
		if res.fail == "" && (kerr != nil || status != http.StatusNoContent) {
			res.fail = fmt.Sprintf("kill %s (%s): status %d, %v", out.ID, name, status, kerr)
		}
	}
	if traced {
		res.tr = &tr
	}
	res.end = time.Now()
	return res
}

// awaitSpan collects a tagged request's ServeHTTP span. A request
// that failed in transport may never have reached the server.
func awaitSpan(spans *serveSpans, wait chan interval, tag string, err error) interval {
	if err != nil {
		spans.forget(tag)
		return interval{}
	}
	select {
	case iv := <-wait:
		return iv
	case <-time.After(5 * time.Second):
		spans.forget(tag)
		return interval{}
	}
}

// findTrace returns the controller's admission trace for a deploy:
// the newest deploy trace for the module name, with the deployment
// ref when it was placed. Admissions serialize and each client owns
// its names, so the newest match is this request's.
func findTrace(t *telemetry.Tracer, name, ref string) *telemetry.Trace {
	for _, tr := range t.Recent(16) {
		if tr.Kind == "deploy" && tr.ID == name && tr.Ref == ref {
			return &tr
		}
	}
	return nil
}

// admissionResult folds the per-op records and window counters into
// the run's metrics.
func admissionResult(cfg runConfig, setups []float64, b blockSet[admitLayers], ops [][]admitOp, jbytes int64, heap float64) *result {
	res := &result{correct: true}
	var lat []float64
	var plain, tracedN int
	var firstTenth, lastTenth int
	var stages = map[string]time.Duration{}
	var transport, handlerSelf, kill, ctlOther, unattributed, opsSpan time.Duration
	work := make([]float64, len(b.edges)-1)
	blockLat := make([][]float64, len(b.edges)-1)
	for _, cl := range ops {
		for _, op := range cl {
			res.attempted++
			if op.fail != "" {
				res.failed++
				if res.failed <= 3 {
					res.note("failed: %s", op.fail)
				}
			}
			if op.blk <= 0 {
				continue
			}
			if b.traced(op.blk) {
				tracedN++
				tr := op.tr
				if tr == nil || tr.ctl == nil {
					continue
				}
				ctlSpan := interval{tr.ctl.Start, tr.ctl.Start.Add(tr.ctl.Total)}
				var sum time.Duration
				for _, st := range tr.ctl.Stages {
					stages[st.Name] += st.Duration
					sum += st.Duration
				}
				ctlOther += tr.ctl.Total - sum
				handlerSelf += SelfTime(tr.deployServe, []interval{ctlSpan})
				transport += SelfTime(tr.deploy, []interval{tr.deployServe})
				if !tr.kill.start.IsZero() {
					kill += tr.killServe.dur()
					transport += SelfTime(tr.kill, []interval{tr.killServe})
				}
				opsSpan += tr.deploy.dur() + tr.kill.dur()
				continue
			}
			plain++
			lat = append(lat, op.deployMS)
			work[op.blk-1]++
			blockLat[op.blk-1] = append(blockLat[op.blk-1], op.deployMS)
		}
	}
	// Drift: cycles completed in the first and in the last tenth of
	// the window, traced or not.
	open, shut := b.edges[0], b.edges[len(b.edges)-1]
	tenth := shut.Sub(open) / 10
	for _, cl := range ops {
		for _, op := range cl {
			switch {
			case op.blk <= 0:
			case op.end.Before(open.Add(tenth)):
				firstTenth++
			case op.end.After(shut.Add(-tenth)):
				lastTenth++
			}
		}
	}
	if res.failed > 0 {
		res.correct = false
	}
	var ld admitDelta
	var rt runtimeSnap
	b.each(false, func(a, z admitLayers) {
		rt.add(a.rt, z.rt)
		ld.cacheHits += float64(z.cache.Hits - a.cache.Hits)
		ld.cacheMisses += float64(z.cache.Misses - a.cache.Misses)
		ld.memoHits += float64(z.memo.Hits - a.memo.Hits)
		ld.memoMisses += float64(z.memo.Misses - a.memo.Misses)
		ld.appends += z.appends - a.appends
	})
	untracedS := b.seconds(false)
	tail := TailPercentile(len(lat))
	res.note("%d deploy verdicts in %.1fs untraced (1 client), %.1f/s; deploy p50 %.3f ms, p90 %.3f ms, p%g %.3f ms (n=%d)",
		plain, untracedS, float64(plain)/untracedS, Median(lat), Percentile(lat, 90), tail, Percentile(lat, tail), len(lat))
	if !cfg.trace {
		res.note("cycles per block: %v; cache hit ratio %.3f, memo hit ratio %.3f, gc cpu %.3f",
			work, ld.cacheHitRatio(), ld.memoHitRatio(), rt.gcFraction())
		endToEnd(res, setups, b, work, blockLat, heap)
		return res
	}

	// Traced blocks: per-cycle layer costs. The client's wall time in
	// traced blocks is the traced total; what no span covers
	// (generating the request, checking the answer) is unattributed.
	tracedS := b.seconds(true)
	perOp := func(d time.Duration) float64 { return ratio(float64(d)/1e3, float64(tracedN)) }
	clientTime := time.Duration(tracedS * 1e9)
	unattributed = clientTime - opsSpan
	untracedPerOp := ratio(untracedS*1e6, float64(plain))
	tracedPerOp := perOp(clientTime)
	layers := map[string]float64{
		"http.transport_us":          perOp(transport),
		"api.handler_self_us":        perOp(handlerSelf),
		"api.kill_us":                perOp(kill),
		"controller.canonicalize_us": perOp(stages[controller.StageCanonicalize]),
		"controller.cache_lookup_us": perOp(stages[controller.StageCacheLookup]),
		"controller.other_us":        perOp(ctlOther),
		"security.symexec_us":        perOp(stages[controller.StageSecurity]),
		"policy.check_us":            perOp(stages[controller.StagePolicyCheck]),
		"topology.placement_us":      perOp(stages[controller.StagePlacement]),
		"journal.append_us":          perOp(stages[controller.StageJournalAppend]),
	}
	res.set(layers)
	res.set(map[string]float64{
		"api.deploy_p99_ms":          Percentile(lat, 99),
		"controller.rate_drift":      ratio(float64(lastTenth), float64(firstTenth)),
		"symexec.cache_hit_ratio":    ld.cacheHitRatio(),
		"symexec.memo_hit_ratio":     ld.memoHitRatio(),
		"journal.bytes_per_op":       ratio(float64(jbytes), float64(tracedN)),
		"journal.appends_per_op":     ratio(ld.appends, float64(plain)),
		"runtime.gc_cpu_fraction":    rt.gcFraction(),
		"runtime.alloc_bytes_per_op": ratio(rt.allocBytes, float64(plain)),
		"runtime.allocs_per_op":      ratio(rt.allocObjects, float64(plain)),
		"trace.overhead_pct":         100 * (tracedPerOp/untracedPerOp - 1),
		"trace.unattributed_pct":     100 * ratio(float64(unattributed), float64(clientTime)),
		"failed_ratio":               ratio(float64(res.failed), float64(res.attempted)),
	})
	res.accounting(layers, perOp(unattributed), tracedPerOp, untracedPerOp, "us per cycle")
	return res
}

// admitDelta is the change in admission counters over counted blocks.
type admitDelta struct {
	cacheHits, cacheMisses, memoHits, memoMisses float64
	appends                                      float64
}

func (a admitDelta) cacheHitRatio() float64 {
	return ratio(a.cacheHits, a.cacheHits+a.cacheMisses)
}

func (a admitDelta) memoHitRatio() float64 {
	return ratio(a.memoHits, a.memoHits+a.memoMisses)
}
