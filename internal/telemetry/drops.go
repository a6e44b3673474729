package telemetry

import (
	"sort"
	"sync"
)

// Drops is the unified drop-attribution hub: every subsystem that can
// discard a packet (or refuse work that loses one) registers a read
// callback here under a (site, reason) key, and the hub surfaces the
// union as one Prometheus family — innet_drops_total{site,reason} —
// plus a JSON rollup for /v1/health. The hub owns no counters of its
// own: subsystems keep whatever counter representation their hot path
// wants (plain uint64 under a lock, atomics) and the
// hub only reads them at scrape time, so attribution adds nothing to
// any packet path.
//
// Site names one subsystem (pipeline, vswitch, platform, admission,
// replication); reason is one value of the shared taxonomy documented
// in FORMATS.md §15. Multiple sources may register under the same
// (site, reason) — their reads are summed — so e.g. every vswitch
// instance contributes to one series.
//
// A nil *Drops no-ops on every method, matching the registry's
// nil-handle convention.
type Drops struct {
	mu      sync.Mutex
	sources map[string]map[string][]func() uint64 // site → reason → readers
	reg     *Registry                             // set by Attach; later Sources self-register
}

// NewDrops returns an empty hub.
func NewDrops() *Drops {
	return &Drops{sources: make(map[string]map[string][]func() uint64)}
}

// Source registers one drop counter under (site, reason). read must
// be safe to call from any goroutine and monotonic (it feeds a
// Prometheus counter). Sources registered after Attach are exported
// on the next scrape; sources sharing a (site, reason) are summed.
func (d *Drops) Source(site, reason string, read func() uint64) {
	if d == nil || read == nil {
		return
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	byReason := d.sources[site]
	if byReason == nil {
		byReason = make(map[string][]func() uint64)
		d.sources[site] = byReason
	}
	first := len(byReason[reason]) == 0
	byReason[reason] = append(byReason[reason], read)
	if first && d.reg != nil {
		d.registerLocked(site, reason)
	}
}

// Attach exports every registered (site, reason) — present and future
// — as innet_drops_total{site,reason} counter series on r.
func (d *Drops) Attach(r *Registry) {
	if d == nil || r == nil {
		return
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	d.reg = r
	for site, byReason := range d.sources {
		for reason := range byReason {
			d.registerLocked(site, reason)
		}
	}
}

// registerLocked wires one (site, reason) series; d.mu held.
func (d *Drops) registerLocked(site, reason string) {
	d.reg.CounterFunc("innet_drops_total",
		"Packets dropped or refused anywhere in the system, by subsystem site and taxonomy reason.",
		func() float64 { return float64(d.read(site, reason)) },
		"site", site, "reason", reason)
}

// read sums the readers for one (site, reason).
func (d *Drops) read(site, reason string) uint64 {
	d.mu.Lock()
	reads := append([]func() uint64(nil), d.sources[site][reason]...)
	d.mu.Unlock()
	var sum uint64
	for _, f := range reads {
		sum += f()
	}
	return sum
}

// Snapshot returns the current site → reason → count rollup. Zero
// series are included so a registered site is visible before its
// first drop. Returns nil on a nil hub.
func (d *Drops) Snapshot() map[string]map[string]uint64 {
	if d == nil {
		return nil
	}
	d.mu.Lock()
	keys := make(map[string][]string, len(d.sources))
	for site, byReason := range d.sources {
		for reason := range byReason {
			keys[site] = append(keys[site], reason)
		}
	}
	d.mu.Unlock()
	out := make(map[string]map[string]uint64, len(keys))
	for site, reasons := range keys {
		sort.Strings(reasons)
		m := make(map[string]uint64, len(reasons))
		for _, reason := range reasons {
			m[reason] = d.read(site, reason)
		}
		out[site] = m
	}
	return out
}

// Total sums every registered drop counter.
func (d *Drops) Total() uint64 {
	var sum uint64
	for _, byReason := range d.Snapshot() {
		for _, n := range byReason {
			sum += n
		}
	}
	return sum
}
