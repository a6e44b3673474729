package main

import (
	"bufio"
	"bytes"
	"runtime"
	"runtime/metrics"
	"strconv"
	"strings"

	"github.com/in-net/innet/internal/telemetry"
)

// runtimeSnap holds the Go runtime counters read at a window edge, or
// their growth summed over the blocks that count.
type runtimeSnap struct {
	gcCPU, userCPU, allocBytes, allocObjects float64
}

var runtimeSamples = []string{
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/user:cpu-seconds",
	"/gc/heap/allocs:bytes",
	"/gc/heap/allocs:objects",
}

func readRuntime() runtimeSnap {
	s := make([]metrics.Sample, len(runtimeSamples))
	for i, name := range runtimeSamples {
		s[i].Name = name
	}
	metrics.Read(s)
	v := func(i int) float64 {
		switch s[i].Value.Kind() {
		case metrics.KindFloat64:
			return s[i].Value.Float64()
		case metrics.KindUint64:
			return float64(s[i].Value.Uint64())
		}
		return 0
	}
	return runtimeSnap{gcCPU: v(0), userCPU: v(1), allocBytes: v(2), allocObjects: v(3)}
}

// add sums the growth from snapshot a to snapshot b into d.
func (d *runtimeSnap) add(a, b runtimeSnap) {
	d.gcCPU += b.gcCPU - a.gcCPU
	d.userCPU += b.userCPU - a.userCPU
	d.allocBytes += b.allocBytes - a.allocBytes
	d.allocObjects += b.allocObjects - a.allocObjects
}

// gcFraction is GC CPU time over GC plus user (mutator) CPU time.
func (d runtimeSnap) gcFraction() float64 {
	return ratio(d.gcCPU, d.gcCPU+d.userCPU)
}

// liveHeapMiB forces collections and returns the live heap in MiB.
// The second collection empties the sync.Pool victim caches the first
// one only demoted, so pooled buffers do not count.
func liveHeapMiB() float64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}

// registryValues sums each named family over all its label sets in a
// registry's Prometheus exposition: the view an operator scraping
// /v1/metrics gets.
func registryValues(r *telemetry.Registry, names ...string) map[string]float64 {
	var buf bytes.Buffer
	out := make(map[string]float64, len(names))
	if err := r.WritePrometheus(&buf); err != nil {
		return out
	}
	want := make(map[string]bool, len(names))
	for _, n := range names {
		want[n] = true
	}
	sc := bufio.NewScanner(&buf)
	for sc.Scan() {
		line := sc.Text()
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 || strings.HasPrefix(line, "#") {
			continue
		}
		name := line[:sp]
		if i := strings.IndexByte(name, '{'); i >= 0 {
			name = name[:i]
		}
		if !want[name] {
			continue
		}
		if v, err := strconv.ParseFloat(line[sp+1:], 64); err == nil {
			out[name] += v
		}
	}
	return out
}

// ratio is a/b, or 0 when b is 0 (a layer the workload never reached).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
