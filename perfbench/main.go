// Command perfbench is the repository's benchmark. It runs innetd's
// own stack in-process (controller restored over a journal,
// telemetry, flight recorder and drop hub, platform simulator, API
// server on a loopback listener) and drives one of
// three seeded workloads against it, checking every answer against an
// oracle:
//
//	admit-cold  1 HTTP client (2 in the warm-up), deploy → kill cycles of distinct modules
//	admit-warm  the same loop over a fixed catalog of 8 requests
//	forward     1 caller of Simulator.Inject with bursts of 1, 8, 64 packets
//
// With -trace 0 it reports the end-to-end metrics; with -trace 1 it
// alternates untraced and traced blocks and reports per-layer costs
// timed around the calls into each layer. The last line of standard
// output is one JSON object: {"correct", "attempted", "failed",
// "metrics"}. -list prints every metric with its unit, layer and the
// end-to-end metric it should move.
//
// Run it from the repository root through perfbench/run.sh, which
// builds it inside the checkout:
//
//	bash perfbench/run.sh --workload admit-cold --seed 1 --seconds 20 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"sort"
	"strings"
	"time"
)

// runConfig holds the command-line settings of one run.
type runConfig struct {
	workload  string
	seed      int64
	seconds   float64
	trace     bool
	stateRoot string
}

// setupReps is how many times a run builds its set-up; setup_s is the
// median and the last set-up serves the workload.
const setupReps = 21

// block is the length of one block of the measured window. The
// end-to-end figures are medians over blocks; the traced run
// alternates untraced and traced blocks.
const block = time.Second

func main() {
	os.Exit(run())
}

func run() int {
	var cfg runConfig
	var traceFlag int
	var list bool
	flag.StringVar(&cfg.workload, "workload", "", "admit-cold | admit-warm | forward")
	flag.Int64Var(&cfg.seed, "seed", 1, "workload seed")
	flag.Float64Var(&cfg.seconds, "seconds", 10, "length of the measured window in seconds")
	flag.IntVar(&traceFlag, "trace", 0, "0: end-to-end metrics; 1: traced run with per-layer metrics")
	flag.StringVar(&cfg.stateRoot, "state-root", ".bench_build/state", "directory for the daemons' temporary state directories")
	flag.BoolVar(&list, "list", false, "print every metric with its unit and exit")
	flag.Parse()
	if list {
		printCatalog()
		return 0
	}
	cfg.trace = traceFlag == 1
	if cfg.seconds <= 0 || (traceFlag != 0 && traceFlag != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: -seconds must be positive and -trace 0 or 1")
		return 2
	}
	if err := os.MkdirAll(cfg.stateRoot, 0o755); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	var res *result
	var err error
	switch cfg.workload {
	case "admit-cold":
		res, err = runAdmission(cfg, true)
	case "admit-warm":
		res, err = runAdmission(cfg, false)
	case "forward":
		res, err = runForward(cfg)
	default:
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q\n", cfg.workload)
		return 2
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", cfg.workload, err)
		return 1
	}
	for _, n := range res.notes {
		fmt.Println("#", n)
	}
	line, err := res.json(cfg.trace)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Println(line)
	return 0
}

// printCatalog prints every metric by name with its unit, layer and
// the end-to-end metric and workload it should move.
func printCatalog() {
	for _, w := range Workloads {
		fmt.Printf("workload %-11s %s\n", w.Name, w.Why)
	}
	for _, m := range EndToEnd {
		fmt.Printf("end-to-end %-28s %-6s %-6s %s\n", m.Name, m.Unit, m.Better, m.Note)
	}
	for _, m := range PerLayer {
		fmt.Printf("per-layer  %-28s %-6s %-6s layer=%s moves=%q  %s\n", m.Name, m.Unit, m.Better, m.Layer, m.Moves, m.Note)
	}
}

// result is one run's outcome.
type result struct {
	correct           bool
	attempted, failed int
	values            map[string]float64
	notes             []string
}

func (r *result) note(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

// endToEnd records the untraced run's metrics: the median set-up
// time, and the medians over untraced blocks of each block's work per
// second and p50 and p90 latency (work and lat are indexed by
// block-1). Medians over blocks keep a passing stall on a shared
// machine from moving the run's figures. heap is the live heap after
// the warm-up: a fixed, seeded amount of work, so the figure does not
// grow with the speed of the run.
func endToEnd[T any](r *result, setups []float64, b blockSet[T], work []float64, lat [][]float64, heap float64) {
	var rates, p50s, p90s []float64
	for i := 1; i < len(b.edges); i++ {
		if b.traced(i) || len(lat[i-1]) == 0 {
			continue
		}
		rates = append(rates, work[i-1]/b.edges[i].Sub(b.edges[i-1]).Seconds())
		p50s = append(p50s, Percentile(lat[i-1], 50))
		p90s = append(p90s, Percentile(lat[i-1], 90))
	}
	r.set(map[string]float64{
		"setup_s":      Median(setups),
		"ops_per_s":    Median(rates),
		"op_p50_ms":    Median(p50s),
		"op_p90_ms":    Median(p90s),
		"live_heap_mb": heap,
	})
	r.note("spread over %d blocks (IQR/median): ops/s %.3f, p50 %.3f, p90 %.3f; set-up times %v",
		len(rates), Spread(rates), Spread(p50s), Spread(p90s), setups)
}

// accounting notes how the layers' self times and the unattributed
// rest add up to the traced total per op, and how that compares with
// the untraced total measured in the interleaved untraced blocks.
func (r *result) accounting(layers map[string]float64, unattributed, traced, untraced float64, unit string) {
	names := make([]string, 0, len(layers))
	for n := range layers {
		names = append(names, n)
	}
	sort.Strings(names)
	sum := unattributed
	var parts []string
	for _, n := range names {
		sum += layers[n]
		parts = append(parts, fmt.Sprintf("%s %.1f", n, layers[n]))
	}
	r.note("accounting (%s): %s + unattributed %.1f = %.1f; traced total %.1f; untraced total %.1f (tracing adds %+.1f%%)",
		unit, strings.Join(parts, " + "), unattributed, sum, traced, untraced, 100*(traced/untraced-1))
}

// set records metrics. In the traced run, layers the workload does
// not reach are not set and report 0.
func (r *result) set(m map[string]float64) {
	if r.values == nil {
		r.values = make(map[string]float64)
	}
	for k, v := range m {
		r.values[k] = v
	}
}

// json renders the result line: every end-to-end metric (trace off)
// or every per-layer metric (trace on).
func (r *result) json(traced bool) (string, error) {
	list := EndToEnd
	if traced {
		list = PerLayer
	}
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := make(map[string]value, len(list))
	for _, m := range list {
		v, ok := r.values[m.Name]
		if !traced && !ok {
			return "", fmt.Errorf("metric %s not measured", m.Name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return "", fmt.Errorf("metric %s is %v", m.Name, v)
		}
		metrics[m.Name] = value{v, m.Unit}
	}
	all := append(append([]Metric(nil), EndToEnd...), PerLayer...)
	for k := range r.values {
		if !inCatalog(k, all) {
			return "", fmt.Errorf("metric %s is not in the catalog", k)
		}
	}
	out, err := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{r.correct && r.failed == 0 && r.attempted > 0, r.attempted, r.failed, metrics})
	return string(out), err
}

func inCatalog(name string, list []Metric) bool {
	for _, m := range list {
		if m.Name == name {
			return true
		}
	}
	return false
}

// setupRepeated builds a workload's set-up setupReps times, timing
// each and tearing down all but the last, which it returns with the
// sorted times.
func setupRepeated[T any](build func() (T, error), teardown func(T) error) (T, []float64, error) {
	var times []float64
	for i := 0; ; i++ {
		start := time.Now()
		s, err := build()
		if err != nil {
			return s, nil, err
		}
		times = append(times, time.Since(start).Seconds())
		if i == setupReps-1 {
			sort.Float64s(times)
			return s, times, nil
		}
		if err := teardown(s); err != nil {
			return s, nil, err
		}
	}
}

// numBlocks splits the window into blocks of about one block length;
// the traced run needs an even number so that untraced (odd) and
// traced (even) blocks pair up.
func numBlocks(cfg runConfig) int {
	n := max(1, int(math.Round(cfg.seconds/block.Seconds())))
	if cfg.trace {
		n = max(2, n+n%2)
	}
	return n
}

// blockEnd is when block blk (1-based) of n closes.
func blockEnd(start time.Time, blk, n int, seconds float64) time.Time {
	return start.Add(time.Duration(float64(blk) / float64(n) * seconds * 1e9))
}

// blockSet is the measured window: its blocks, all untraced or
// alternating untraced (odd) and traced (even), with a counter
// snapshot at every edge.
type blockSet[T any] struct {
	edges   []time.Time
	snaps   []T
	tracing bool
}

// traced reports whether block blk (1-based) ran with tracing on.
func (b blockSet[T]) traced(blk int) bool { return b.tracing && blk%2 == 0 }

// seconds sums the length of the blocks of one kind.
func (b blockSet[T]) seconds(traced bool) float64 {
	var s float64
	for i := 1; i < len(b.edges); i++ {
		if b.traced(i) == traced {
			s += b.edges[i].Sub(b.edges[i-1]).Seconds()
		}
	}
	return s
}

// each calls f with the edge snapshots of every block of one kind.
func (b blockSet[T]) each(traced bool, f func(a, z T)) {
	for i := 1; i < len(b.snaps); i++ {
		if b.traced(i) == traced {
			f(b.snaps[i-1], b.snaps[i])
		}
	}
}

// runBlocks opens the window and advances phase through its blocks
// (phase 0 is the warm-up before it), taking a snapshot at each edge.
func runBlocks[T any](cfg runConfig, phase interface{ Store(int64) }, snap func() T) blockSet[T] {
	n := numBlocks(cfg)
	b := blockSet[T]{tracing: cfg.trace}
	start := time.Now()
	for i := 0; i <= n; i++ {
		b.snaps = append(b.snaps, snap())
		b.edges = append(b.edges, time.Now())
		if i == n {
			break
		}
		phase.Store(int64(i + 1))
		time.Sleep(time.Until(blockEnd(start, i+1, n, cfg.seconds)))
	}
	return b
}
