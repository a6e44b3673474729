// Per-commit bench history (BENCH_HISTORY.jsonl) and the CI
// regression gate. Every `make bench-all` run appends one JSON line —
// commit, environment, and the headline metrics of each suite — so
// the file is a grep-able flat record of how the numbers moved, and
// the gate can compare a fresh run against the previous entry from
// the same environment without any external tooling.
package bench

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"strings"
	"time"
)

// HistoryFormat versions the BENCH_HISTORY.jsonl line schema
// (docs/FORMATS.md §14).
const HistoryFormat = "innet-bench-history/1"

// HistoryEntry is one appended line: which commit, where it ran, and
// the flat metric map the gate compares.
type HistoryEntry struct {
	Format     string             `json:"format"`
	Commit     string             `json:"commit"`
	TimeUTC    string             `json:"time_utc"`
	Env        string             `json:"env"`
	GOMAXPROCS int                `json:"gomaxprocs"`
	NumCPU     int                `json:"num_cpu"`
	Metrics    map[string]float64 `json:"metrics"`
}

// NewHistoryEntry stamps an entry for this process; callers fill
// Metrics via Record*.
func NewHistoryEntry(commit, env string) *HistoryEntry {
	return &HistoryEntry{
		Format:     HistoryFormat,
		Commit:     commit,
		TimeUTC:    time.Now().UTC().Format(time.RFC3339),
		Env:        env,
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
		Metrics:    map[string]float64{},
	}
}

// RecordFastPath folds the fast-path suite's gated headline numbers in.
func (e *HistoryEntry) RecordFastPath(r *FastPathResult) {
	e.Metrics["dispatch_batch_pps"] = r.DispatchBatchPPS
	e.Metrics["dataplane_batched_pps"] = r.DataplaneBatchedPPS
	e.Metrics["admission_cold_ops_per_sec"] = r.AdmissionColdOpsPerSec
	e.Metrics["admission_warm_ops_per_sec"] = r.AdmissionWarmOpsPerSec
}

// RecordPipeline folds the pipeline suite's headline numbers in.
func (e *HistoryEntry) RecordPipeline(r *PipelineResult) {
	e.Metrics["pipeline_graph_pps"] = r.GraphPPS
	e.Metrics["pipeline_compiled_pps"] = r.CompiledPPS
	e.Metrics["pipeline_speedup"] = r.SingleCoreSpeedup
}

// AppendHistory writes the entry as one JSON line, creating the file
// on first use. Append-only by construction: nothing ever rewrites
// earlier lines.
func AppendHistory(path string, e *HistoryEntry) error {
	data, err := json.Marshal(e)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return err
	}
	defer f.Close()
	if _, err := f.Write(append(data, '\n')); err != nil {
		return err
	}
	return f.Sync()
}

// ReadHistory parses every line of a history file, skipping blanks.
func ReadHistory(path string) ([]HistoryEntry, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var out []HistoryEntry
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 64*1024), 1024*1024)
	ln := 0
	for sc.Scan() {
		ln++
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		var e HistoryEntry
		if err := json.Unmarshal([]byte(line), &e); err != nil {
			return nil, fmt.Errorf("%s:%d: %w", path, ln, err)
		}
		out = append(out, e)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return out, nil
}

// GatedMetrics are the throughput metrics the CI gate enforces:
// a drop beyond the threshold in any of them fails the build. Only
// metrics present in BOTH compared entries are checked, so adding a
// new suite never trips the gate on its first appearance.
var GatedMetrics = []string{
	"dispatch_batch_pps",
	"admission_cold_ops_per_sec",
	"pipeline_compiled_pps",
}

// GateError lists the regressions that tripped the gate.
type GateError struct {
	BaseCommit string
	Regressed  []string
}

// Error implements error.
func (e *GateError) Error() string {
	return fmt.Sprintf("bench gate: regression vs %s: %s",
		e.BaseCommit, strings.Join(e.Regressed, "; "))
}

// Gate compares the newest entry against the previous entry with the
// same Env (measurements from different machines are not comparable)
// and returns a GateError when any gated metric dropped by more than
// threshold (e.g. 0.15 = 15%). With fewer than two comparable entries
// there is nothing to gate and it returns nil.
func Gate(entries []HistoryEntry, threshold float64) error {
	if len(entries) < 2 {
		return nil
	}
	cur := entries[len(entries)-1]
	var base *HistoryEntry
	for i := len(entries) - 2; i >= 0; i-- {
		if entries[i].Env == cur.Env {
			base = &entries[i]
			break
		}
	}
	if base == nil {
		return nil
	}
	var bad []string
	for _, k := range GatedMetrics {
		b, okB := base.Metrics[k]
		c, okC := cur.Metrics[k]
		if !okB || !okC || b <= 0 {
			continue
		}
		if drop := (b - c) / b; drop > threshold {
			bad = append(bad, fmt.Sprintf("%s %.3g -> %.3g (-%.1f%% > %.0f%%)",
				k, b, c, drop*100, threshold*100))
		}
	}
	if len(bad) > 0 {
		return &GateError{BaseCommit: base.Commit, Regressed: bad}
	}
	return nil
}

// GateFile is the one-call form used by innet-bench -gate and
// scripts/bench_gate.sh.
func GateFile(path string, threshold float64) error {
	entries, err := ReadHistory(path)
	if err != nil {
		return err
	}
	return Gate(entries, threshold)
}
