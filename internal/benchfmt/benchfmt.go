// Package benchfmt is the single place benchmark JSON leaves — and
// re-enters — the repository. Every CLI that emits measurement records
// (kvbench's table cells, lbench's sweep points) writes them through
// Write, so downstream trajectory tooling — the CI artifact upload and
// anything plotting across PRs — sees one stable encoding instead of
// each tool hand-rolling its own encoder. Diff closes the loop: it
// compares two such envelopes cell by cell and flags throughput
// regressions, which is what turns the CI artifact from a plot input
// into a perf-trajectory gate.
package benchfmt

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strings"
)

// Write encodes records — any slice of per-cell record structs — as
// an indented JSON array with a trailing newline, the repository's
// benchmark interchange format. Field names and shapes stay with the
// callers' record types; this fixes only the envelope.
func Write(w io.Writer, records any) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(records)
}

// DefaultRegressionThreshold is the fractional throughput drop Diff
// flags by default: new below 85% of old is a regression. Noise on a
// shared CI runner sits well inside 15% for the smoke windows the
// artifact is built from; real perf work should compare longer runs
// with a tighter threshold.
const DefaultRegressionThreshold = 0.15

// metricFields are the measured values of a record — everything else
// identifies the cell. Kept as a deny-list so new knobs added to a
// tool's record type extend cell identity automatically instead of
// silently merging cells that differ in the new knob.
var metricFields = map[string]bool{
	"ops_per_sec":         true,
	"speedup_vs_pthread1": true,
	"ops_per_acq":         true,
	"avg_batch":           true,
	// value-memory and index-memory metrics (kvbench churn cells).
	"allocs_per_op": true,
	"gc_pause_ms":   true,
	"gc_assist_ms":  true,
	"arena_spills":  true,
	// lbench's sweep metrics.
	"pairs_per_sec":       true,
	"misses_per_cs":       true,
	"fairness_stddev_pct": true,
	"abort_pct":           true,
}

// Regression is one flagged cell metric: the cell's identity, which
// metric regressed (ops_per_sec dropping or allocs_per_op rising),
// both readings, and the fractional change ((new-old)/old; negative =
// slower for throughput, positive = more allocating for allocs).
type Regression struct {
	Cell     string
	Metric   string
	Old, New float64
	Delta    float64
}

func (r Regression) String() string {
	switch r.Metric {
	case "allocs_per_op":
		return fmt.Sprintf("%s: %.2f -> %.2f allocs/op (%+.1f%%)", r.Cell, r.Old, r.New, r.Delta*100)
	case "gc_pause_ms":
		return fmt.Sprintf("%s: %.2f -> %.2f ms GC pause (%+.1f%%)", r.Cell, r.Old, r.New, r.Delta*100)
	}
	return fmt.Sprintf("%s: %.0f -> %.0f ops/s (%+.1f%%)", r.Cell, r.Old, r.New, r.Delta*100)
}

// cellKey canonicalizes a record's identity fields into a stable
// string key.
func cellKey(rec map[string]any) string {
	keys := make([]string, 0, len(rec))
	for k := range rec {
		if !metricFields[k] {
			keys = append(keys, k)
		}
	}
	sort.Strings(keys)
	var b strings.Builder
	for i, k := range keys {
		if i > 0 {
			b.WriteByte(' ')
		}
		fmt.Fprintf(&b, "%s=%v", k, rec[k])
	}
	return b.String()
}

// cellMetrics are one cell's gated readings; has* record whether the
// record carried the metric at all (other tools' record shapes omit
// them).
type cellMetrics struct {
	ops, allocs, pause          float64
	hasOps, hasAllocs, hasPause bool
}

// parseCells decodes one envelope into cell -> gated metrics. Cells
// without any gated metric are skipped; duplicate cells keep the last
// reading, matching how a re-measured cell would supersede an earlier
// one in the same run.
func parseCells(data []byte) (map[string]cellMetrics, error) {
	var recs []map[string]any
	if err := json.Unmarshal(data, &recs); err != nil {
		return nil, fmt.Errorf("benchfmt: parsing envelope: %w", err)
	}
	cells := make(map[string]cellMetrics, len(recs))
	for _, rec := range recs {
		var m cellMetrics
		m.ops, m.hasOps = rec["ops_per_sec"].(float64)
		m.allocs, m.hasAllocs = rec["allocs_per_op"].(float64)
		m.pause, m.hasPause = rec["gc_pause_ms"].(float64)
		if m.hasOps || m.hasAllocs || m.hasPause {
			cells[cellKey(rec)] = m
		}
	}
	return cells, nil
}

// minAllocRegression is the absolute allocs/op increase a flagged
// alloc regression must also clear: near-zero cells (an arena mode
// column at 0.001 allocs/op, say) double on background noise alone,
// and a purely fractional threshold would gate on that noise.
const minAllocRegression = 0.5

// minPauseRegression is the absolute GC-pause increase (ms) a flagged
// pause regression must also clear, for the same reason: an arena
// cell whose pauses round to fractions of a millisecond can
// triple on a single background collection, and only the fractional
// test would flag that noise as a regression.
const minPauseRegression = 2.0

// Diff compares two benchmark envelopes (the JSON arrays Write emits)
// cell by cell and returns the cells that regressed by more than
// threshold (fractional; <= 0 selects DefaultRegressionThreshold),
// sorted worst first, plus how many cells the two envelopes had in
// common. Three metrics gate: ops_per_sec dropping, and — for cells
// that carry them — allocs_per_op and gc_pause_ms rising (each by
// more than the threshold AND by an absolute floor,
// minAllocRegression / minPauseRegression, so near-zero readings
// don't flag on noise). Cells present in only one envelope are
// ignored: a trajectory gate must tolerate tables gaining and losing
// columns across PRs.
func Diff(oldJSON, newJSON []byte, threshold float64) (regs []Regression, compared int, err error) {
	if threshold <= 0 {
		threshold = DefaultRegressionThreshold
	}
	oldCells, err := parseCells(oldJSON)
	if err != nil {
		return nil, 0, err
	}
	newCells, err := parseCells(newJSON)
	if err != nil {
		return nil, 0, err
	}
	for cell, o := range oldCells {
		n, ok := newCells[cell]
		if !ok {
			continue
		}
		matched := false
		if o.hasOps && n.hasOps && o.ops > 0 {
			matched = true
			delta := (n.ops - o.ops) / o.ops
			if delta < -threshold {
				regs = append(regs, Regression{Cell: cell, Metric: "ops_per_sec", Old: o.ops, New: n.ops, Delta: delta})
			}
		}
		if o.hasAllocs && n.hasAllocs && o.allocs > 0 {
			matched = true
			delta := (n.allocs - o.allocs) / o.allocs
			if delta > threshold && n.allocs-o.allocs >= minAllocRegression {
				regs = append(regs, Regression{Cell: cell, Metric: "allocs_per_op", Old: o.allocs, New: n.allocs, Delta: delta})
			}
		}
		if o.hasPause && n.hasPause && o.pause > 0 {
			matched = true
			delta := (n.pause - o.pause) / o.pause
			if delta > threshold && n.pause-o.pause >= minPauseRegression {
				regs = append(regs, Regression{Cell: cell, Metric: "gc_pause_ms", Old: o.pause, New: n.pause, Delta: delta})
			}
		}
		if matched {
			compared++
		}
	}
	// Worst first across both metrics: largest fractional change in
	// either direction.
	sort.Slice(regs, func(i, j int) bool { return abs(regs[i].Delta) > abs(regs[j].Delta) })
	return regs, compared, nil
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}
