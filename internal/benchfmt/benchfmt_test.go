package benchfmt

import (
	"bytes"
	"errors"
	"strings"
	"testing"
)

func TestWriteEnvelope(t *testing.T) {
	type rec struct {
		Lock    string  `json:"lock"`
		Threads int     `json:"threads"`
		Ops     float64 `json:"ops_per_sec"`
	}
	var buf bytes.Buffer
	if err := Write(&buf, []rec{{"mcs", 4, 1000.5}, {"c-bo-mcs", 8, 2000}}); err != nil {
		t.Fatal(err)
	}
	got := buf.String()
	want := `[
  {
    "lock": "mcs",
    "threads": 4,
    "ops_per_sec": 1000.5
  },
  {
    "lock": "c-bo-mcs",
    "threads": 8,
    "ops_per_sec": 2000
  }
]
`
	if got != want {
		t.Fatalf("envelope drifted:\ngot:\n%s\nwant:\n%s", got, want)
	}
	if !strings.HasSuffix(got, "\n") {
		t.Fatal("missing trailing newline")
	}
}

func TestWriteEmptySlice(t *testing.T) {
	var buf bytes.Buffer
	if err := Write(&buf, []struct{}{}); err != nil {
		t.Fatal(err)
	}
	if buf.String() != "[]\n" {
		t.Fatalf("empty slice encoded as %q, want %q", buf.String(), "[]\n")
	}
}

// env builds a tiny envelope from (lock, threads, ops) triples via
// Write, so Diff tests exercise the exact encoding the tools emit.
func env(t *testing.T, cells ...[3]any) []byte {
	t.Helper()
	type rec struct {
		Lock    string  `json:"lock"`
		Threads int     `json:"threads"`
		Ops     float64 `json:"ops_per_sec"`
	}
	recs := make([]rec, len(cells))
	for i, c := range cells {
		recs[i] = rec{c[0].(string), c[1].(int), c[2].(float64)}
	}
	var buf bytes.Buffer
	if err := Write(&buf, recs); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestDiffFlagsRegressions(t *testing.T) {
	oldJSON := env(t,
		[3]any{"mcs", 4, 1000.0},
		[3]any{"mcs", 8, 2000.0},
		[3]any{"c-bo-mcs", 4, 3000.0},
	)
	newJSON := env(t,
		[3]any{"mcs", 4, 500.0},       // -50%: regression
		[3]any{"mcs", 8, 1900.0},      // -5%: inside threshold
		[3]any{"c-bo-mcs", 4, 3600.0}, // +20%: improvement
	)
	regs, compared, err := Diff(oldJSON, newJSON, 0)
	if err != nil {
		t.Fatal(err)
	}
	if compared != 3 {
		t.Errorf("compared %d cells, want 3", compared)
	}
	if len(regs) != 1 {
		t.Fatalf("flagged %d regressions, want 1: %v", len(regs), regs)
	}
	r := regs[0]
	if !strings.Contains(r.Cell, "lock=mcs") || !strings.Contains(r.Cell, "threads=4") {
		t.Errorf("wrong cell flagged: %q", r.Cell)
	}
	if r.Old != 1000 || r.New != 500 || r.Delta != -0.5 {
		t.Errorf("regression = %+v, want old 1000 new 500 delta -0.5", r)
	}
	if s := r.String(); !strings.Contains(s, "-50.0%") {
		t.Errorf("String() = %q, want a -50.0%% mention", s)
	}
}

func TestDiffThresholdAndSorting(t *testing.T) {
	oldJSON := env(t, [3]any{"a", 1, 1000.0}, [3]any{"b", 1, 1000.0})
	newJSON := env(t, [3]any{"a", 1, 700.0}, [3]any{"b", 1, 400.0})
	// 40% threshold: only b (-60%) trips.
	regs, _, err := Diff(oldJSON, newJSON, 0.4)
	if err != nil {
		t.Fatal(err)
	}
	if len(regs) != 1 || !strings.Contains(regs[0].Cell, "lock=b") {
		t.Fatalf("threshold 0.4 flagged %v, want only lock=b", regs)
	}
	// Default threshold: both trip, worst first.
	regs, _, err = Diff(oldJSON, newJSON, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(regs) != 2 || regs[0].Delta > regs[1].Delta {
		t.Fatalf("default threshold flagged %v, want both sorted worst first", regs)
	}
}

func TestDiffIgnoresUnmatchedCells(t *testing.T) {
	// Columns come and go across PRs; only the intersection gates.
	oldJSON := env(t, [3]any{"mcs", 4, 1000.0}, [3]any{"retired-lock", 4, 9999.0})
	newJSON := env(t, [3]any{"mcs", 4, 950.0}, [3]any{"new-lock", 4, 1.0})
	regs, compared, err := Diff(oldJSON, newJSON, 0)
	if err != nil {
		t.Fatal(err)
	}
	if compared != 1 || len(regs) != 0 {
		t.Fatalf("compared %d / flagged %v, want 1 compared, none flagged", compared, regs)
	}
}

func TestDiffIdentityIncludesUnknownKnobs(t *testing.T) {
	// A knob Diff has never heard of (say a future "batch_mode") must
	// split cells, not merge them: same lock+threads, different knob,
	// different readings — no comparison should happen across them.
	oldJSON := []byte(`[
	  {"lock":"mcs","threads":4,"batch_mode":"fixed","ops_per_sec":1000},
	  {"lock":"mcs","threads":4,"batch_mode":"adaptive","ops_per_sec":2000}
	]`)
	newJSON := []byte(`[
	  {"lock":"mcs","threads":4,"batch_mode":"fixed","ops_per_sec":1000},
	  {"lock":"mcs","threads":4,"batch_mode":"adaptive","ops_per_sec":2000}
	]`)
	regs, compared, err := Diff(oldJSON, newJSON, 0)
	if err != nil {
		t.Fatal(err)
	}
	if compared != 2 || len(regs) != 0 {
		t.Fatalf("compared %d / flagged %v, want 2 compared, none flagged", compared, regs)
	}
}

func TestDiffFlagsAllocRegressions(t *testing.T) {
	oldJSON := []byte(`[
	  {"lock":"mcs","value_memory":"arena","ops_per_sec":1000,"allocs_per_op":2.0},
	  {"lock":"cna","value_memory":"arena","ops_per_sec":1000,"allocs_per_op":2.0}
	]`)
	newJSON := []byte(`[
	  {"lock":"mcs","value_memory":"arena","ops_per_sec":1000,"allocs_per_op":5.0},
	  {"lock":"cna","value_memory":"arena","ops_per_sec":1000,"allocs_per_op":2.1}
	]`)
	regs, compared, err := Diff(oldJSON, newJSON, 0)
	if err != nil {
		t.Fatal(err)
	}
	if compared != 2 {
		t.Errorf("compared %d cells, want 2", compared)
	}
	if len(regs) != 1 {
		t.Fatalf("flagged %d regressions, want 1 (only mcs's allocs rose past threshold): %v", len(regs), regs)
	}
	r := regs[0]
	if r.Metric != "allocs_per_op" || !strings.Contains(r.Cell, "lock=mcs") {
		t.Errorf("wrong regression flagged: %+v", r)
	}
	if r.Old != 2.0 || r.New != 5.0 || r.Delta != 1.5 {
		t.Errorf("regression = %+v, want old 2 new 5 delta 1.5", r)
	}
	if s := r.String(); !strings.Contains(s, "allocs/op") {
		t.Errorf("String() = %q, want an allocs/op mention", s)
	}
}

func TestDiffAllocNoiseFloor(t *testing.T) {
	// Near-zero alloc counts double on background noise alone; the
	// absolute floor keeps them from gating. 0.01 -> 0.05 is +400%
	// but only 0.04 allocs/op — not a regression.
	oldJSON := []byte(`[{"lock":"mcs","ops_per_sec":1000,"allocs_per_op":0.01}]`)
	newJSON := []byte(`[{"lock":"mcs","ops_per_sec":1000,"allocs_per_op":0.05}]`)
	regs, compared, err := Diff(oldJSON, newJSON, 0)
	if err != nil {
		t.Fatal(err)
	}
	if compared != 1 || len(regs) != 0 {
		t.Fatalf("compared %d / flagged %v, want 1 compared, none flagged", compared, regs)
	}
}

func TestDiffWorstFirstAcrossMetrics(t *testing.T) {
	// A -30% throughput drop and a +200% alloc rise on different
	// cells: the alloc regression is fractionally worse and sorts
	// first.
	oldJSON := []byte(`[
	  {"lock":"a","ops_per_sec":1000},
	  {"lock":"b","ops_per_sec":1000,"allocs_per_op":1.0}
	]`)
	newJSON := []byte(`[
	  {"lock":"a","ops_per_sec":700},
	  {"lock":"b","ops_per_sec":1000,"allocs_per_op":3.0}
	]`)
	regs, _, err := Diff(oldJSON, newJSON, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	if len(regs) != 2 {
		t.Fatalf("flagged %d regressions, want 2: %v", len(regs), regs)
	}
	if regs[0].Metric != "allocs_per_op" || regs[1].Metric != "ops_per_sec" {
		t.Fatalf("order = [%s, %s], want allocs first (worse fractional change)", regs[0].Metric, regs[1].Metric)
	}
}

func TestDiffRejectsMalformedEnvelopes(t *testing.T) {
	good := env(t, [3]any{"mcs", 4, 1000.0})
	if _, _, err := Diff([]byte("not json"), good, 0); err == nil {
		t.Error("malformed old envelope accepted")
	}
	if _, _, err := Diff(good, []byte("{"), 0); err == nil {
		t.Error("malformed new envelope accepted")
	}
}

type failWriter struct{}

func (failWriter) Write([]byte) (int, error) { return 0, errors.New("disk full") }

func TestWritePropagatesErrors(t *testing.T) {
	if err := Write(failWriter{}, []int{1}); err == nil {
		t.Fatal("writer error swallowed")
	}
}

func TestDiffFlagsGCPauseRegressions(t *testing.T) {
	oldJSON := []byte(`[
	  {"lock":"mcs","value_memory":"arena","ops_per_sec":1000,"gc_pause_ms":4.0},
	  {"lock":"cna","value_memory":"arena","ops_per_sec":1000,"gc_pause_ms":4.0}
	]`)
	newJSON := []byte(`[
	  {"lock":"mcs","value_memory":"arena","ops_per_sec":1000,"gc_pause_ms":12.0},
	  {"lock":"cna","value_memory":"arena","ops_per_sec":1000,"gc_pause_ms":4.2}
	]`)
	regs, compared, err := Diff(oldJSON, newJSON, 0)
	if err != nil {
		t.Fatal(err)
	}
	if compared != 2 {
		t.Errorf("compared %d cells, want 2", compared)
	}
	if len(regs) != 1 {
		t.Fatalf("flagged %d regressions, want 1 (only mcs's pauses rose past threshold): %v", len(regs), regs)
	}
	r := regs[0]
	if r.Metric != "gc_pause_ms" || !strings.Contains(r.Cell, "lock=mcs") {
		t.Errorf("wrong regression flagged: %+v", r)
	}
	if r.Old != 4.0 || r.New != 12.0 || r.Delta != 2.0 {
		t.Errorf("regression = %+v, want old 4 new 12 delta 2", r)
	}
	if s := r.String(); !strings.Contains(s, "GC pause") {
		t.Errorf("String() = %q, want a GC pause mention", s)
	}
}

func TestDiffGCPauseNoiseFloor(t *testing.T) {
	// Sub-millisecond pauses triple on one background collection; the
	// absolute floor (minPauseRegression ms) keeps them from gating.
	oldJSON := []byte(`[{"lock":"mcs","ops_per_sec":1000,"gc_pause_ms":0.3}]`)
	newJSON := []byte(`[{"lock":"mcs","ops_per_sec":1000,"gc_pause_ms":1.2}]`)
	regs, compared, err := Diff(oldJSON, newJSON, 0)
	if err != nil {
		t.Fatal(err)
	}
	if compared != 1 || len(regs) != 0 {
		t.Fatalf("compared %d / flagged %v, want 1 compared, none flagged", compared, regs)
	}
}
