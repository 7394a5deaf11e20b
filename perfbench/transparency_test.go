package main

import (
	"io"
	"sync/atomic"
	"testing"

	"repro/internal/kvstore"
	"repro/internal/locks"
)

// scriptOutcome is everything the program counts during a scripted run.
type scriptOutcome struct {
	store                     kvstore.Stats
	flushes, gets, sets, hits uint64
	acquisitions              uint64
	tracksOccupancy           bool
}

// scriptedRun drives one connection through a fixed script against a
// fresh server and returns the program's own counts. count interposes
// an acquisition counter under the shard locks (outside the timing
// wrapper when traced).
func scriptedRun(t *testing.T, lock string, traced, count bool) scriptOutcome {
	t.Helper()
	w := workload{name: "script", wire: true, lock: lock, shards: 8, keys: 256, valueSize: 64, burst: 16}
	var acq atomic.Uint64
	o := options{seed: 1}
	if count {
		o.wrapLock = func(m locks.Mutex) locks.Mutex { return locks.CountAcquisitions(m, &acq) }
	}
	var tr *tracer
	if traced {
		tr = newTracer(numProcs, spServer)
		tr.measuring.Store(true)
	}
	in, err := newInstance(&w, o, tr)
	if err != nil {
		t.Fatal(err)
	}
	defer in.close()
	// Sets and gets alternate, so every same-verb run the server
	// accumulates is one op long and its adaptive flush bound, which
	// follows measured service time, cannot change how it flushes.
	ops := make([]op, w.burst)
	for b := 0; b < 40; b++ {
		for i := range ops {
			ops[i] = op{key: uint32((b*7 + i*13) % w.keys), set: i%2 == 0}
		}
		if err := in.clients[0].burst(ops); err != nil {
			t.Fatal(err)
		}
	}
	if err := in.quiesce(); err != nil {
		t.Fatal(err)
	}
	st := in.srv.Snapshot()
	_, occ := in.store.ShardOccupancy(0)
	return scriptOutcome{
		store:   in.store.Snapshot(),
		flushes: st.Flushes, gets: st.Gets, sets: st.Sets, hits: st.Hits,
		acquisitions:    acq.Load(),
		tracksOccupancy: occ,
	}
}

// TestInterpositionIsTransparent proves the traced run measures the
// same program: the timing wrappers change none of its counts.
func TestInterpositionIsTransparent(t *testing.T) {
	for _, lock := range []string{"c-bo-mcs", "comb-a-c-bo-mcs"} {
		t.Run(lock, func(t *testing.T) {
			bare := scriptedRun(t, lock, false, false)
			counted := scriptedRun(t, lock, false, true)
			timed := scriptedRun(t, lock, true, true)
			if counted != timed {
				t.Errorf("timing wrappers changed the counts:\nwithout %+v\nwith    %+v", counted, timed)
			}
			counted.acquisitions = 0
			if bare != counted {
				t.Errorf("interposing changed the counts:\nregistry lock %+v\ninterposed    %+v", bare, counted)
			}
			if timed.acquisitions == 0 || timed.store.Sets == 0 || timed.hits == 0 {
				t.Errorf("script exercised nothing: %+v", timed)
			}
		})
	}
}

// TestSeesUnbatchedServer is the discrimination check: the benchmark
// must see a known regression, a server that flushes every op alone.
func TestSeesUnbatchedServer(t *testing.T) {
	if testing.Short() {
		t.Skip("measures for several seconds")
	}
	w, err := findWorkload("pipelined-mix")
	if err != nil {
		t.Fatal(err)
	}
	o := options{seed: 1, seconds: 1}
	base, err := runUntraced(w, o, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	o.maxBatch = 1
	slow, err := runUntraced(w, o, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	traced, err := runTraced(w, o, t.TempDir(), io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if got := traced.Metrics["server.ops_per_flush"].Value; got != 1 {
		t.Errorf("MaxBatch=1: server.ops_per_flush = %v, want 1", got)
	}
	b, s := base.Metrics["ops_per_s"].Value, slow.Metrics["ops_per_s"].Value
	t.Logf("ops_per_s: default %.0f, MaxBatch=1 %.0f", b, s)
	if s >= b {
		t.Errorf("MaxBatch=1 did not lower ops_per_s: %.0f >= %.0f", s, b)
	}
}
