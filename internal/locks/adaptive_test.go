package locks_test

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/locks"
	"repro/internal/locktest"
	"repro/internal/numa"
)

func TestAdaptiveOverMCS(t *testing.T) {
	topo := testTopo()
	x := locks.NewCombiningAdaptive(topo, locks.NewMCS(topo))
	locktest.CheckExec(t, topo, x, 16, 300)
}

func TestAdaptiveOverCohort(t *testing.T) {
	// Adaptivity over a lock that itself batches hand-offs by cluster:
	// the two policies must compose without losing wakeups.
	topo := testTopo()
	x := locks.NewCombiningAdaptive(topo, locks.NewFCMCS(topo))
	locktest.CheckExec(t, topo, x, 12, 200)
}

func TestAdaptiveSingleProcEagerPath(t *testing.T) {
	// The idle end of the load curve: a lone poster must pay exactly
	// one acquisition per closure — its first op elects eagerly and
	// makes a single harvest pass, the rest take the lone-poster
	// bypass. One acquisition per op is observable as Batches() ==
	// Ops(); TestAdaptiveLonePosterBypass tells the two paths apart.
	topo := numa.New(2, 4)
	x := locks.NewCombiningAdaptive(topo, locks.NewMCS(topo))
	p := topo.Proc(0)
	n := 0
	for i := 0; i < 100; i++ {
		x.Exec(p, func() { n++ })
	}
	if n != 100 {
		t.Fatalf("ran %d closures, want 100", n)
	}
	if ops, batches := x.Ops(), x.Batches(); ops != 100 || batches != 100 {
		t.Fatalf("idle executor: %d ops over %d batches, want 100 over 100 (eager bypass, batch of one)", ops, batches)
	}
	if occ := x.OccupancyEstimate(); occ != 0 {
		t.Fatalf("quiescent occupancy estimate = %d, want 0", occ)
	}
}

func TestAdaptiveOccupancyIntrospection(t *testing.T) {
	topo := numa.New(2, 16)
	inner := locks.NewMCS(topo)
	x := locks.NewCombiningAdaptive(topo, inner)

	if occ, ok := locks.EstimateOccupancy(x); !ok || occ != 0 {
		t.Fatalf("EstimateOccupancy(adaptive) = (%d,%v), want (0,true)", occ, ok)
	}
	if _, ok := locks.EstimateOccupancy(locks.NewCombining(topo, locks.NewMCS(topo))); ok {
		t.Fatal("fixed combining executor claims an occupancy estimate")
	}
	if _, ok := locks.EstimateOccupancy(locks.ExecFromMutex(locks.NewMCS(topo))); ok {
		t.Fatal("ExecFromMutex adapter claims an occupancy estimate")
	}

	// Pile up posters behind a held inner lock: the estimate must see
	// them, cluster by cluster.
	holder := topo.Proc(15)
	inner.Lock(holder)
	const workers = 6
	var wg sync.WaitGroup
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			p := topo.Proc(2 * w) // all on cluster 0
			x.Exec(p, func() {})
		}(i)
	}
	deadline := time.Now().Add(30 * time.Second)
	for x.Occupancy(0) < workers {
		if time.Now().After(deadline) {
			inner.Unlock(holder)
			t.Fatalf("occupancy estimate stuck at %d, want %d", x.Occupancy(0), workers)
		}
		runtime.Gosched()
	}
	if got := x.Occupancy(1); got != 0 {
		t.Errorf("cluster 1 occupancy = %d, want 0 (no cluster-1 posters)", got)
	}
	inner.Unlock(holder)
	wg.Wait()
	if occ := x.OccupancyEstimate(); occ != 0 {
		t.Fatalf("post-drain occupancy estimate = %d, want 0", occ)
	}
}

func TestAdaptiveBatchesPileUp(t *testing.T) {
	// Deterministic amortization at the contended end, independent of
	// CPU count: hold the inner lock so the elected combiner parks
	// inside its one acquisition while every same-cluster peer
	// publishes; releasing the lock must drain the pile in far fewer
	// acquisitions than ops.
	topo := numa.New(2, 16)
	inner := locks.NewMCS(topo)
	x := locks.NewCombiningAdaptive(topo, inner)

	holder := topo.Proc(15)
	inner.Lock(holder)
	const workers = 8
	ran := make([]int, workers)
	var wg sync.WaitGroup
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			p := topo.Proc(2 * w) // all on cluster 0
			x.Exec(p, func() { ran[w]++ })
		}(i)
	}
	time.Sleep(50 * time.Millisecond)
	inner.Unlock(holder)
	wg.Wait()

	for w, n := range ran {
		if n != 1 {
			t.Fatalf("worker %d ran %d times, want 1", w, n)
		}
	}
	if ops := x.Ops(); ops != workers {
		t.Fatalf("Ops() = %d, want %d", ops, workers)
	}
	if b := x.Batches(); b >= workers/2 {
		t.Fatalf("no amortization: %d acquisitions for %d piled-up ops", b, workers)
	}
}

// opsBatches is the amortization introspection both combining
// executors share.
type opsBatches interface {
	locks.Executor
	Ops() uint64
	Batches() uint64
}

// measureOpsPerAcq drives procs concurrent posters through x and
// reports the measured ops-per-acquisition amortization.
func measureOpsPerAcq(t *testing.T, topo *numa.Topology, x opsBatches, procs, iters int) float64 {
	t.Helper()
	var wg sync.WaitGroup
	var total atomic.Int64
	for i := 0; i < procs; i++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			p := topo.Proc(id)
			for k := 0; k < iters; k++ {
				x.Exec(p, func() { total.Add(1) })
			}
		}(i)
	}
	wg.Wait()
	if got := total.Load(); got != int64(procs*iters) {
		t.Fatalf("ran %d closures, want %d", got, procs*iters)
	}
	return float64(x.Ops()) / float64(x.Batches())
}

func TestAdaptiveOpsPerAcqAtLeastFixed(t *testing.T) {
	// The acceptance criterion behind the adaptive policy: under high
	// contention the occupancy-scaled patience window and pass count
	// must amortize at least as many ops per acquisition as the fixed
	// constants. Scheduling makes any single trial noisy, so the
	// property is asserted over the best of a few attempts
	// (BenchmarkCombining carries the steady-state comparison).
	if runtime.NumCPU() < 2 || runtime.GOMAXPROCS(0) < 2 {
		t.Skip("batch formation needs two truly concurrent processors")
	}
	topo := numa.New(2, 16)
	const procs, iters, attempts = 16, 300, 5
	for a := 0; a < attempts; a++ {
		fixed := measureOpsPerAcq(t, topo,
			locks.NewCombining(topo, locks.NewMCS(topo)), procs, iters)
		adaptive := measureOpsPerAcq(t, topo,
			locks.NewCombiningAdaptive(topo, locks.NewMCS(topo)), procs, iters)
		t.Logf("attempt %d: fixed %.1f ops/acq, adaptive %.1f ops/acq", a, fixed, adaptive)
		if adaptive >= fixed {
			return
		}
	}
	t.Fatalf("adaptive combining never reached the fixed combiner's amortization in %d attempts", attempts)
}
