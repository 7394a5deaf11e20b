package lbench

import (
	"runtime"
	"testing"
	"time"

	"repro/internal/cachesim"
	"repro/internal/core"
	"repro/internal/locks"
	"repro/internal/numa"
)

// quickCfg is a fast configuration for unit tests: tiny duration, no
// injected latency, no idle spin.
func quickCfg(topo *numa.Topology, threads int) Config {
	cfg := DefaultConfig(topo, threads)
	cfg.Duration = 50 * time.Millisecond
	cfg.Cache = cachesim.Config{}
	cfg.NonCSMaxNs = 0
	return cfg
}

func TestValidation(t *testing.T) {
	topo := numa.New(4, 8)
	if _, err := Run(Config{}, locks.NewPthread()); err == nil {
		t.Error("nil topology accepted")
	}
	bad := quickCfg(topo, 9) // more threads than procs
	if _, err := Run(bad, locks.NewPthread()); err == nil {
		t.Error("thread overflow accepted")
	}
	bad = quickCfg(topo, 4)
	bad.Duration = 0
	if _, err := Run(bad, locks.NewPthread()); err == nil {
		t.Error("zero duration accepted")
	}
	bad = quickCfg(topo, 4)
	bad.CSLines = 0
	if _, err := Run(bad, locks.NewPthread()); err == nil {
		t.Error("zero CS lines accepted")
	}
	abad := quickCfg(topo, 4)
	abad.Patience = 0
	if _, err := RunAbortable(abad, locks.NewACLH(topo)); err == nil {
		t.Error("zero patience accepted for abortable run")
	}
}

func TestRunProducesConsistentCounts(t *testing.T) {
	topo := numa.New(4, 16)
	cfg := quickCfg(topo, 8)
	res, err := Run(cfg, locks.NewMCS(topo))
	if err != nil {
		t.Fatal(err)
	}
	if res.Ops == 0 {
		t.Fatal("no operations completed")
	}
	var sum uint64
	for _, v := range res.PerThread {
		sum += v
	}
	if sum != res.Ops {
		t.Fatalf("per-thread sum %d != total %d", sum, res.Ops)
	}
	// Every op touches CSLines lines.
	if res.Cache.Accesses != res.Ops*uint64(cfg.CSLines) {
		t.Fatalf("cache accesses %d, want %d", res.Cache.Accesses, res.Ops*uint64(cfg.CSLines))
	}
	if res.Throughput() <= 0 {
		t.Fatal("non-positive throughput")
	}
	if res.Elapsed < cfg.Duration {
		t.Fatalf("elapsed %v shorter than configured %v", res.Elapsed, cfg.Duration)
	}
}

func TestSingleThreadNoMigrationsAfterFirst(t *testing.T) {
	topo := numa.New(4, 4)
	cfg := quickCfg(topo, 1)
	res, err := Run(cfg, locks.NewBO(locks.DefaultBOConfig()))
	if err != nil {
		t.Fatal(err)
	}
	if res.Migrations != 1 {
		t.Fatalf("single thread migrations = %d, want exactly 1 (the cold entry)", res.Migrations)
	}
	if res.FairnessStdDevPct() != 0 {
		t.Fatal("single thread should have zero fairness deviation")
	}
}

// oneProcessor runs the rest of t with GOMAXPROCS 1, for the tests that
// compare how often two locks migrate. With more spinning workers than
// processors, a run's migration rate depends on which workers the Go
// scheduler keeps on the processors, and that seating tends to last
// for much of the run: on a 2-CPU host two workers of different
// clusters could hold both processors and trade the cohort lock's
// global lock, or one worker re-acquire fair MCS alone, and about one
// run in ten read the two locks in the wrong order. With one processor
// only one worker runs at a time, the next to run is the waiter the
// lock wakes, and the comparison reads the same on any core count.
func oneProcessor(t *testing.T) {
	prev := runtime.GOMAXPROCS(1)
	t.Cleanup(func() { runtime.GOMAXPROCS(prev) })
}

func TestCohortLockMigratesLessThanMCS(t *testing.T) {
	// The load-bearing behavioural claim: under multi-cluster
	// contention a cohort lock migrates far less than fair MCS.
	oneProcessor(t)
	topo := numa.New(4, 16)
	cfg := quickCfg(topo, 16)
	cfg.Duration = 150 * time.Millisecond

	mcs, err := Run(cfg, locks.NewMCS(topo))
	if err != nil {
		t.Fatal(err)
	}
	cbm, err := Run(cfg, core.NewCBOMCS(topo))
	if err != nil {
		t.Fatal(err)
	}
	mcsRate := float64(mcs.Migrations) / float64(mcs.Ops)
	cbmRate := float64(cbm.Migrations) / float64(cbm.Ops)
	if cbmRate > mcsRate/2 {
		t.Errorf("cohort migration rate %.4f not well below MCS %.4f", cbmRate, mcsRate)
	}
	if cbm.AvgBatch() < mcs.AvgBatch() {
		t.Errorf("cohort batch %.1f smaller than MCS batch %.1f", cbm.AvgBatch(), mcs.AvgBatch())
	}
}

func TestMissesTrackMigrations(t *testing.T) {
	oneProcessor(t)
	topo := numa.New(4, 16)
	cfg := quickCfg(topo, 16)
	cfg.Duration = 150 * time.Millisecond
	mcs, err := Run(cfg, locks.NewMCS(topo))
	if err != nil {
		t.Fatal(err)
	}
	cbm, err := Run(cfg, core.NewCBOMCS(topo))
	if err != nil {
		t.Fatal(err)
	}
	if cbm.MissesPerCS() >= mcs.MissesPerCS() {
		t.Errorf("cohort misses/CS %.3f not below MCS %.3f",
			cbm.MissesPerCS(), mcs.MissesPerCS())
	}
}

func TestRunAbortableAccountsAborts(t *testing.T) {
	topo := numa.New(4, 16)
	cfg := quickCfg(topo, 16)
	cfg.Patience = 20 * time.Microsecond
	res, err := RunAbortable(cfg, locks.NewACLH(topo))
	if err != nil {
		t.Fatal(err)
	}
	if res.Attempts < res.Ops {
		t.Fatalf("attempts %d < ops %d", res.Attempts, res.Ops)
	}
	if res.Attempts != res.Ops+res.Aborts {
		t.Fatalf("attempts %d != ops %d + aborts %d", res.Attempts, res.Ops, res.Aborts)
	}
	if res.Ops == 0 {
		t.Fatal("no successful acquisitions")
	}
	if r := res.AbortRate(); r < 0 || r > 1 {
		t.Fatalf("abort rate %v out of range", r)
	}
}

func TestAbortableCohortRuns(t *testing.T) {
	topo := numa.New(4, 16)
	cfg := quickCfg(topo, 12)
	cfg.Patience = 100 * time.Microsecond
	res, err := RunAbortable(cfg, core.NewACBOCLH(topo))
	if err != nil {
		t.Fatal(err)
	}
	if res.Ops == 0 {
		t.Fatal("A-C-BO-CLH made no progress under LBench")
	}
}

func TestResultMetricsEdgeCases(t *testing.T) {
	var r Result
	if r.Throughput() != 0 || r.MissesPerCS() != 0 || r.AbortRate() != 0 ||
		r.FairnessStdDevPct() != 0 {
		t.Fatal("zero-value Result should yield zero metrics")
	}
	r.Ops = 10
	if r.AvgBatch() != 10 {
		t.Fatal("AvgBatch with zero migrations should be Ops")
	}
}
