package kvstore

import (
	"bytes"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/locks"
	"repro/internal/numa"
)

// TestApplyMatchesSequentialCalls is Apply's equivalence proof: mixed
// batches of random size must answer every op exactly as the same
// sequence of Get/Set/Delete calls on a twin store does, and leave
// identical statistics. Exclusive shards run under LRU pressure, so
// evictions must match too; the reader-writer shard defers its
// sampled LRU bumps to the end of a group, which changes recency
// order, so it runs without evictions.
func TestApplyMatchesSequentialCalls(t *testing.T) {
	for _, lock := range []string{"c-bo-mcs", "comb-a-c-bo-mcs", "rw-c-bo-mcs"} {
		for _, vm := range []ValueMemory{ValueHeap, ValueArena} {
			t.Run(fmt.Sprintf("%s/%s/pointer", lock, vm), func(t *testing.T) {
				topo := numa.New(2, 4)
				capacity := 96
				if lock == "rw-c-bo-mcs" {
					capacity = 4096
				}
				build := func() *Store {
					src, err := FromRegistry(topo, lock)
					if err != nil {
						t.Fatal(err)
					}
					return New(Config{
						Topo: topo, Locking: src, Shards: 4, MaxBatch: 4, Capacity: capacity,
						TouchEvery: 2, ValueMemory: vm, ArenaBytes: 1 << 16,
					})
				}
				applied, sequential := build(), build()
				checkApplyAgainstCalls(t, topo, applied, sequential, 6000, 1)
			})
		}
	}
}

func checkApplyAgainstCalls(t *testing.T, topo *numa.Topology, applied, sequential *Store, n int, seed int64) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	ops := make([]Op, 64)
	dsts := make([][]byte, len(ops))
	for i := range dsts {
		dsts[i] = make([]byte, 48)
	}
	dst := make([]byte, 48)
	for done, batch := 0, 0; done < n; batch++ {
		p := topo.Proc(batch % 2)
		ops = ops[:1+rng.Intn(cap(ops))]
		for i := range ops {
			ops[i] = Op{Kind: OpKind(rng.Intn(3)), Key: uint64(rng.Intn(200))}
			switch ops[i].Kind {
			case OpGet:
				ops[i].Val = dsts[i][:rng.Intn(len(dsts[i])+1)] // short buffers truncate
			case OpSet:
				ops[i].Val = bytes.Repeat([]byte{byte(batch)}, rng.Intn(40))
			}
		}
		applied.Apply(p, ops)
		for i := range ops {
			op := &ops[i]
			switch op.Kind {
			case OpGet:
				nb, ok := sequential.Get(p, op.Key, dst[:len(op.Val)])
				if ok != op.Found || nb != op.N || !bytes.Equal(dst[:nb], op.Val[:op.N]) {
					t.Fatalf("batch %d op %d get %d: Apply (%q,%v), Get (%q,%v)", batch, i, op.Key, op.Val[:op.N], op.Found, dst[:nb], ok)
				}
			case OpSet:
				sequential.Set(p, op.Key, op.Val)
			case OpDelete:
				if ok := sequential.Delete(p, op.Key); ok != op.Found {
					t.Fatalf("batch %d op %d delete %d: Apply found=%v, Delete found=%v", batch, i, op.Key, op.Found, ok)
				}
			}
		}
		done += len(ops)
	}
	a, s := applied.Snapshot(), sequential.Snapshot()
	if a != s {
		t.Fatalf("stats diverge:\nApply      %+v\nsequential %+v", a, s)
	}
	if applied.Capacity() < 200 && a.Evictions == 0 {
		t.Fatalf("no evictions under a capacity of %d for 200 keys: LRU order went unchecked", applied.Capacity())
	}
	p := topo.Proc(0)
	for _, st := range []*Store{applied, sequential} {
		if err := st.checkIndex(); err != nil {
			t.Fatal(err)
		}
		if err := st.ArenaCheck(p); err != nil {
			t.Fatal(err)
		}
	}
	if a, s := applied.Len(p), sequential.Len(p); a != s {
		t.Fatalf("Len: Apply %d, sequential %d", a, s)
	}
}

// TestApplySameKeyOrder pins in-section ordering on one key: a get
// after a set sees the set, a get after a delete misses.
func TestApplySameKeyOrder(t *testing.T) {
	topo := numa.New(2, 4)
	p := topo.Proc(0)
	s := newBatchStore(topo, 4, 64)
	dst := [2][]byte{make([]byte, 8), make([]byte, 8)}
	ops := []Op{
		{Kind: OpSet, Key: 7, Val: []byte("one")},
		{Kind: OpGet, Key: 7, Val: dst[0]},
		{Kind: OpDelete, Key: 7},
		{Kind: OpGet, Key: 7, Val: dst[1]},
		{Kind: OpDelete, Key: 7},
	}
	s.Apply(p, ops)
	if !ops[1].Found || string(ops[1].Val[:ops[1].N]) != "one" {
		t.Errorf("get after set: (%q,%v), want (\"one\",true)", ops[1].Val[:ops[1].N], ops[1].Found)
	}
	if !ops[2].Found || ops[3].Found || ops[4].Found {
		t.Errorf("delete/get/delete found %v/%v/%v, want true/false/false", ops[2].Found, ops[3].Found, ops[4].Found)
	}
}

// TestApplyMixedAcquisitions pins the batching bound for mixed verbs:
// N same-shard ops of any mix cost ceil(N/MaxBatch) acquisitions, and
// on a reader-writer shard a section of only gets runs shared while a
// section holding a write runs exclusive.
func TestApplyMixedAcquisitions(t *testing.T) {
	topo := numa.New(2, 4)
	p := topo.Proc(0)
	const batch = 4
	kinds := []OpKind{OpGet, OpGet, OpGet, OpGet, OpSet, OpGet, OpDelete, OpGet, OpGet, OpGet}
	ops := make([]Op, len(kinds))
	fill := func() {
		for i, k := range kinds {
			ops[i] = Op{Kind: k, Key: uint64(i % 3), Val: []byte("v")}
		}
	}

	var acq atomic.Uint64
	s := New(Config{Topo: topo, Locking: FromLock(locks.CountAcquisitions(locks.NewPthread(), &acq)), MaxBatch: batch})
	fill()
	s.Apply(p, ops)
	if got, want := acq.Load(), uint64((len(ops)+batch-1)/batch); got != want {
		t.Errorf("exclusive shard: %d ops took %d acquisitions, want %d", len(ops), got, want)
	}

	var excl, shared atomic.Uint64
	rw := New(Config{
		Topo:       topo,
		Locking:    FromRWLock(locks.CountRWAcquisitions(locks.NewRWPerCluster(topo, locks.NewMCS(topo)), &excl, &shared)),
		MaxBatch:   batch,
		TouchEvery: 1 << 20,
	})
	fill()
	rw.Apply(p, ops)
	// Sections: [g g g g] shared, [s g d g] exclusive, [g g] shared.
	if excl.Load() != 1 || shared.Load() != 2 {
		t.Errorf("rw shard: %d exclusive + %d shared acquisitions, want 1 + 2", excl.Load(), shared.Load())
	}
}

// TestApplyConcurrent runs mixed Apply batches from every proc at once,
// each proc on its own keys, so combiners run other procs' prebuilt
// closures and records while those procs wait. Every proc's answers
// must match its own sequential reference; run under -race it also
// checks the records' publication and the per-proc scratch.
func TestApplyConcurrent(t *testing.T) {
	for _, lock := range []string{"c-bo-mcs", "comb-a-c-bo-mcs", "rw-c-bo-mcs", "comb-rw-mcs"} {
		t.Run(lock, func(t *testing.T) {
			topo := numa.New(2, 4)
			src, err := FromRegistry(topo, lock)
			if err != nil {
				t.Fatal(err)
			}
			s := New(Config{Topo: topo, Locking: src, Shards: 2, MaxBatch: 4, Capacity: 1 << 12, TouchEvery: 2})
			var wg sync.WaitGroup
			for id := 0; id < topo.MaxProcs(); id++ {
				wg.Add(1)
				go func(id int) {
					defer wg.Done()
					p := topo.Proc(id)
					rng := rand.New(rand.NewSource(int64(id)))
					ref := map[uint64]byte{}
					ops := make([]Op, 24)
					dsts := make([][]byte, len(ops))
					for i := range dsts {
						dsts[i] = make([]byte, 1)
					}
					for round := 0; round < 200; round++ {
						for i := range ops {
							ops[i] = Op{Kind: OpKind(rng.Intn(3)), Key: uint64(id<<16 | rng.Intn(16)), Val: dsts[i]}
							if ops[i].Kind == OpSet {
								ops[i].Val = []byte{byte(round + i)}
							}
						}
						s.Apply(p, ops)
						for i := range ops {
							op := &ops[i]
							v, ok := ref[op.Key]
							switch op.Kind {
							case OpGet:
								if op.Found != ok || ok && (op.N != 1 || op.Val[0] != v) {
									t.Errorf("proc %d round %d op %d: get %x = (%v,%v), want (%v,%v)", id, round, i, op.Key, op.Val[:op.N], op.Found, v, ok)
									return
								}
							case OpSet:
								ref[op.Key] = op.Val[0]
							case OpDelete:
								if op.Found != ok {
									t.Errorf("proc %d round %d op %d: delete %x found %v, want %v", id, round, i, op.Key, op.Found, ok)
									return
								}
								delete(ref, op.Key)
							}
						}
					}
				}(id)
			}
			wg.Wait()
		})
	}
}
