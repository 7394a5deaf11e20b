package kvload

import (
	"testing"

	"repro/internal/kvstore"
	"repro/internal/locks"
	"repro/internal/numa"
	"repro/internal/spin"
)

// TestHotPathAllocationFree pins the property the allocs/op columns
// rest on: at steady state (caps ratcheted, arena blocks sized) no
// per-operation Go allocation happens anywhere on the measured path —
// not in the store, not in the harness's think/rand helpers. A
// regression here (say, a result variable captured by an escaping
// closure) would inflate every kvbench alloc column and drown the
// heap-vs-arena signal the churn exhibit measures.
func TestHotPathAllocationFree(t *testing.T) {
	topo := numa.New(4, 16)
	p := topo.Proc(0)
	val := make([]byte, 512)
	dst := make([]byte, 512)
	sizes := []int{64, 512, 200, 96, 448}

	stores := map[string]*kvstore.Store{
		"heap": kvstore.New(kvstore.Config{
			Topo: topo, Lock: locks.NewPthread(), Buckets: 1 << 12, Capacity: 1 << 13,
		}),
		"arena": kvstore.New(kvstore.Config{
			Topo: topo, Lock: locks.NewPthread(), Buckets: 1 << 12, Capacity: 1 << 13,
			ValueMemory: kvstore.ValueArena, ArenaBytes: 16 << 20,
		}),
	}
	for name, s := range stores {
		for k := uint64(0); k < 1000; k++ {
			s.Set(p, k, val)
		}
		i := 0
		if n := testing.AllocsPerRun(2000, func() {
			s.Set(p, uint64(i%1000), val[:sizes[i%len(sizes)]])
			i++
		}); n > 0 {
			t.Errorf("%s Set: %.3f allocs/op at steady state, want 0", name, n)
		}
		if n := testing.AllocsPerRun(2000, func() { s.Get(p, 1, dst) }); n > 0 {
			t.Errorf("%s Get: %.3f allocs/op, want 0", name, n)
		}
		if n := testing.AllocsPerRun(2000, func() { s.Delete(p, 999999) }); n > 0 {
			t.Errorf("%s Delete miss: %.3f allocs/op, want 0", name, n)
		}
	}
	if n := testing.AllocsPerRun(2000, func() { spin.WaitNs(1000) }); n > 0 {
		t.Errorf("spin.WaitNs: %.3f allocs/op, want 0", n)
	}
	if n := testing.AllocsPerRun(2000, func() { p.RandN(1000) }); n > 0 {
		t.Errorf("RandN: %.3f allocs/op, want 0", n)
	}

	// The single-op calls under combining executors post through the
	// shard's prebuilt closure, so they allocate no more than under a
	// plain lock. comb-rw-mcs runs Get in shared mode, with the
	// deferred LRU touch on every TouchEvery-th hit.
	for _, lock := range []string{"comb-a-c-bo-mcs", "comb-c-bo-mcs", "comb-rw-mcs"} {
		src, err := kvstore.FromRegistry(topo, lock)
		if err != nil {
			t.Fatal(err)
		}
		s := kvstore.New(kvstore.Config{Topo: topo, Locking: src, Shards: 8, Buckets: 1 << 12, Capacity: 1 << 13})
		for k := uint64(0); k < 1000; k++ {
			s.Set(p, k, val)
		}
		for k := uint64(0); k < 100; k++ { // ratchet the touch buffer
			s.Get(p, k, dst)
		}
		i := 0
		if n := testing.AllocsPerRun(2000, func() {
			s.Set(p, uint64(i%1000), val[:sizes[i%len(sizes)]])
			i++
		}); n > 0 {
			t.Errorf("%s Set: %.3f allocs/op at steady state, want 0", lock, n)
		}
		if n := testing.AllocsPerRun(2000, func() { s.Get(p, uint64(i%1000), dst); i++ }); n > 0 {
			t.Errorf("%s Get: %.3f allocs/op, want 0", lock, n)
		}
		if n := testing.AllocsPerRun(2000, func() { s.Delete(p, uint64(i%1000)); i++ }); n > 0 {
			t.Errorf("%s Delete: %.3f allocs/op, want 0", lock, n)
		}
	}

	// The batch APIs on a multi-shard store, under a direct lock and
	// under a combining executor: shard grouping runs in per-proc
	// scratch and executor chunks post prebuilt closures, so neither
	// path allocates per call.
	for _, lock := range []string{"c-bo-mcs", "comb-a-c-bo-mcs"} {
		src, err := kvstore.FromRegistry(topo, lock)
		if err != nil {
			t.Fatal(err)
		}
		s := kvstore.New(kvstore.Config{Topo: topo, Locking: src, Shards: 8, Buckets: 1 << 12, Capacity: 1 << 10})
		const n = 32
		keys := make([]uint64, n)
		vals := make([][]byte, n)
		dsts := make([][]byte, n)
		lens := make([]int, n)
		found := make([]bool, n)
		ops := make([]kvstore.Op, n)
		for i := range keys {
			vals[i] = val[:sizes[i%len(sizes)]]
			dsts[i] = make([]byte, 512)
		}
		round := uint64(0)
		fill := func() {
			round++
			for i := range keys {
				// A keyspace twice the capacity keeps evictions going.
				keys[i] = (round*n + uint64(i)) % 2048
				ops[i] = kvstore.Op{Kind: kvstore.OpKind(i % 3), Key: keys[i], Val: dsts[i]}
				if ops[i].Kind == kvstore.OpSet {
					ops[i].Val = vals[i]
				}
			}
		}
		for i := 0; i < 200; i++ { // ratchet scratch and value caps
			fill()
			s.MSet(p, keys, vals)
			s.MGet(p, keys, dsts, lens, found)
			s.Apply(p, ops)
		}
		if n := testing.AllocsPerRun(500, func() { fill(); s.MSet(p, keys, vals) }); n > 0 {
			t.Errorf("%s MSet: %.3f allocs/call, want 0", lock, n)
		}
		if n := testing.AllocsPerRun(500, func() { fill(); s.MGet(p, keys, dsts, lens, found) }); n > 0 {
			t.Errorf("%s MGet: %.3f allocs/call, want 0", lock, n)
		}
		if n := testing.AllocsPerRun(500, func() { fill(); s.Apply(p, ops) }); n > 0 {
			t.Errorf("%s Apply: %.3f allocs/call, want 0", lock, n)
		}
	}
}
