package kvstore

import (
	"bytes"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/cachesim"
	"repro/internal/locks"
	"repro/internal/numa"
)

// newValueStore builds a small store in value-memory mode vm for
// index lifecycle tests.
func newValueStore(topo *numa.Topology, shards, capacity int, vm ValueMemory) *Store {
	cfg := Config{
		Topo:        topo,
		Buckets:     64 * shards,
		Capacity:    capacity,
		Shards:      shards,
		Cache:       cachesim.Config{LocalNs: 1, RemoteNs: 1},
		ItemLocalNs: 1, ItemRemoteNs: 1,
		ValueMemory: vm,
	}
	if vm == ValueArena {
		cfg.ArenaBytes = (256 << 10) * shards
	}
	if shards > 1 {
		cfg.NewLock = func() locks.Mutex { return locks.NewPthread() }
	} else {
		cfg.Lock = locks.NewPthread()
	}
	return New(cfg)
}

// TestIndexProperty is the randomized index-lifecycle property test:
// 50k mixed operations (set, overwrite, get, delete, batched
// variants, with capacity pressure forcing evictions) against a
// reference map, across shard counts and both value-memory modes,
// ending with the index check — the hash chains hold exactly the
// LRU's count items, and no LRU, free-list or hash chain cycles.
func TestIndexProperty(t *testing.T) {
	topo := numa.New(4, 16)
	for _, shards := range []int{1, 4} {
		for _, vm := range []ValueMemory{ValueHeap, ValueArena} {
			t.Run(fmt.Sprintf("shards=%d/%s", shards, vm), func(t *testing.T) {
				s := newValueStore(topo, shards, 200, vm)
				p := topo.Proc(0)
				rng := rand.New(rand.NewSource(int64(shards)*100 + int64(vm)))
				ref := map[uint64][]byte{} // may hold evicted keys; values checked only on hit
				for i := 0; i < 50_000; i++ {
					key := uint64(rng.Intn(400))
					switch rng.Intn(12) {
					case 0, 1: // delete
						s.Delete(p, key)
						delete(ref, key)
					case 2: // batched delete
						keys := []uint64{key, key + 5, key + 9}
						s.MDelete(p, keys)
						for _, k := range keys {
							delete(ref, k)
						}
					case 3, 4, 5: // get, verifying bytes on hit
						dst := make([]byte, 600)
						n, ok := s.Get(p, key, dst)
						if ok {
							want, tracked := ref[key]
							if !tracked {
								t.Fatalf("hit on key %d the model never wrote", key)
							}
							if !bytes.Equal(dst[:n], want) {
								t.Fatalf("key %d = %q, want %q", key, dst[:n], want)
							}
						}
					case 6: // batched get
						keys := []uint64{key, key + 2, key + 4}
						dsts := [][]byte{make([]byte, 600), make([]byte, 600), make([]byte, 600)}
						lens := make([]int, 3)
						found := make([]bool, 3)
						s.MGet(p, keys, dsts, lens, found)
						for j, k := range keys {
							if found[j] {
								want, tracked := ref[k]
								if !tracked {
									t.Fatalf("MGet hit on key %d the model never wrote", k)
								}
								if !bytes.Equal(dsts[j][:lens[j]], want) {
									t.Fatalf("MGet key %d mismatch", k)
								}
							}
						}
					case 7: // batched set
						keys := make([]uint64, 3)
						vals := make([][]byte, 3)
						for j := range keys {
							keys[j] = uint64(rng.Intn(400))
							vals[j] = make([]byte, rng.Intn(300))
							for b := range vals[j] {
								vals[j][b] = byte(rng.Int())
							}
						}
						s.MSet(p, keys, vals)
						for j, k := range keys {
							ref[k] = vals[j]
						}
					default: // set with sizes spanning empty to ~500B
						val := make([]byte, rng.Intn(500))
						for j := range val {
							val[j] = byte(rng.Int())
						}
						s.Set(p, key, val)
						ref[key] = val
					}
				}
				if err := s.checkIndex(); err != nil {
					t.Fatal(err)
				}
				if err := s.ArenaCheck(p); err != nil {
					t.Fatal(err)
				}
				// The reference map over-approximates (evictions), so
				// the store can never hold more than the model.
				if n := s.Len(p); n > len(ref) {
					t.Fatalf("store holds %d keys, model only %d", n, len(ref))
				}
			})
		}
	}
}

// TestCheckIndexCatchesCorruption is checkIndex's self-test: each
// corruption of a healthy shard's index must be reported.
func TestCheckIndexCatchesCorruption(t *testing.T) {
	topo := numa.New(4, 16)
	p := topo.Proc(0)
	for _, tc := range []struct {
		name    string
		corrupt func(sh *Shard)
		want    string
	}{
		{"chain cycle", func(sh *Shard) {
			it := sh.head
			it.hnext = it
		}, "cycle"},
		{"item missing from its chain", func(sh *Shard) {
			sh.buckets[sh.hash(sh.head.key)] = nil
		}, "hash chains hold"},
		{"item in the wrong bucket", func(sh *Shard) {
			it := sh.head
			b := sh.hash(it.key)
			sh.unlinkChain(it)
			wrong := (b + 1) & sh.mask
			it.hnext = sh.buckets[wrong]
			sh.buckets[wrong] = it
		}, "hashes to"},
		{"free list cycle", func(sh *Shard) {
			sh.free.hnext = sh.free
		}, "free list revisits"},
		{"live item on the free list", func(sh *Shard) {
			sh.free.hnext = sh.tail
		}, "both live and free"},
		{"broken LRU link", func(sh *Shard) {
			sh.head.next.prev = nil
		}, "broken prev link"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s := newValueStore(topo, 1, 100, ValueHeap)
			for k := uint64(0); k < 50; k++ {
				s.Set(p, k, []byte("v"))
			}
			s.Delete(p, 7)
			s.Delete(p, 8)
			if err := s.checkIndex(); err != nil {
				t.Fatalf("healthy index rejected: %v", err)
			}
			tc.corrupt(s.shards[0])
			err := s.checkIndex()
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("checkIndex = %v, want an error containing %q", err, tc.want)
			}
		})
	}
}

// unlinkChain removes it from its hash chain only; tests use it to
// build corrupt indexes.
func (s *Shard) unlinkChain(it *item) {
	for pp := &s.buckets[s.hash(it.key)]; *pp != nil; pp = &(*pp).hnext {
		if *pp == it {
			*pp = it.hnext
			it.hnext = nil
			return
		}
	}
}
