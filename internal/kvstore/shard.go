package kvstore

import (
	"fmt"

	"repro/internal/alloc"
	"repro/internal/cachesim"
	"repro/internal/locks"
	"repro/internal/numa"
	"repro/internal/spin"
)

// Metadata line indices in each shard's cachesim domain.
const (
	lineLRU   = 0 // LRU list head/tail, touched by every operation
	lineHash  = 1 // hash table metadata
	lineStats = 2 // global statistics counters
	lineAlloc = 3 // item allocator free list
	numLines  = 4
)

// item is one cache entry: hash chain link, intrusive LRU links, the
// last-touching cluster (for the locality charge), and the value.
//
// Under ValueArena, value views an explicitly managed block of the
// shard's arena (len = the stored value, cap = the block's usable
// size) and off is that block's payload offset; off == 0 means the
// value lives on the GC heap — the only state ValueHeap items ever
// have, and the state arena items spill back to when their arena is
// exhausted. Arena offsets are always >= the 8-byte block header, so
// 0 is never a valid block and needs no separate flag.
type item struct {
	key   uint64
	hnext *item
	prev  *item
	next  *item
	owner int32
	off   uint32
	value []byte
}

// opSlot is per-proc statistics; each proc writes only its own slot.
// Shared-mode Gets rely on exactly this layout: every counter is
// written only by its owning proc, outside the lock, so concurrent
// readers never contend on statistics.
type opSlot struct {
	gets      uint64
	sets      uint64
	hits      uint64
	misses    uint64
	evictions uint64
	// sinceTouch counts this proc's hits since it last refreshed an
	// item's LRU position (shared read path only; see Shard.Get).
	sinceTouch uint64
	// spills counts sets this proc spilled to the GC heap because the
	// shard's arena was exhausted (ValueArena only).
	spills uint64
	// touch collects the keys a shared-mode batch sampled for a
	// deferred LRU refresh (see Shard.apply); reused across calls.
	touch []uint64
	_     numa.Pad
}

// shardConfig carries the per-shard slice of a Store's Config, already
// validated and normalized (buckets a power of two, capacity >= 1,
// maxBatch >= 1). Exactly one of lock and exec is set.
type shardConfig struct {
	topo       *numa.Topology
	lock       locks.RWMutex
	exec       locks.Executor
	maxBatch   int
	touchEvery uint64
	buckets    int
	capacity   int
	cache      cachesim.Config
	itemLocal  int64
	itemRemote int64
	// arenaBytes > 0 selects ValueArena: the shard owns an unguarded
	// arena of this capacity for its value bytes.
	arenaBytes int
}

// Shard is one independently locked slice of the store: a chained hash
// table, an intrusive LRU list, per-proc statistics and a private
// cachesim domain for its hot metadata. It is exactly the memcached
// structure of the paper's Table 1 experiment; the pre-sharding store
// was a single Shard behind one cache lock.
type Shard struct {
	lock locks.RWMutex
	// exec, when non-nil, is the shard's delegated-execution seam:
	// every critical section runs as a closure posted to a combining
	// executor (which batches same-cluster sections under one
	// acquisition of its underlying lock) instead of bracketing the
	// shard lock directly. lock is nil on this path — the executor owns
	// the exclusion domain.
	exec locks.Executor
	// rwexec, when non-nil, is exec's shared mode: the executor is a
	// read-combining RWExecutor (locks.RWCombining or its adaptive
	// twin) whose shared closures genuinely coexist, so the shared read
	// paths post per-chunk read closures through ExecShared — concurrent
	// same-cluster readers fold into ONE RLock of the underlying lock —
	// instead of bracketing RLock directly. Always the same value as
	// exec, pre-asserted to the RW interface; nil when exec is nil or
	// exclusive-only.
	rwexec locks.RWExecutor
	// maxBatch bounds how many batched operations (MGet/MSet/MDelete)
	// run inside one critical section.
	maxBatch int
	// sharedReads is true when the shard's reads genuinely admit
	// concurrency — lock's shared mode does (rwexec nil), or the
	// executor's shared closures do (rwexec set); Get then runs the
	// shared read path. False for exclusive locks adapted via
	// locks.RWFromMutex and for exclusive-only executors, whose Gets
	// keep the pre-RW exclusive path byte for byte.
	sharedReads           bool
	touchEvery            uint64
	mask                  uint64
	buckets               []*item
	head                  *item // MRU
	tail                  *item // LRU victim
	count                 int
	capacity              int
	free                  *item // recycled items (chained via hnext)
	domain                *cachesim.Domain
	slots                 []opSlot
	itemLocal, itemRemote int64
	// arena, when non-nil, owns the shard's value bytes: an unguarded
	// alloc.Allocator whose every operation runs inside the shard's
	// existing critical sections — the shard lock (or executor) IS the
	// arena's exclusion domain, so values cost no second lock. Under
	// ClusterAffine placement the shard, its lock and its arena are all
	// homed on one cluster: value blocks recycle cluster-locally, the
	// paper's Table 2 effect applied to the data plane.
	arena *alloc.Allocator
	// recs holds each proc's argument record for the prebuilt closure
	// the batch path posts to exec (see execRec); nil without exec.
	recs []execRec
	// pendingFree batches explicit frees (overwrite, eviction, delete)
	// so splay-tree reinsertion is paid once per maxBatch frees instead
	// of once per mutation — reclamation amortized like LRU touches.
	// Only touched inside critical sections; capacity is fixed at
	// maxBatch so the steady state appends without allocating.
	pendingFree []uint32
}

func newShard(cfg shardConfig) *Shard {
	sharedReads := false
	var rwexec locks.RWExecutor
	if cfg.exec == nil {
		sharedReads = locks.SharesReads(cfg.lock)
	} else if rx, ok := cfg.exec.(locks.RWExecutor); ok && locks.SharesExecReads(rx) {
		// The executor seam has a genuinely shared read mode: route the
		// shared read paths through ExecShared so same-cluster readers
		// fold into one shared acquisition under the reader-combiner.
		rwexec = rx
		sharedReads = true
	}
	s := &Shard{
		lock:        cfg.lock,
		exec:        cfg.exec,
		rwexec:      rwexec,
		maxBatch:    cfg.maxBatch,
		sharedReads: sharedReads,
		touchEvery:  cfg.touchEvery,
		mask:        uint64(cfg.buckets - 1),
		buckets:     make([]*item, cfg.buckets),
		capacity:    cfg.capacity,
		domain:      cachesim.NewDomain(cfg.topo, numLines, cfg.cache),
		slots:       make([]opSlot, cfg.topo.MaxProcs()),
		itemLocal:   cfg.itemLocal,
		itemRemote:  cfg.itemRemote,
	}
	if cfg.exec != nil {
		s.recs = make([]execRec, cfg.topo.MaxProcs())
		for i := range s.recs {
			r := &s.recs[i]
			r.run = func() { s.runRec(r) }
		}
	}
	if cfg.arenaBytes > 0 {
		a, err := alloc.New(alloc.Config{
			Topo:       cfg.topo,
			Unguarded:  true,
			ArenaBytes: cfg.arenaBytes,
			LocalNs:    cfg.itemLocal,
			RemoteNs:   cfg.itemRemote,
			Cache:      cfg.cache,
		})
		if err != nil {
			panic(err) // sizes validated by Config.setDefaults
		}
		s.arena = a
		s.pendingFree = make([]uint32, 0, cfg.maxBatch)
	}
	return s
}

// hash is Fibonacci hashing; keys are already integers in this model.
func (s *Shard) hash(key uint64) uint64 {
	return (key * 0x9E3779B97F4A7C15) >> 16 & s.mask
}

func (s *Shard) find(key uint64) *item {
	for it := s.buckets[s.hash(key)]; it != nil; it = it.hnext {
		if it.key == key {
			return it
		}
	}
	return nil
}

// touchItem charges the item-locality latency and migrates ownership,
// the per-item analogue of cachesim. Must hold the shard lock.
func (s *Shard) touchItem(p *numa.Proc, it *item) {
	c := int32(p.Cluster())
	if it.owner != c {
		it.owner = c
		spin.WaitNs(s.itemRemote)
	} else {
		spin.WaitNs(s.itemLocal)
	}
}

// lruFront moves it to the MRU position. Must hold the shard lock.
func (s *Shard) lruFront(it *item) {
	if s.head == it {
		return
	}
	// unlink
	if it.prev != nil {
		it.prev.next = it.next
	}
	if it.next != nil {
		it.next.prev = it.prev
	}
	if s.tail == it {
		s.tail = it.prev
	}
	// push front
	it.prev = nil
	it.next = s.head
	if s.head != nil {
		s.head.prev = it
	}
	s.head = it
	if s.tail == nil {
		s.tail = it
	}
}

// unlink removes it from both the hash chain and the LRU list. Must
// hold the shard lock.
func (s *Shard) unlink(it *item) {
	b := s.hash(it.key)
	if s.buckets[b] == it {
		s.buckets[b] = it.hnext
	} else {
		for cur := s.buckets[b]; cur != nil; cur = cur.hnext {
			if cur.hnext == it {
				cur.hnext = it.hnext
				break
			}
		}
	}
	if it.prev != nil {
		it.prev.next = it.next
	}
	if it.next != nil {
		it.next.prev = it.prev
	}
	if s.head == it {
		s.head = it.next
	}
	if s.tail == it {
		s.tail = it.prev
	}
	it.prev, it.next, it.hnext = nil, nil, nil
}

// Get looks up key, copying the value into dst (truncating if dst is
// short). It returns the copied length and whether the key was found.
//
// Under an exclusive cache lock a hit bumps the item to the MRU
// position on every Get, as memcached does. Under a genuine
// reader-writer lock Get runs in shared mode — concurrent readers on
// different clusters proceed together, touching nothing but their own
// cluster's reader counter and their own statistics slot — and the LRU
// bump follows a bounded touch-every-Nth-hit policy: each proc
// refreshes an item's recency only on every touchEvery-th hit,
// upgrading to exclusive mode just for that bump. Recency becomes
// approximate (a uniformly sampled subset of hits drives the LRU
// order, the same trade memcached makes with its 60-second touch
// rule); hit/miss behavior and returned values are unaffected.
func (s *Shard) Get(p *numa.Proc, key uint64, dst []byte) (int, bool) {
	if !s.sharedReads {
		return s.getExclusive(p, key, dst)
	}
	slot := &s.slots[p.ID()]
	n, hit := s.getSharedCS(p, key, dst)
	slot.gets++
	if !hit {
		slot.misses++
		return 0, false
	}
	slot.hits++
	slot.sinceTouch++
	if slot.sinceTouch >= s.touchEvery {
		slot.sinceTouch = 0
		// Re-find under exclusive mode: the item may have been evicted
		// or deleted between the shared read and this upgrade.
		if s.rwexec != nil {
			slot.touch = append(slot.touch[:0], key)
			s.post(p, recTouch, nil, nil)
		} else {
			s.lock.Lock(p)
			s.touchKey(p, key)
			s.lock.Unlock(p)
		}
	}
	return n, true
}

// getSharedCS runs one get's shared-mode section under the shard's
// read seam. The hash-bucket walk and value copy only read item state;
// writers (Set/Delete and Get's deferred LRU bump) hold exclusive
// mode, so no mutation can overlap shared mode.
func (s *Shard) getSharedCS(p *numa.Proc, key uint64, dst []byte) (int, bool) {
	if s.rwexec != nil {
		op := s.postOne(p, recRead, Op{Kind: OpGet, Key: key, Val: dst})
		return op.N, op.Found
	}
	s.lock.RLock(p)
	n, hit := s.readValue(key, dst)
	s.lock.RUnlock(p)
	return n, hit
}

// readValue looks up key and copies its value into dst — the lookup
// shared by the shared-mode read paths (Get and readChunk). Callers
// hold at least shared mode; nothing here mutates the shard.
func (s *Shard) readValue(key uint64, dst []byte) (int, bool) {
	it := s.find(key)
	if it == nil {
		return 0, false
	}
	return copy(dst, it.value), true
}

// touchKey re-finds key and refreshes its item's locality charge and
// LRU position — the deferred bump the shared read paths run under a
// brief exclusive upgrade. A vanished key (evicted or deleted since
// the shared read) is a no-op. Callers hold exclusive mode.
func (s *Shard) touchKey(p *numa.Proc, key uint64) {
	if it := s.find(key); it != nil {
		s.touchItem(p, it)
		s.lruFront(it)
	}
}

// getExclusive is the pre-RW read path, taken whenever the shard's
// lock serializes readers: every hit pays the item touch and LRU bump
// inside the exclusive critical section, so single-shard exclusive
// configurations reproduce the paper's Table 1 behavior unchanged. On
// the executor seam the same critical section runs as a posted
// closure — batched with other same-cluster operations by the
// combiner — instead of bracketing the lock directly.
func (s *Shard) getExclusive(p *numa.Proc, key uint64, dst []byte) (int, bool) {
	slot := &s.slots[p.ID()]
	n, hit := s.getExclusiveCS(p, key, dst)
	slot.gets++
	if hit {
		slot.hits++
	} else {
		slot.misses++
	}
	return n, hit
}

// getExclusiveCS runs one get's critical section under the shard's
// exclusion seam.
func (s *Shard) getExclusiveCS(p *numa.Proc, key uint64, dst []byte) (int, bool) {
	if s.exec != nil {
		op := s.postOne(p, recApply, Op{Kind: OpGet, Key: key, Val: dst})
		return op.N, op.Found
	}
	s.lock.Lock(p)
	n, hit := s.applyGet(p, key, dst)
	s.lock.Unlock(p)
	return n, hit
}

// applyGet is a get's critical section: hash walk, item touch, LRU
// bump and value copy. Callers hold the shard's exclusion (the lock,
// or the executor's combiner); statistics stay outside.
func (s *Shard) applyGet(p *numa.Proc, key uint64, dst []byte) (int, bool) {
	// The hash-bucket walk is read-only: read-shared lines replicate
	// across caches without coherence misses, so no charge applies.
	it := s.find(key)
	if it == nil {
		return 0, false
	}
	// The LRU bump writes the item's own links — the one line a get
	// dirties. Which cluster wrote the item last is a property of the
	// key stream, not of the lock, so this cost is lock-independent
	// noise (and is why the paper's Table 1a shows all spin locks
	// performing alike on read-heavy loads).
	s.touchItem(p, it)
	s.lruFront(it)
	return copy(dst, it.value), true
}

// Set inserts or updates key with a copy of val, evicting the LRU
// victim if the shard is over capacity.
func (s *Shard) Set(p *numa.Proc, key uint64, val []byte) {
	slot := &s.slots[p.ID()]
	if s.exec != nil {
		s.postOne(p, recApply, Op{Kind: OpSet, Key: key, Val: val})
	} else {
		s.lock.Lock(p)
		s.applySet(p, key, val)
		s.lock.Unlock(p)
	}
	slot.sets++
}

// applySet is a set's critical section; callers hold the shard's
// exclusion. The per-proc sets counter stays outside; evictions are
// charged inside (they are part of the guarded structural change).
func (s *Shard) applySet(p *numa.Proc, key uint64, val []byte) {
	slot := &s.slots[p.ID()]
	it := s.find(key)
	if it == nil {
		// Structural insert: writes the bucket chain and allocator.
		s.domain.Access(p, lineHash, 1)
		s.domain.Access(p, lineAlloc, 2)
		if s.free != nil {
			it = s.free
			s.free = it.hnext
			it.hnext = nil
		} else {
			it = &item{}
		}
		it.key = key
		b := s.hash(key)
		it.hnext = s.buckets[b]
		s.buckets[b] = it
		s.count++
	} else {
		s.touchItem(p, it)
	}
	it.owner = int32(p.Cluster())
	s.setValue(p, it, val)
	s.lruFront(it)
	s.domain.Access(p, lineLRU, 2)
	if s.count > s.capacity {
		victim := s.tail
		if victim != nil && victim != it {
			s.unlink(victim)
			s.count--
			s.clearValue(p, victim)
			victim.hnext = s.free
			s.free = victim
			s.domain.Access(p, lineHash, 1)
			s.domain.Access(p, lineAlloc, 2)
			slot.evictions++
		}
	}
	// Sets mutate the global statistics counters under the cache lock
	// (as memcached does) — together with the LRU head line above,
	// this is the batchable portion of a set's critical section: runs
	// of same-cluster sets keep these lines local.
	s.domain.Access(p, lineStats, 1)
}

// Delete removes key, returning whether it was present.
func (s *Shard) Delete(p *numa.Proc, key uint64) bool {
	if s.exec != nil {
		return s.postOne(p, recApply, Op{Kind: OpDelete, Key: key}).Found
	}
	s.lock.Lock(p)
	ok := s.applyDelete(p, key)
	s.lock.Unlock(p)
	return ok
}

// applyDelete is a delete's critical section; callers hold the
// shard's exclusion.
func (s *Shard) applyDelete(p *numa.Proc, key uint64) bool {
	it := s.find(key)
	if it == nil {
		return false
	}
	s.domain.Access(p, lineHash, 1)
	s.unlink(it)
	s.count--
	s.clearValue(p, it)
	it.hnext = s.free
	s.free = it
	s.domain.Access(p, lineAlloc, 2)
	return true
}

// setValue stores a copy of val as it's value. Callers hold the
// shard's exclusion.
//
// Heap mode is the pre-arena logic byte for byte: grow the GC-managed
// buffer when too small, reslice and copy. Arena mode reuses the
// item's current block in place when it fits; otherwise the old block
// is released (deferred — see deferFree) and a new one is carved from
// the shard's arena. An exhausted arena first flushes the deferred
// frees and retries — blocks awaiting reclamation are capacity, not
// garbage — and only then spills the value to the GC heap, counting
// the spill. Spilled items retry the arena on their next overwrite, so
// a post-churn arena with room reabsorbs them.
func (s *Shard) setValue(p *numa.Proc, it *item, val []byte) {
	if s.arena == nil {
		if cap(it.value) < len(val) {
			it.value = make([]byte, len(val))
		}
		it.value = it.value[:len(val)]
		copy(it.value, val)
		return
	}
	if it.off != 0 && cap(it.value) >= len(val) {
		// In-place overwrite: the block's usable size (the view's cap)
		// already fits the new value.
		it.value = it.value[:len(val)]
		copy(it.value, val)
		return
	}
	if it.off != 0 {
		s.deferFree(p, it.off)
		it.off, it.value = 0, nil
	}
	if len(val) == 0 {
		// Zero-length values carry no bytes; an arena block would be
		// all header. Represent them exactly as heap mode does.
		if it.value == nil {
			it.value = []byte{}
		}
		it.value = it.value[:0]
		return
	}
	s.domain.Access(p, lineAlloc, 2)
	if off, ok := s.arenaMalloc(p, len(val)); ok {
		it.off = off
		it.value = s.arena.Bytes(off, int(s.arena.UsableSize(off)))[:len(val)]
		copy(it.value, val)
		return
	}
	// Graceful spill: the arena is exhausted even after reclaiming the
	// deferred frees, so this value lives on the GC heap until an
	// overwrite finds arena room again.
	s.slots[p.ID()].spills++
	if cap(it.value) < len(val) {
		it.value = make([]byte, len(val))
	}
	it.value = it.value[:len(val)]
	copy(it.value, val)
}

// clearValue drops it's value on eviction or delete. Callers hold the
// shard's exclusion. Heap mode keeps the buffer for the recycled item
// to reuse (the pre-arena behavior); arena mode releases the block to
// the shard's arena, where the splay tree hands it — still cache-warm
// — to the next fitting allocation.
func (s *Shard) clearValue(p *numa.Proc, it *item) {
	if s.arena != nil && it.off != 0 {
		s.deferFree(p, it.off)
		it.off, it.value = 0, nil
		return
	}
	it.value = it.value[:0]
}

// arenaMalloc carves a value block from the shard's arena, flushing
// the deferred free list and retrying once when the arena looks
// exhausted. Callers hold the shard's exclusion.
func (s *Shard) arenaMalloc(p *numa.Proc, n int) (uint32, bool) {
	off, err := s.arena.MallocUnguarded(p, n)
	if err == nil {
		return off, true
	}
	if len(s.pendingFree) == 0 {
		return 0, false
	}
	s.flushFrees(p)
	off, err = s.arena.MallocUnguarded(p, n)
	return off, err == nil
}

// deferFree queues an arena block for reclamation and flushes the
// queue once it reaches maxBatch — one amortized batch of splay-tree
// reinsertion per maxBatch mutations, inside a critical section the
// caller already holds, exactly as the batch APIs amortize lock
// acquisitions.
func (s *Shard) deferFree(p *numa.Proc, off uint32) {
	s.pendingFree = append(s.pendingFree, off)
	if len(s.pendingFree) >= s.maxBatch {
		s.flushFrees(p)
	}
}

// flushFrees returns every deferred block to the arena. Callers hold
// the shard's exclusion. A free failing here means the store handed
// the arena a corrupt or double-freed offset — an invariant violation,
// not an operational error.
func (s *Shard) flushFrees(p *numa.Proc) {
	for _, off := range s.pendingFree {
		if err := s.arena.FreeUnguarded(p, off); err != nil {
			panic(fmt.Sprintf("kvstore: arena free of deferred block: %v", err))
		}
	}
	s.pendingFree = s.pendingFree[:0]
}

// flushArena drains the deferred free list as one critical section of
// its own — the combined-closure flush the batch pipeline uses between
// groups. A no-op for heap shards or an empty queue.
func (s *Shard) flushArena(p *numa.Proc) {
	if s.arena == nil {
		return
	}
	s.runBatch(p, func() {
		if len(s.pendingFree) > 0 {
			s.flushFrees(p)
		}
	})
}

// arenaCheck flushes deferred frees, then verifies the arena's heap
// invariants and that live blocks match arena-backed items one for
// one (no leaks, no double frees). Quiescent callers only.
func (s *Shard) arenaCheck(p *numa.Proc) error {
	if s.arena == nil {
		return nil
	}
	s.flushArena(p)
	if err := s.arena.Fsck(); err != nil {
		return err
	}
	backed := 0
	for it := s.head; it != nil; it = it.next {
		if it.off != 0 {
			backed++
		}
	}
	if live := s.arena.LiveBlocks(); live != backed {
		return fmt.Errorf("kvstore: arena holds %d live blocks, %d items are arena-backed", live, backed)
	}
	return nil
}

// runBatch runs fn as one exclusive critical section: one posted
// closure under the executor seam, or one acquisition of the shard
// lock. Only the maintenance paths (Len, flushArena) use it; the batch
// APIs post prebuilt closures instead (see Shard.apply).
func (s *Shard) runBatch(p *numa.Proc, fn func()) {
	if s.exec != nil {
		s.exec.Exec(p, fn)
		return
	}
	s.lock.Lock(p)
	fn()
	s.lock.Unlock(p)
}

// Len reports the current item count (one critical section).
func (s *Shard) Len(p *numa.Proc) int {
	var n int
	s.runBatch(p, func() { n = s.count })
	return n
}

// Capacity reports the shard's item capacity.
func (s *Shard) Capacity() int { return s.capacity }

// Snapshot aggregates the shard's statistics; call while workers are
// quiescent.
func (s *Shard) Snapshot() Stats {
	var st Stats
	for i := range s.slots {
		sl := &s.slots[i]
		st.Gets += sl.gets
		st.Sets += sl.sets
		st.Hits += sl.hits
		st.Misses += sl.misses
		st.Evictions += sl.evictions
		st.Spills += sl.spills
	}
	st.MetaMisses = s.domain.Snapshot().Misses
	return st
}

// checkIndex validates the shard's index; tests use it. The LRU list
// links both ways and holds exactly count items; the hash chains hold
// exactly those items, each in its own bucket, with no cycle; the free
// list is acyclic and shares no item with the LRU list. Quiescent
// callers only.
func (s *Shard) checkIndex() error {
	live := make(map[*item]bool, s.count)
	var prev *item
	for it := s.head; it != nil; it = it.next {
		if it.prev != prev {
			return fmt.Errorf("kvstore: broken prev link at %d", it.key)
		}
		if live[it] || len(live) == s.count {
			return fmt.Errorf("kvstore: LRU longer than count %d", s.count)
		}
		live[it] = true
		prev = it
	}
	if s.tail != prev {
		return fmt.Errorf("kvstore: tail mismatch")
	}
	if len(live) != s.count {
		return fmt.Errorf("kvstore: LRU has %d items, count %d", len(live), s.count)
	}
	chained := make(map[*item]bool, s.count)
	for b, head := range s.buckets {
		for it := head; it != nil; it = it.hnext {
			if chained[it] {
				return fmt.Errorf("kvstore: hash chain %d revisits key %d — cycle", b, it.key)
			}
			if !live[it] {
				return fmt.Errorf("kvstore: hash chain %d holds key %d, which is not in the LRU list", b, it.key)
			}
			if s.hash(it.key) != uint64(b) {
				return fmt.Errorf("kvstore: key %d chained in bucket %d, hashes to %d", it.key, b, s.hash(it.key))
			}
			chained[it] = true
		}
	}
	if len(chained) != s.count {
		return fmt.Errorf("kvstore: hash chains hold %d items, count %d", len(chained), s.count)
	}
	free := map[*item]bool{}
	for it := s.free; it != nil; it = it.hnext {
		if free[it] {
			return fmt.Errorf("kvstore: free list revisits an item — cycle")
		}
		if live[it] {
			return fmt.Errorf("kvstore: key %d is both live and free", it.key)
		}
		free[it] = true
	}
	return nil
}
