package kvstore

import (
	"fmt"

	"repro/internal/numa"
)

// OpKind selects what an Op does.
type OpKind uint8

const (
	// OpGet looks the key up and copies its value into Val.
	OpGet OpKind = iota
	// OpSet inserts or updates the key with a copy of Val.
	OpSet
	// OpDelete removes the key.
	OpDelete
)

// Op is one operation record of a Store.Apply batch: a flat value the
// store reads its arguments from and writes its results into, so a
// batch of any verb mix is routed, grouped and run without allocating.
type Op struct {
	Kind OpKind
	// Found reports, after Apply, whether a get or a delete found its
	// key. Untouched for sets.
	Found bool
	// N is, after Apply, the number of value bytes a get copied into
	// Val. Untouched for sets and deletes.
	N   int
	Key uint64
	// Val is a set's value, or a get's destination buffer: a short
	// buffer truncates the copy, and nil probes without copying.
	Val []byte
}

// procScratch is one proc's reusable batch state, padded so procs
// never share a line. Only its owning proc touches it, so the batch
// APIs allocate only when a call outgrows every earlier one.
type procScratch struct {
	route []int32 // route[i] is op i's shard
	order []int   // op indices grouped by shard, caller order within a group
	start []int   // shard si's group is order[start[si]:start[si+1]]
	next  []int   // per-shard placement cursor of the counting sort
	ops   []Op    // the op records MGet/MSet/MDelete build
	_     numa.Pad
}

// Apply runs every op of a mixed-verb batch and writes each get's and
// delete's result into its record. Ops are grouped by shard with a
// stable counting sort, and each shard's group runs in critical
// sections of at most Config.MaxBatch ops, so N same-shard ops of any
// mix cost ceil(N/MaxBatch) acquisitions. Inside a section ops apply
// in caller order, with the same per-op semantics and statistics as
// the single-op calls: a get after a set of the same key sees the set.
// Ops on different shards apply in shard order; cross-shard ops were
// never atomic with respect to each other to begin with.
//
// A shard whose reads genuinely share (a reader-writer lock, or a
// read-combining executor) runs a section holding only gets in shared
// mode, with the TouchEvery LRU sampling of MGet; a section holding any
// write runs exclusive.
func (s *Store) Apply(p *numa.Proc, ops []Op) {
	order, start := s.group(p, ops)
	for si, sh := range s.shards {
		if g := order[start[si]:start[si+1]]; len(g) > 0 {
			sh.apply(p, ops, g)
		}
	}
}

// group partitions the indices of ops by target shard under the
// store's placement, preserving caller order within each group, into
// p's scratch: shard si's group is order[start[si]:start[si+1]]. Every
// index lands in exactly one group — the routing completeness the
// batch APIs rely on. The result is valid until p's next batch call.
func (s *Store) group(p *numa.Proc, ops []Op) (order, start []int) {
	sc := &s.scratch[p.ID()]
	n := len(ops)
	if cap(sc.order) < n {
		sc.route = make([]int32, n)
		sc.order = make([]int, n)
	}
	order, start = sc.order[:n], sc.start
	route := sc.route[:n]
	clear(start)
	for i := range ops {
		si := s.shardIndex(p, ops[i].Key)
		route[i] = int32(si)
		start[si+1]++
	}
	for si := 1; si < len(start); si++ {
		start[si] += start[si-1]
	}
	next := sc.next
	copy(next, start)
	for i, si := range route {
		order[next[si]] = i
		next[si]++
	}
	return order, start
}

// opRecords returns p's scratch op records, n long, for the batch APIs
// that translate their arguments into an Apply call.
func (s *Store) opRecords(p *numa.Proc, n int) []Op {
	sc := &s.scratch[p.ID()]
	if cap(sc.ops) < n {
		sc.ops = make([]Op, n)
	}
	return sc.ops[:n]
}

// MGet looks up every key, copying values into the matching dsts
// buffer (dsts may be nil to probe without copying) and reporting
// per-key copy lengths and presence in lens and found. It is Apply
// over get records: each shard's group runs in critical sections of at
// most Config.MaxBatch lookups — one lock acquisition (or one combined
// closure, under a comb-* executor) answers a whole chunk, instead of
// one per key as repeated Get calls would pay. Results are written at
// the same index as the key; every key is answered exactly once. Under
// a genuine reader-writer lock each chunk runs in SHARED mode — one
// RLock answers the whole chunk, concurrent with other readers' chunks
// — and LRU recency follows the TouchEvery sampling policy, with the
// sampled bumps deferred to one exclusive section per shard group.
func (s *Store) MGet(p *numa.Proc, keys []uint64, dsts [][]byte, lens []int, found []bool) {
	if dsts != nil && len(dsts) != len(keys) {
		panic(fmt.Sprintf("kvstore: MGet with %d dsts for %d keys", len(dsts), len(keys)))
	}
	if len(lens) != len(keys) || len(found) != len(keys) {
		panic(fmt.Sprintf("kvstore: MGet with %d lens / %d found for %d keys", len(lens), len(found), len(keys)))
	}
	ops := s.opRecords(p, len(keys))
	for i, k := range keys {
		ops[i] = Op{Kind: OpGet, Key: k}
		if dsts != nil {
			ops[i].Val = dsts[i]
		}
	}
	s.Apply(p, ops)
	for i := range ops {
		lens[i], found[i] = ops[i].N, ops[i].Found
	}
	clear(ops) // drop the references to the caller's buffers
}

// MSet inserts or updates every key with a copy of the matching vals
// entry: Apply over set records, so N same-shard keys cost
// ceil(N/MaxBatch) acquisitions instead of N. Caller order is
// preserved within a shard, so duplicate keys resolve last-wins like
// sequential Sets.
func (s *Store) MSet(p *numa.Proc, keys []uint64, vals [][]byte) {
	if len(vals) != len(keys) {
		panic(fmt.Sprintf("kvstore: MSet with %d vals for %d keys", len(vals), len(keys)))
	}
	ops := s.opRecords(p, len(keys))
	for i, k := range keys {
		ops[i] = Op{Kind: OpSet, Key: k, Val: vals[i]}
	}
	s.Apply(p, ops)
	clear(ops)
}

// MDelete removes every key, batched like MSet, and reports how many
// were present.
func (s *Store) MDelete(p *numa.Proc, keys []uint64) int {
	return s.mdelete(p, keys, nil)
}

// MDeleteEach removes every key like MDelete and additionally reports
// per-key presence in found (written at the same index as the key) —
// the answer a wire protocol needs to say DELETED or NOT_FOUND per
// operation while still paying ceil(N/MaxBatch) acquisitions.
func (s *Store) MDeleteEach(p *numa.Proc, keys []uint64, found []bool) int {
	if len(found) != len(keys) {
		panic(fmt.Sprintf("kvstore: MDeleteEach with %d found for %d keys", len(found), len(keys)))
	}
	return s.mdelete(p, keys, found)
}

func (s *Store) mdelete(p *numa.Proc, keys []uint64, found []bool) int {
	ops := s.opRecords(p, len(keys))
	for i, k := range keys {
		ops[i] = Op{Kind: OpDelete, Key: k}
	}
	s.Apply(p, ops)
	n := 0
	for i := range ops {
		if ops[i].Found {
			n++
		}
		if found != nil {
			found[i] = ops[i].Found
		}
	}
	return n
}

// execRec is one proc's argument record for a shard's executor
// closure. The closure (run) is built once, when the shard is, and
// reads what to do from the record, so posting a chunk to a combining
// executor allocates nothing. The poster fills the record, blocks in
// Exec while a combiner runs run on its behalf, and clears it after.
type execRec struct {
	p     *numa.Proc
	ops   []Op
	chunk []int
	mode  recMode
	run   func()
	// one is the op record of a single-op call (see Shard.postOne).
	one [1]Op
	_   numa.Pad
}

// recMode is what an execRec's closure runs.
type recMode uint8

const (
	recApply recMode = iota // applyChunk, exclusive
	recRead                 // readChunk, shared
	recTouch                // touchKeys over the poster's sampled keys, exclusive
)

// runRec is the body of every execRec closure.
func (s *Shard) runRec(r *execRec) {
	switch r.mode {
	case recApply:
		s.applyChunk(r.p, r.ops, r.chunk)
	case recRead:
		s.readChunk(r.ops, r.chunk)
	case recTouch:
		s.touchKeys(r.p, s.slots[r.p.ID()].touch)
	}
}

// post runs r's closure in mode through the executor seam — shared
// mode through ExecShared — then clears the record so it pins none of
// the caller's buffers.
func (s *Shard) post(p *numa.Proc, mode recMode, ops []Op, chunk []int) {
	r := &s.recs[p.ID()]
	r.p, r.ops, r.chunk, r.mode = p, ops, chunk, mode
	if mode == recRead {
		s.rwexec.ExecShared(p, r.run)
	} else {
		s.exec.Exec(p, r.run)
	}
	r.p, r.ops, r.chunk = nil, nil, nil
}

// oneChunk is the chunk of a single-op post: index 0 of execRec.one.
var oneChunk = []int{0}

// postOne runs op as one critical section through the executor seam,
// in mode, and returns it with its results filled in. The op travels
// in p's execRec, so a single Get, Set or Delete under an executor
// allocates nothing, like a batch chunk.
func (s *Shard) postOne(p *numa.Proc, mode recMode, op Op) Op {
	r := &s.recs[p.ID()]
	r.one[0] = op
	s.post(p, mode, r.one[:], oneChunk)
	op = r.one[0]
	r.one[0] = Op{} // drop the reference to the caller's buffer
	return op
}

// apply runs the ops named by idx (indices into ops, caller order) in
// critical sections of at most maxBatch ops each, then counts them in
// p's statistics slot outside the lock. A chunk of only gets on a
// shard whose reads genuinely share runs in shared mode, with the LRU
// bump sampled every touchEvery-th hit and the sampled keys refreshed
// in one exclusive section after the group; any other chunk runs
// exclusive, with every op's full single-op critical section.
func (s *Shard) apply(p *numa.Proc, ops []Op, idx []int) {
	slot := &s.slots[p.ID()]
	slot.touch = slot.touch[:0]
	for start := 0; start < len(idx); start += s.maxBatch {
		chunk := idx[start:min(start+s.maxBatch, len(idx))]
		shared := s.sharedReads && getsOnly(ops, chunk)
		switch {
		case s.exec != nil && shared:
			s.post(p, recRead, ops, chunk)
		case s.exec != nil:
			s.post(p, recApply, ops, chunk)
		case shared:
			s.lock.RLock(p)
			s.readChunk(ops, chunk)
			s.lock.RUnlock(p)
		default:
			s.lock.Lock(p)
			s.applyChunk(p, ops, chunk)
			s.lock.Unlock(p)
		}
		for _, i := range chunk {
			op := &ops[i]
			switch op.Kind {
			case OpGet:
				slot.gets++
				if !op.Found {
					slot.misses++
					continue
				}
				slot.hits++
				if shared {
					slot.sinceTouch++
					if slot.sinceTouch >= s.touchEvery {
						slot.sinceTouch = 0
						slot.touch = append(slot.touch, op.Key)
					}
				}
			case OpSet:
				slot.sets++
			}
		}
	}
	if len(slot.touch) == 0 {
		return
	}
	// Re-find under exclusive mode: an item may have been evicted or
	// deleted between its shared chunk and this upgrade.
	if s.exec != nil {
		s.post(p, recTouch, nil, nil)
		return
	}
	s.lock.Lock(p)
	s.touchKeys(p, slot.touch)
	s.lock.Unlock(p)
}

// getsOnly reports whether every op of chunk is a get.
func getsOnly(ops []Op, chunk []int) bool {
	for _, i := range chunk {
		if ops[i].Kind != OpGet {
			return false
		}
	}
	return true
}

// applyChunk is one exclusive critical section over a chunk: each op's
// single-op section, in caller order. Callers hold the shard's
// exclusion.
func (s *Shard) applyChunk(p *numa.Proc, ops []Op, chunk []int) {
	for _, i := range chunk {
		op := &ops[i]
		switch op.Kind {
		case OpGet:
			op.N, op.Found = s.applyGet(p, op.Key, op.Val)
		case OpSet:
			s.applySet(p, op.Key, op.Val)
		case OpDelete:
			op.Found = s.applyDelete(p, op.Key)
		}
	}
}

// readChunk is one shared-mode section over a chunk of gets: lookups
// and value copies only, no LRU bump. Callers hold at least shared
// mode.
func (s *Shard) readChunk(ops []Op, chunk []int) {
	for _, i := range chunk {
		op := &ops[i]
		op.N, op.Found = s.readValue(op.Key, op.Val)
	}
}

// touchKeys refreshes the LRU position of every key still present.
// Callers hold exclusive mode.
func (s *Shard) touchKeys(p *numa.Proc, keys []uint64) {
	for _, k := range keys {
		s.touchKey(p, k)
	}
}
