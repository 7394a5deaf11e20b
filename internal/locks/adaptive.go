package locks

import (
	"sync/atomic"

	"repro/internal/numa"
	"repro/internal/spin"
)

// occSlot is one cluster's posted-request count, padded so clusters
// never share a line. It is the GCR-style occupancy signal: how many
// procs of this cluster currently have a request in flight through the
// executor, whether posted or running on the lone-poster bypass.
// Incremented before a request is posted or bypassed and decremented
// after the closure completes, so it over-approximates the in-flight
// count by at most the requests in their brief post/return windows —
// exactly the cheap, slightly-stale estimate an admission policy wants.
// A bypasser blocked inside its closure stays counted.
//
// last is the id+1 of the cluster's most recent poster (0: none yet),
// the streak half of CombiningAdaptive's bypass condition. Only
// same-cluster procs write either word.
type occSlot struct {
	n    atomic.Int32
	last atomic.Int32
	_    numa.Pad
}

// OccupancyEstimator is the optional introspection interface adaptive
// executors use to report their load estimate: the number of requests
// currently in flight, summed over clusters. Fixed-policy executors
// omit it.
type OccupancyEstimator interface {
	OccupancyEstimate() int
}

// EstimateOccupancy reports x's current in-flight request estimate and
// whether x tracks one at all.
func EstimateOccupancy(x Executor) (int, bool) {
	if e, ok := x.(OccupancyEstimator); ok {
		return e.OccupancyEstimate(), true
	}
	return 0, false
}

// Adaptive policy bounds. The patience window scales linearly with the
// cluster's occupancy (more peers posted -> more worth waiting to be
// harvested) up to adaptivePatienceCap multiples of the base window;
// harvest passes grow logarithmically up to DefaultAdaptiveMaxPasses.
const (
	adaptivePatienceCap = 8
	// DefaultAdaptiveMaxPasses caps how many harvest sweeps an
	// adaptive combiner makes per acquisition, however high the
	// occupancy estimate climbs: each extra pass adds a full
	// combinePassPause of lock hold time, so unbounded growth would
	// trade everyone's latency for marginal batch length.
	DefaultAdaptiveMaxPasses = 4
)

// CombiningAdaptive is NewCombining with the two fixed policy
// constants — the election patience window and the harvest pass count
// — replaced by functions of a per-cluster occupancy estimate.
//
// The fixed combiner is mistuned at both ends of the load curve: when
// the executor is idle, its second harvest pass (and the pause before
// it) stretches every solo operation for batches that cannot form; at
// high occupancy, its one-size patience window makes waiters give up
// and compete for the gate just as a long batch was about to pay off.
// The adaptive executor reads its cluster's posted-request count — the
// same cheap occupancy signal GCR uses for admission — and scales both
// knobs with it:
//
//   - Patience: a poster lingers occupancy x the base window (capped)
//     before trying to elect itself, so the more peers have requests in
//     flight, the longer it waits to ride their combiner's harvest.
//   - Passes: the combiner makes 1 + log2(occupancy) sweeps (capped),
//     so a lone combiner makes one sweep with no harvest pause, while
//     a saturated cluster gets long, locality-preserving batches.
//
// A lone poster skips the protocol altogether: when its increment
// moves the cluster's occupancy from 0 to 1 and it was also the
// cluster's previous poster, it runs lock-run-unlock on the underlying
// lock — no slot, no gate, no active count, no park, no yield — and
// counts one op over one batch, so an idle executor costs what the
// lock costs. Occupancy alone is not a safe condition: with posters
// oversubscribing the processors, a poster looks alone whenever its
// peers are descheduled, and bypassing then starves the batches that
// form behind a combiner yielding with its gate held. The streak
// condition separates the two cases: a proc repeating alone keeps the
// cluster's last-poster word, while interleaved peers keep
// overwriting it, so every proc's first op and any op after a
// same-cluster peer posted take the publication path.
//
// The estimate is maintained with one padded per-cluster counter
// touched only by same-cluster procs, so reading it costs a local
// cache hit, never cross-socket traffic.
type CombiningAdaptive struct {
	m Mutex
	// active counts running combiners, exactly as in Combining: posters
	// elect eagerly while it is zero (no batch anywhere to ride).
	active  atomic.Int32
	ops     atomic.Uint64 // closures executed
	batches atomic.Uint64 // acquisitions of the underlying lock
	_       numa.Pad
	occ     []occSlot
	gates   []combinerGate
	slots   []combSlot
	// members lists the proc ids of each cluster, the combiner's scan
	// order.
	members [][]int
	// maxPasses caps the occupancy-scaled harvest pass count.
	maxPasses int
}

// NewCombiningAdaptive returns a load-adaptive combining executor over
// m for the topology. The underlying lock must be fresh (not shared
// with direct Lock/Unlock users): the executor owns its exclusion
// domain.
func NewCombiningAdaptive(topo *numa.Topology, m Mutex) *CombiningAdaptive {
	c := &CombiningAdaptive{
		m:         m,
		occ:       make([]occSlot, topo.Clusters()),
		gates:     make([]combinerGate, topo.Clusters()),
		slots:     make([]combSlot, topo.MaxProcs()),
		members:   make([][]int, topo.Clusters()),
		maxPasses: DefaultAdaptiveMaxPasses,
	}
	for i := range c.slots {
		c.slots[i].parker = spin.MakeParker()
	}
	for id := 0; id < topo.MaxProcs(); id++ {
		cl := topo.ClusterOf(id)
		c.members[cl] = append(c.members[cl], id)
	}
	return c
}

// CombinesExec reports true: ops amortize over lock acquisitions.
func (c *CombiningAdaptive) CombinesExec() bool { return true }

// patience is the election patience window for the given cluster
// occupancy: the base window scaled by how many same-cluster peers
// have requests in flight, capped.
func patience(occ int32) int {
	if occ < 1 {
		occ = 1
	}
	if occ > adaptivePatienceCap {
		occ = adaptivePatienceCap
	}
	return int(occ) * electAfter
}

// passesFor is the harvest pass count for the given occupancy:
// 1 + log2(occ), capped at max. Occupancy 1 — only the combiner's own
// request — makes a single sweep with no inter-pass pause.
func passesFor(occ int32, max int) int {
	p := 1
	for o := occ; o > 1; o >>= 1 {
		p++
	}
	if p > max {
		p = max
	}
	return p
}

// Exec runs fn under the executor's exclusion: directly on the
// lone-poster bypass, otherwise by publishing it and waiting until a
// combiner (possibly this proc) has run it.
func (c *CombiningAdaptive) Exec(p *numa.Proc, fn func()) {
	oc := &c.occ[p.Cluster()]
	me := int32(p.ID()) + 1
	if oc.n.Add(1) == 1 && oc.last.Load() == me {
		c.m.Lock(p)
		fn()
		c.m.Unlock(p)
		c.batches.Add(1)
		c.ops.Add(1)
		oc.n.Add(-1)
		return
	}
	oc.last.Store(me)
	slot := &c.slots[p.ID()]
	slot.fn = fn
	slot.state.Store(combPosted)

	gate := &c.gates[p.Cluster()]
	for i := 0; slot.state.Load() == combPosted; i++ {
		// Bypass the patience window when no combiner is running
		// anywhere: there is no batch to ride, so elect immediately
		// (the low-contention fast path costs one gate CAS).
		eager := c.active.Load() == 0
		if (eager || i >= patience(oc.n.Load())) && gate.held.Load() == 0 && gate.held.CompareAndSwap(0, 1) {
			if slot.state.Load() == combPosted {
				c.combine(p)
			}
			gate.held.Store(0)
			break // combine always runs the combiner's own closure
		}
		spin.Poll(i)
	}
	slot.parker.Wait(func() bool { return slot.state.Load() == combDone })
	slot.state.Store(combIdle)
	oc.n.Add(-1)
}

// combine runs the cluster's posted closures — the combiner's own
// among them — under one acquisition of the underlying lock, making an
// occupancy-scaled number of harvest passes. Called with the cluster
// gate held.
func (c *CombiningAdaptive) combine(p *numa.Proc) {
	cl := p.Cluster()
	c.active.Add(1)
	c.m.Lock(p)
	// Sample occupancy once per acquisition: the estimate drifting
	// mid-batch only mis-sizes this batch's tail, never correctness.
	passes := passesFor(c.occ[cl].n.Load(), c.maxPasses)
	ran := uint64(0)
	for pass := 0; pass < passes; pass++ {
		if pass > 0 {
			// Let in-flight requests publish, so batches form even at
			// moderate per-cluster occupancy (same rationale as the
			// FC-MCS harvest pause).
			spin.Pause(combinePassPause)
		}
		for _, id := range c.members[cl] {
			s := &c.slots[id]
			if s.state.Load() != combPosted {
				continue
			}
			fn := s.fn
			s.fn = nil
			fn()
			s.state.Store(combDone)
			s.parker.Wake()
			ran++
		}
	}
	// Rescue sweep for clusters with no elected combiner, exactly as
	// in Combining.combine: harvesting is serialized by m, so remote
	// slots are as safe to scan as local ones, and the sweep keeps
	// orphaned clusters live when spinning workers outnumber
	// GOMAXPROCS and a cluster's members never win an election.
	for rc := range c.members {
		if rc == cl || c.gates[rc].held.Load() != 0 {
			continue
		}
		for _, id := range c.members[rc] {
			s := &c.slots[id]
			if s.state.Load() != combPosted {
				continue
			}
			fn := s.fn
			s.fn = nil
			fn()
			s.state.Store(combDone)
			s.parker.Wake()
			ran++
		}
	}
	c.m.Unlock(p)
	c.batches.Add(1)
	c.ops.Add(ran)
	c.active.Add(-1)
	// Hand the processor around at batch boundaries when oversubscribed,
	// as Combining.combine does. The caller still holds the cluster
	// gate, so same-cluster peers scheduled meanwhile cannot elect:
	// they publish and pile up behind the gate for the next combiner's
	// sweep. Under oversubscription this yield is what forms batches.
	spin.Yield()
}

// Ops reports the number of closures executed so far; read it while
// posters are quiescent.
func (c *CombiningAdaptive) Ops() uint64 { return c.ops.Load() }

// Batches reports the number of underlying-lock acquisitions so far;
// Ops/Batches is the amortization factor the construction buys.
func (c *CombiningAdaptive) Batches() uint64 { return c.batches.Load() }

// Occupancy reports cluster's current in-flight request estimate
// (racy; diagnostics, tools and tests only).
func (c *CombiningAdaptive) Occupancy(cluster int) int {
	return int(c.occ[cluster].n.Load())
}

// OccupancyEstimate reports the in-flight request estimate summed over
// clusters (racy; diagnostics, tools and tests only).
func (c *CombiningAdaptive) OccupancyEstimate() int {
	n := 0
	for i := range c.occ {
		n += int(c.occ[i].n.Load())
	}
	return n
}

// Interface conformance checks.
var (
	_ Executor           = (*CombiningAdaptive)(nil)
	_ ExecCombiner       = (*CombiningAdaptive)(nil)
	_ OccupancyEstimator = (*CombiningAdaptive)(nil)
)
