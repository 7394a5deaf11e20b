package locks

import (
	"testing"

	"repro/internal/numa"
)

// bypassProbe wraps the adaptive executor's underlying lock and
// records, at every acquisition, whether the acquirer arrived on the
// lone-poster bypass: its own publication slot idle and its cluster's
// gate free. A combiner always acquires with its own closure still
// posted and its gate held.
type bypassProbe struct {
	inner     Mutex
	x         *CombiningAdaptive
	bypassed  int
	published int
}

func (b *bypassProbe) Lock(p *numa.Proc) {
	b.inner.Lock(p)
	if b.x.slots[p.ID()].state.Load() == combIdle && b.x.gates[p.Cluster()].held.Load() == 0 {
		b.bypassed++
	} else {
		b.published++
	}
}

func (b *bypassProbe) Unlock(p *numa.Proc) { b.inner.Unlock(p) }

// take returns and resets the acquisition counts since the last call.
func (b *bypassProbe) take() (bypassed, published int) {
	bypassed, published = b.bypassed, b.published
	b.bypassed, b.published = 0, 0
	return
}

func TestAdaptiveLonePosterBypass(t *testing.T) {
	topo := numa.New(2, 4)
	probe := &bypassProbe{inner: NewMCS(topo)}
	x := NewCombiningAdaptive(topo, probe)
	probe.x = x

	p := topo.Proc(0)
	var peer *numa.Proc
	for id := 1; id < topo.MaxProcs(); id++ {
		if topo.ClusterOf(id) == p.Cluster() {
			peer = topo.Proc(id)
			break
		}
	}

	// A proc's first op publishes; a repeating lone poster bypasses
	// from its second op on, one acquisition per op.
	n := 0
	for i := 0; i < 100; i++ {
		x.Exec(p, func() { n++ })
	}
	if n != 100 {
		t.Fatalf("ran %d closures, want 100", n)
	}
	if by, pub := probe.take(); by != 99 || pub != 1 {
		t.Fatalf("lone poster: %d bypassed and %d published acquisitions, want 99 and 1", by, pub)
	}
	if ops, batches := x.Ops(), x.Batches(); ops != 100 || batches != 100 {
		t.Fatalf("lone poster: %d ops over %d batches, want 100 over 100", ops, batches)
	}

	// A same-cluster peer's op breaks the streak: the peer publishes,
	// and so does the original poster's next op; the one after that
	// bypasses again.
	x.Exec(peer, func() { n++ })
	if by, pub := probe.take(); by != 0 || pub != 1 {
		t.Fatalf("peer's op: %d bypassed and %d published, want 0 and 1", by, pub)
	}
	x.Exec(p, func() { n++ })
	if by, pub := probe.take(); by != 0 || pub != 1 {
		t.Fatalf("op after a peer posted: %d bypassed and %d published, want 0 and 1", by, pub)
	}
	x.Exec(p, func() { n++ })
	if by, pub := probe.take(); by != 1 || pub != 0 {
		t.Fatalf("renewed streak: %d bypassed and %d published, want 1 and 0", by, pub)
	}

	// Admission reads the occupancy estimate: a bypasser blocked inside
	// its closure must stay counted.
	inside, release, done := make(chan struct{}), make(chan struct{}), make(chan struct{})
	go func() {
		defer close(done)
		x.Exec(p, func() {
			close(inside)
			<-release
		})
	}()
	<-inside
	occ, ok := EstimateOccupancy(x)
	close(release)
	<-done
	if !ok || occ != 1 {
		t.Fatalf("EstimateOccupancy with a bypasser blocked in its closure = (%d,%v), want (1,true)", occ, ok)
	}
	if by, pub := probe.take(); by != 1 || pub != 0 {
		t.Fatalf("blocked op: %d bypassed and %d published, want 1 and 0", by, pub)
	}
	if occ := x.OccupancyEstimate(); occ != 0 {
		t.Fatalf("quiescent occupancy estimate = %d, want 0", occ)
	}
	if ops, batches := x.Ops(), x.Batches(); ops != 104 || batches != 104 {
		t.Fatalf("after the streak checks: %d ops over %d batches, want 104 over 104", ops, batches)
	}
}
