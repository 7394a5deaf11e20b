package main

import (
	"bufio"
	"fmt"
	"math"
	"net"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"

	"repro/internal/locks"
	"repro/internal/numa"
)

// The traced run times calls into each layer from this package, through
// seams the program already exposes: the net.Listener handed to
// Server.Serve, and a timed locks.Mutex placed under each shard's lock
// or combiner. Every call is timed and counted; spans (name, start,
// end, parent, root burst) are kept in memory for one burst in
// sampleEvery and written out when the run ends.

type spanName uint8

const (
	spBurst     spanName = iota // wire root: a client burst, write to last reply
	spOp                        // store root: one load-generator iteration
	spEncode                    // client builds the burst's requests
	spSend                      // client Write of the burst
	spDecode                    // client parses replies between reads
	spNetRead                   // server-side Read on the connection
	spNetWrite                  // server-side Write on the connection
	spServer                    // server work: a Read return to the next Write
	spStoreCall                 // one Store.Get/Store.Set call
	spLockWait                  // Lock call until the shard lock is held
	spLockHold                  // shard lock held until Unlock
	spNone
)

var spanNames = [...]string{"loadgen.burst", "loadgen.op", "loadgen.encode", "loadgen.send", "loadgen.decode",
	"net.read", "net.write", "server.burst", "kvstore.call", "locks.wait", "locks.hold", ""}

// spanLayers maps a span to the layer its self time is charged to. A
// wire burst's own self time is the time no layer span covers —
// loopback transit and scheduling — reported as "transit".
var spanLayers = [...]string{"transit", "loadgen", "loadgen", "loadgen", "loadgen",
	"net", "net", "server", "kvstore", "locks", "locks", ""}

var selfLayers = []string{"loadgen", "transit", "net", "server", "kvstore", "locks"}

type span struct {
	start, end   int64
	burst        uint64
	name, parent spanName
	proc         int8
	ops          uint8 // root spans: ops in the burst
}

// lane is a span buffer written by one goroutine only.
type lane struct {
	spans  []span
	n      int
	fullAt uint64 // first burst that found the lane full; MaxUint64 if none
}

func (l *lane) add(s span) {
	if l.n == len(l.spans) {
		l.fullAt = min(l.fullAt, s.burst)
		return
	}
	l.spans[l.n] = s
	l.n++
}

// connTrace is the trace state of one load-generator connection (or
// store worker). burst is the id of its outstanding burst: a closed
// loop has exactly one, so server-side spans on the same connection
// read it to name their root.
type connTrace struct {
	idx    int
	burst  atomic.Uint64
	client lane // written by the load generator's goroutine
	server lane // written by the goroutine serving the connection
}

type tracer struct {
	measuring  atomic.Bool
	lockParent spanName // spServer on the wire, spStoreCall in-process
	conns      []*connTrace
	procConn   [numProcs]atomic.Pointer[connTrace]

	mu       sync.Mutex
	ports    map[int]*connTrace
	clients  []*clientTrace
	mutexes  []*timedMutex
	netConns []*tracedConn
}

const (
	sampleEvery = 64
	laneSpans   = 1 << 17
)

func newTracer(conns int, lockParent spanName) *tracer {
	tr := &tracer{lockParent: lockParent, ports: map[int]*connTrace{}}
	for i := 0; i < conns; i++ {
		tr.conns = append(tr.conns, &connTrace{
			idx:    i,
			client: lane{spans: make([]span, laneSpans), fullAt: math.MaxUint64},
			server: lane{spans: make([]span, laneSpans), fullAt: math.MaxUint64},
		})
	}
	return tr
}

// register ties a client connection's local port to connection idx,
// so the server side of the same loopback connection can find it.
func (tr *tracer) register(local net.Addr, idx int) {
	tr.mu.Lock()
	tr.ports[local.(*net.TCPAddr).Port] = tr.conns[idx]
	tr.mu.Unlock()
}

func (tr *tracer) lookup(remote net.Addr) *connTrace {
	a, ok := remote.(*net.TCPAddr)
	if !ok {
		return nil
	}
	tr.mu.Lock()
	defer tr.mu.Unlock()
	return tr.ports[a.Port]
}

// bindProc records that proc id serves connection idx, so lock spans,
// which carry only the acquiring proc, find their root burst.
func (tr *tracer) bindProc(id, idx int) { tr.procConn[id].Store(tr.conns[idx]) }

// clientTrace times one load generator's side of its bursts.
type clientTrace struct {
	tr                 *tracer
	ct                 *connTrace
	id                 uint64
	measuring, sampled bool
	start, segStart    int64
	encodeNs, decodeNs int64
	ops                uint64
}

func (t *clientTrace) begin(t0, t1 int64) {
	t.id = t.ct.burst.Add(1)
	t.measuring = t.tr.measuring.Load()
	t.sampled = t.measuring && t.id%sampleEvery == 0
	t.start, t.segStart = t0, t1
	if t.measuring {
		t.encodeNs += t1 - t0
	}
	t.span(spEncode, t0, t1)
}

func (t *clientTrace) span(name spanName, start, end int64) {
	if t.sampled {
		t.ct.client.add(span{start: start, end: end, burst: t.id, name: name, parent: spBurst, proc: -1})
	}
}

func (t *clientTrace) sent(tw int64) {
	t.span(spSend, t.segStart, tw)
	t.segStart = tw
}

// decoded closes a decode segment: parsing since the last read (or
// the write) until t, when the client blocks for more bytes.
func (t *clientTrace) decoded(tEnd int64) {
	if t.measuring {
		t.decodeNs += tEnd - t.segStart
	}
	t.span(spDecode, t.segStart, tEnd)
	t.segStart = tEnd
}

// read starts a decode segment when a Read returns at t1.
func (t *clientTrace) read(t1 int64) { t.segStart = t1 }

func (t *clientTrace) end(tEnd int64, n int) {
	t.decoded(tEnd)
	if t.measuring {
		t.ops += uint64(n)
	}
	if t.sampled {
		t.ct.client.add(span{start: t.start, end: tEnd, burst: t.id, name: spBurst, parent: spNone, proc: -1, ops: uint8(n)})
	}
}

// tracedListener wraps the listener handed to Server.Serve.
type tracedListener struct {
	net.Listener
	tr *tracer
}

func (l tracedListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	tc := &tracedConn{Conn: c, tr: l.tr}
	l.tr.mu.Lock()
	l.tr.netConns = append(l.tr.netConns, tc)
	l.tr.mu.Unlock()
	return tc, nil
}

// tracedConn times the server's Reads and Writes on one connection.
// The server works on a burst from a Read return to its next Write.
type tracedConn struct {
	net.Conn
	tr         *tracer
	ct         *connTrace
	inBurst    bool
	burstStart int64

	reads, writes, bytesOut uint64
	readWait, write, burst  hist
}

// burstID returns the id of the connection's outstanding burst, 0 if
// the connection is not yet matched to its client.
func (c *tracedConn) burstID() uint64 {
	if c.ct == nil {
		return 0
	}
	return c.ct.burst.Load()
}

func (c *tracedConn) span(id uint64, name, parent spanName, start, end int64) {
	if id != 0 && id%sampleEvery == 0 {
		c.ct.server.add(span{start: start, end: end, burst: id, name: name, parent: parent, proc: -1})
	}
}

func (c *tracedConn) Read(b []byte) (int, error) {
	t0 := now()
	n, err := c.Conn.Read(b)
	t1 := now()
	if c.ct == nil {
		c.ct = c.tr.lookup(c.Conn.RemoteAddr())
	}
	if c.tr.measuring.Load() {
		c.reads++
		c.readWait.record(t1 - t0)
		parent := spBurst
		if c.inBurst {
			parent = spServer
		}
		c.span(c.burstID(), spNetRead, parent, t0, t1)
	}
	if n > 0 && !c.inBurst {
		c.inBurst, c.burstStart = true, t1
	}
	return n, err
}

func (c *tracedConn) Write(b []byte) (int, error) {
	t0 := now()
	measuring := c.tr.measuring.Load()
	// Read the burst id before the bytes leave: once they arrive, the
	// client may start its next burst.
	id := c.burstID()
	if c.inBurst {
		c.inBurst = false
		if measuring {
			c.burst.record(t0 - c.burstStart)
			c.span(id, spServer, spBurst, c.burstStart, t0)
		}
	}
	n, err := c.Conn.Write(b)
	if measuring {
		t1 := now()
		c.writes++
		c.bytesOut += uint64(n)
		c.write.record(t1 - t0)
		c.span(id, spNetWrite, spBurst, t0, t1)
	}
	return n, err
}

// timedMutex sits under a shard lock (or under a combiner, as the lock
// it acquires). Its state is written only while the lock is held.
type timedMutex struct {
	inner               locks.Mutex
	tr                  *tracer
	counting            bool
	waitStart, acquired int64
	last                int // cluster of the previous holder
	acq, migrations     uint64
	wait, hold          hist
}

func (tr *tracer) timed(m locks.Mutex) locks.Mutex {
	tm := &timedMutex{inner: m, tr: tr, last: -1}
	tr.mu.Lock()
	tr.mutexes = append(tr.mutexes, tm)
	tr.mu.Unlock()
	return tm
}

func (m *timedMutex) Lock(p *numa.Proc) {
	t0 := now()
	m.inner.Lock(p)
	t1 := now()
	m.waitStart, m.acquired = t0, t1
	m.counting = m.tr.measuring.Load()
	if m.counting {
		m.acq++
		m.wait.record(t1 - t0)
		if p.Cluster() != m.last {
			m.migrations++
		}
	}
	m.last = p.Cluster()
}

func (m *timedMutex) Unlock(p *numa.Proc) {
	if m.counting {
		t2 := now()
		m.hold.record(t2 - m.acquired)
		if ct := m.tr.procConn[p.ID()].Load(); ct != nil {
			if id := ct.burst.Load(); id%sampleEvery == 0 {
				ct.server.add(span{start: m.waitStart, end: m.acquired, burst: id, name: spLockWait, parent: m.tr.lockParent, proc: int8(p.ID())})
				ct.server.add(span{start: m.acquired, end: t2, burst: id, name: spLockHold, parent: m.tr.lockParent, proc: int8(p.ID())})
			}
		}
	}
	m.inner.Unlock(p)
}

// lockStats sums the timed mutexes. Call once the load has stopped.
type lockStats struct {
	acq, migrations, streaks uint64
	wait, hold               hist
}

func (tr *tracer) lockStats() lockStats {
	var s lockStats
	for _, m := range tr.mutexes {
		s.acq += m.acq
		s.migrations += m.migrations
		if m.acq > 0 {
			// The first measured acquisition counts as a migration
			// when the previous holder sat in the other cluster, so
			// the runs number migrations, plus one when it did not.
			s.streaks += max(m.migrations, 1)
		}
		s.wait.merge(&m.wait)
		s.hold.merge(&m.hold)
	}
	return s
}

// netStats sums the server-side connection wrappers.
type netStats struct {
	reads, writes, bytesOut uint64
	readWait, write, burst  hist
}

func (tr *tracer) netStats() netStats {
	var s netStats
	for _, c := range tr.netConns {
		s.reads += c.reads
		s.writes += c.writes
		s.bytesOut += c.bytesOut
		s.readWait.merge(&c.readWait)
		s.write.merge(&c.write)
		s.burst.merge(&c.burst)
	}
	return s
}

// burstSpans is one sampled burst's spans, ordered by start.
type burstSpans struct {
	conn  int
	spans []span
}

// bursts returns the spans of every sampled burst that all lanes of
// its connection recorded completely.
func (tr *tracer) bursts() []burstSpans {
	var out []burstSpans
	for _, ct := range tr.conns {
		limit := min(ct.client.fullAt, ct.server.fullAt)
		all := append(append([]span(nil), ct.client.spans[:ct.client.n]...), ct.server.spans[:ct.server.n]...)
		sort.Slice(all, func(i, j int) bool {
			if all[i].burst != all[j].burst {
				return all[i].burst < all[j].burst
			}
			return all[i].start < all[j].start
		})
		for i := 0; i < len(all); {
			j := i
			for j < len(all) && all[j].burst == all[i].burst {
				j++
			}
			g := all[i:j]
			i = j
			if g[0].burst >= limit {
				break
			}
			for _, s := range g {
				if s.parent == spNone {
					out = append(out, burstSpans{conn: ct.idx, spans: g})
					break
				}
			}
		}
	}
	return out
}

// selfTimes returns each layer's self time per op over the sampled
// bursts: a span's duration minus the part of it that its child spans
// cover. It also returns the number of sampled bursts.
func selfTimes(bursts []burstSpans) (map[string]float64, int) {
	self := map[string]float64{}
	var ops float64
	for _, b := range bursts {
		var rs span
		for _, s := range b.spans {
			if s.parent == spNone {
				rs = s
				ops += float64(s.ops)
			}
		}
		for _, s := range b.spans {
			// Clip to the root: a server read blocks from before the
			// burst began.
			s.start, s.end = max(s.start, rs.start), min(s.end, rs.end)
			if s.end <= s.start {
				continue
			}
			root := s.parent == spNone
			// A burst has one root, which parents every span naming it;
			// other parents (server.burst) may repeat within a burst and
			// parent the spans that start inside them.
			var kids []span
			for _, c := range b.spans {
				if c.parent == s.name && (root || c.start >= s.start && c.start < s.end) {
					kids = append(kids, c)
				}
			}
			self[spanLayers[s.name]] += float64(s.end - s.start - covered(s, kids))
		}
	}
	for k := range self {
		if ops > 0 {
			self[k] /= ops
		}
	}
	return self, len(bursts)
}

// covered returns how much of s the union of kids (sorted by start)
// covers.
func covered(s span, kids []span) int64 {
	var total, reach int64 = 0, s.start
	for _, k := range kids {
		lo, hi := max(k.start, reach), min(k.end, s.end)
		if hi > lo {
			total += hi - lo
			reach = hi
		}
	}
	return total
}

// writeSpans writes the sampled bursts' spans as CSV to path.
func writeSpans(path string, bursts []burstSpans) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	w.WriteString("conn,burst,name,parent,start_ns,end_ns,proc\n")
	var line []byte
	for _, b := range bursts {
		for _, s := range b.spans {
			line = strconv.AppendInt(line[:0], int64(b.conn), 10)
			line = append(line, ',')
			line = strconv.AppendUint(line, s.burst, 10)
			line = fmt.Appendf(line, ",%s,%s,", spanNames[s.name], spanNames[s.parent])
			line = strconv.AppendInt(line, s.start, 10)
			line = append(line, ',')
			line = strconv.AppendInt(line, s.end, 10)
			line = append(line, ',')
			line = strconv.AppendInt(line, int64(s.proc), 10)
			line = append(line, '\n')
			w.Write(line)
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
