package main

import (
	"errors"
	"fmt"
	"net"
	"runtime"
	"sync"
	"time"

	"repro/internal/kvstore"
	"repro/internal/locks"
	"repro/internal/numa"
	"repro/internal/registry"
	"repro/internal/server"
	"repro/internal/spin"
)

// Load shape shared by every workload: two clusters of one proc each,
// so each cluster's admission pool holds one proc and the two load
// generators (connections or store workers) sit one per cluster. No
// more load-side goroutines than that exist, and every loop is closed.
const (
	numClusters = 2
	numProcs    = 2
	windows     = 10
)

type workload struct {
	name        string
	why         string
	wire        bool // through server.Server on loopback, else Store calls
	lock        string
	shards      int
	keys        int // keyspace; 0 means 4x the store's item capacity
	valueSize   int
	setPermille uint64
	burst       int  // pipelined ops per burst (1: one op at a time)
	populate    bool // write every key in set-up, so every get must hit
	warmOps     int  // ops run after population, before timing
}

var workloads = []workload{
	{
		name: "pipelined-mix",
		why:  "wire decode, flush and response write dominate; 8 shards keep lock contention light, so parser and batching changes show and lock changes should not",
		wire: true, lock: "c-bo-mcs", shards: 8, keys: 20000, valueSize: 64,
		setPermille: 100, burst: 16, populate: true, warmOps: 200_000,
	},
	{
		name: "eviction-churn",
		why:  "set-heavy 1 KiB values over a keyspace 4x the LRU capacity: eviction, value memory and GC dominate, through the combining executor",
		wire: true, lock: "comb-a-c-bo-mcs", shards: 8, valueSize: 1024,
		setPermille: 900, burst: 16, warmOps: 300_000,
	},
	{
		name: "store-contended",
		why:  "two procs in two clusters on one shard lock, no wire: lock handoffs and simulated coherence misses dominate, the paper's Table 1 shape",
		lock: "c-bo-mcs", shards: 1, keys: 20000, valueSize: 64,
		setPermille: 500, burst: 1, populate: true, warmOps: 200_000,
	},
}

func findWorkload(name string) (*workload, error) {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i], nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// options are the run's knobs beyond the workload itself.
type options struct {
	seed    uint64
	part    int // which of the run's parts this process measures
	seconds float64
	// maxBatch overrides server.Config.MaxBatch (0 keeps the default).
	maxBatch int
	// wrapLock, when set, is interposed under every shard lock (or
	// combiner), outside the timing wrapper of a traced run.
	wrapLock func(locks.Mutex) locks.Mutex
}

// lockSource builds the shard locking the registry would for name, with
// wrap interposed between the shard (or its combiner) and the lock.
// Without wrap it is exactly kvstore.FromRegistry.
func lockSource(topo *numa.Topology, name string, wrap func(locks.Mutex) locks.Mutex) (kvstore.LockSource, error) {
	if wrap == nil {
		return kvstore.FromRegistry(topo, name)
	}
	e, err := registry.Find(name)
	if err != nil {
		return nil, err
	}
	switch {
	case e.NewRWExec != nil || e.NewRW != nil:
		return nil, fmt.Errorf("lock %q: reader-writer locks have no timed seam", name)
	case e.WrapExec != nil:
		base, err := registry.Find(e.Base)
		if err != nil {
			return nil, err
		}
		mf := base.MutexFactory(topo)
		return kvstore.FromExec(func() locks.Executor { return e.WrapExec(topo, wrap(mf())) }), nil
	case e.NewMutex != nil:
		mf := e.MutexFactory(topo)
		return kvstore.FromMutex(func() locks.Mutex { return wrap(mf()) }), nil
	}
	return nil, fmt.Errorf("lock %q cannot guard a shard", name)
}

// instance is one built store (and server), populated and warm.
type instance struct {
	w      *workload
	o      options
	tr     *tracer
	topo   *numa.Topology
	store  *kvstore.Store
	srv    *server.Server
	served chan error
	led    *ledger
	keys   int

	clients []*wireClient
	workers []*storeWorker
	gens    []opGen
	ops     [][]op
}

func newInstance(w *workload, o options, tr *tracer) (in *instance, err error) {
	in = &instance{w: w, o: o, tr: tr}
	defer func() {
		if err != nil {
			in.close()
		}
	}()
	in.topo = numa.New(numClusters, numProcs)
	wrap := o.wrapLock
	if tr != nil {
		wrap = func(m locks.Mutex) locks.Mutex {
			m = tr.timed(m)
			if o.wrapLock != nil {
				m = o.wrapLock(m)
			}
			return m
		}
	}
	src, err := lockSource(in.topo, w.lock, wrap)
	if err != nil {
		return in, err
	}
	in.store = kvstore.New(kvstore.Config{Topo: in.topo, Locking: src, Shards: w.shards, Placement: kvstore.HashMod})
	in.keys = w.keys
	if in.keys == 0 {
		in.keys = 4 * in.store.Capacity()
	}
	in.led = newLedger(w.valueSize)
	for i := 0; i < numProcs; i++ {
		in.gens = append(in.gens, opGen{rng: spin.NewXorShift(o.seed<<8 | uint64(o.part)<<2 | uint64(i)), keys: uint64(in.keys), setPermille: w.setPermille})
		in.ops = append(in.ops, make([]op, w.burst))
	}
	if w.wire {
		err = in.startWire()
	} else {
		in.startWorkers()
	}
	if err != nil {
		return in, err
	}
	if w.populate {
		if err := in.each(func(i int) error { return in.populateConn(i) }); err != nil {
			return in, fmt.Errorf("populate: %w", err)
		}
	}
	if n := w.warmOps / numProcs / w.burst; n > 0 {
		if err := in.each(func(i int) error { return in.load(i, 0, n, nil) }); err != nil {
			return in, fmt.Errorf("warm-up: %w", err)
		}
	}
	if w.keys == 0 {
		// A keyspace larger than the store must have filled the LRU.
		if err := in.quiesce(); err != nil {
			return in, err
		}
		if in.store.Snapshot().Evictions == 0 {
			return in, errors.New("warm-up did not fill the LRU")
		}
	}
	runtime.GC()
	return in, nil
}

// startWire serves the store on a loopback listener and connects one
// client per cluster.
func (in *instance) startWire() error {
	srv, err := server.New(server.Config{Topo: in.topo, Store: in.store, MaxBatch: in.o.maxBatch})
	if err != nil {
		return err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	var sl net.Listener = ln
	if in.tr != nil {
		sl = tracedListener{Listener: ln, tr: in.tr}
	}
	in.srv = srv
	in.served = make(chan error, 1)
	go func() { in.served <- srv.Serve(sl) }()
	for i := 0; i < numProcs; i++ {
		before := in.srv.Snapshot().PerClusterAccepted
		conn, err := net.Dial("tcp", ln.Addr().String())
		if err != nil {
			return err
		}
		if in.tr != nil {
			in.tr.register(conn.LocalAddr(), i)
		}
		c := newWireClient(conn, i, in.led, in.w.burst, in.w.populate)
		in.clients = append(in.clients, c)
		cluster, err := in.admittedBy(before)
		if err != nil {
			return err
		}
		if in.tr != nil {
			in.tr.bindProc(procOf(in.topo, cluster), i)
			c.tr = &clientTrace{tr: in.tr, ct: in.tr.conns[i]}
			in.tr.clients = append(in.tr.clients, c.tr)
		}
	}
	return nil
}

// admittedBy waits for the server to admit one more connection than
// before shows and returns the admitting cluster. Each cluster's pool
// holds one proc, so the two connections land in different clusters.
func (in *instance) admittedBy(before []uint64) (int, error) {
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		for c, n := range in.srv.Snapshot().PerClusterAccepted {
			if n > before[c] {
				return c, nil
			}
		}
		time.Sleep(50 * time.Microsecond)
	}
	return 0, errors.New("server did not admit the connection")
}

// procOf returns the proc of a one-proc cluster.
func procOf(topo *numa.Topology, cluster int) int {
	for id := 0; id < topo.MaxProcs(); id++ {
		if topo.ClusterOf(id) == cluster {
			return id
		}
	}
	panic(fmt.Sprintf("cluster %d has no proc", cluster))
}

func (in *instance) startWorkers() {
	for i := 0; i < numProcs; i++ {
		wk := &storeWorker{
			p: in.topo.Proc(i), id: i, store: in.store, led: in.led, mustHit: in.w.populate,
			val: make([]byte, 0, in.w.valueSize), dst: make([]byte, in.w.valueSize),
		}
		if in.tr != nil {
			in.tr.bindProc(i, i)
			wk.tr = in.tr
			wk.ct = in.tr.conns[i]
		}
		in.workers = append(in.workers, wk)
	}
}

// each runs f for every load generator concurrently and joins them.
func (in *instance) each(f func(i int) error) error {
	errs := make([]error, numProcs)
	var wg sync.WaitGroup
	for i := 0; i < numProcs; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			errs[i] = f(i)
		}(i)
	}
	wg.Wait()
	return errors.Join(errs...)
}

func (in *instance) populateConn(i int) error {
	if in.w.wire {
		return in.clients[i].populate(in.keys, numProcs, in.ops[i])
	}
	return in.workers[i].populate(in.keys, numProcs)
}

// load runs generator i: until the clock passes until, or n bursts.
func (in *instance) load(i int, until int64, n int, rec *recorder) error {
	if in.w.wire {
		return in.clients[i].load(&in.gens[i], in.ops[i], until, n, rec)
	}
	return in.workers[i].load(&in.gens[i], until, n, rec)
}

// quiesce returns once the server has folded every op the clients sent
// into its counters. The fold follows the op's store call, so reading
// the server's atomics orders everything the store did before this
// return, and Store.Snapshot is then safe.
func (in *instance) quiesce() error {
	if in.srv == nil {
		return nil // store workers were joined by each
	}
	var sent uint64
	for _, c := range in.clients {
		sent += c.sent
	}
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		st := in.srv.Snapshot()
		if st.Gets+st.Sets+st.Deletes+st.SheddedOps >= sent {
			return nil
		}
		time.Sleep(50 * time.Microsecond)
	}
	return errors.New("server counters never caught up with the ops sent")
}

// close disconnects the clients and drains the server.
func (in *instance) close() error {
	for _, c := range in.clients {
		c.conn.Close()
	}
	if in.srv == nil {
		return nil
	}
	err := in.srv.Shutdown(5 * time.Second)
	if serr := <-in.served; err == nil {
		err = serr
	}
	in.srv = nil
	return err
}

// phase is one measured interval of an instance.
type phase struct {
	rec        *recorder
	seconds    float64
	srv0, srv1 server.Stats
	st0, st1   kvstore.Stats
	ms0, ms1   runtime.MemStats
}

// measure runs the load for seconds and returns what it recorded. The
// instance is closed afterwards, and the final server and store
// counters are read once the server has drained.
func (in *instance) measure(seconds float64) (*phase, error) {
	ph := &phase{seconds: seconds}
	if err := in.quiesce(); err != nil {
		return nil, err
	}
	if in.srv != nil {
		ph.srv0 = in.srv.Snapshot()
	}
	ph.st0 = in.store.Snapshot()
	runtime.ReadMemStats(&ph.ms0)
	dur := int64(seconds * 1e9)
	start := now()
	recs := make([]*recorder, numProcs)
	for i := range recs {
		recs[i] = newRecorder(start, dur/windows, windows)
	}
	if in.tr != nil {
		in.tr.measuring.Store(true)
	}
	err := in.each(func(i int) error { return in.load(i, start+dur, 0, recs[i]) })
	if in.tr != nil {
		in.tr.measuring.Store(false)
	}
	runtime.ReadMemStats(&ph.ms1)
	for _, r := range recs[1:] {
		recs[0].merge(r)
	}
	ph.rec = recs[0]
	srv := in.srv
	if cerr := in.close(); err == nil {
		err = cerr
	}
	if srv != nil {
		ph.srv1 = srv.Snapshot()
	}
	ph.st1 = in.store.Snapshot()
	return ph, err
}

// storeWorker is one in-process load generator calling Store.Get and
// Store.Set one op at a time on its own proc.
type storeWorker struct {
	p        *numa.Proc
	id       int
	store    *kvstore.Store
	led      *ledger
	mustHit  bool
	seq      uint64
	val, dst []byte
	tr       *tracer
	ct       *connTrace
}

func storeKey(k uint32) uint64 { return uint64(k) + 1 }

// do runs one op and sets its latency: the duration of the Store call,
// which ran from t0 to t1.
func (wk *storeWorker) do(o *op) (t0, t1 int64, err error) {
	if o.set {
		wk.seq++
		o.seq = wk.seq
		wk.val = wk.led.appendValue(wk.val[:0], o.key, wk.id, o.seq)
		wk.led.issued[wk.id].Store(wk.seq)
		t0 = now()
		wk.store.Set(wk.p, storeKey(o.key), wk.val)
		t1 = now()
	} else {
		t0 = now()
		n, ok := wk.store.Get(wk.p, storeKey(o.key), wk.dst)
		t1 = now()
		switch {
		case !ok && wk.mustHit:
			return t0, t1, fmt.Errorf("get k%08x: miss on a resident key", o.key)
		case ok:
			if err := wk.led.check(wk.dst[:n], o.key); err != nil {
				return t0, t1, fmt.Errorf("get: %w", err)
			}
		}
	}
	o.lat = t1 - t0
	return t0, t1, nil
}

// load runs ops drawn from gen until the clock passes until (when
// until > 0) or n ops have run (when n > 0), recording into rec when it
// is non-nil. Traced, each op is a burst of one: a loadgen.op root span
// around a kvstore.call span.
func (wk *storeWorker) load(gen *opGen, until int64, n int, rec *recorder) error {
	ops := make([]op, 1)
	for i := 0; n <= 0 || i < n; i++ {
		start := now()
		if until > 0 && start >= until {
			return nil
		}
		var id uint64
		if wk.ct != nil {
			id = wk.ct.burst.Add(1)
		}
		gen.next(&ops[0])
		rec.attempt(1)
		t0, t1, err := wk.do(&ops[0])
		if err != nil {
			rec.fail(1)
			return err
		}
		end := now()
		rec.complete(ops, end)
		if wk.ct != nil && id%sampleEvery == 0 && wk.tr.measuring.Load() {
			wk.ct.client.add(span{start: t0, end: t1, burst: id, name: spStoreCall, parent: spOp, proc: int8(wk.p.ID())})
			wk.ct.client.add(span{start: start, end: end, burst: id, name: spOp, parent: spNone, proc: -1, ops: 1})
		}
	}
	return nil
}

func (wk *storeWorker) populate(keys, stride int) error {
	for k := wk.id; k < keys; k += stride {
		o := op{key: uint32(k), set: true}
		if _, _, err := wk.do(&o); err != nil {
			return err
		}
	}
	return nil
}
