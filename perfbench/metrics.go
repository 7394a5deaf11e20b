package main

import (
	"runtime"

	"repro/internal/spin"
)

// metricDef names a reported metric; BENCHMARK.json lists the same
// names, units and directions.
type metricDef struct{ name, unit, better string }

// endToEnd are reported by untraced runs: what a user of the server or
// store sees.
var endToEnd = []metricDef{
	{"ops_per_s", "1/s", "higher"},
	{"get_p50_us", "us", "lower"},
	{"get_p99_us", "us", "lower"},
	{"set_p50_us", "us", "lower"},
	{"set_p99_us", "us", "lower"},
	{"mem_per_user_byte", "B/B", "lower"},
	{"setup_s", "s", "lower"},
}

// unbounded are end-to-end figures an untraced run prints after the
// metrics but keeps out of its result: each reads 0, or nearly, on some
// workload (no op fails; the store allocates nothing), and a share of a
// zero median cannot bound a regression. failed_frac is also the
// result's failed over attempted; allocs_per_op is also the per-layer
// runtime.allocs_per_op.
var unbounded = []metricDef{
	{"failed_frac", "frac", "lower"},
	{"allocs_per_op", "allocs/op", "lower"},
}

// perLayer are reported by traced runs, named by module. A metric of a
// layer the workload does not pass through reads 0 (locks.max_occupancy
// reads -1, as the server reports it, when no lock estimates occupancy).
var perLayer = []metricDef{
	{"loadgen.encode_ns_per_op", "ns", "lower"},
	{"loadgen.decode_ns_per_op", "ns", "lower"},
	{"net.reads_per_op", "count", "lower"},
	{"net.writes_per_op", "count", "lower"},
	{"net.bytes_out_per_op", "B", "lower"},
	{"net.write_us_p50", "us", "lower"},
	{"net.write_us_p99", "us", "lower"},
	{"net.read_wait_us_p50", "us", "lower"},
	{"server.ops_per_flush", "count", "higher"},
	{"server.burst_us_p50", "us", "lower"},
	{"server.burst_us_p99", "us", "lower"},
	{"server.bad_requests", "count", "lower"},
	{"server.shedded_ops", "count", "lower"},
	{"server.evicted_conns", "count", "lower"},
	{"server.client_gone", "count", "lower"},
	{"kvstore.hit_rate", "frac", "higher"},
	{"kvstore.evictions_per_set", "count", "lower"},
	{"kvstore.meta_misses_per_op", "count", "lower"},
	{"kvstore.get_us_p50", "us", "lower"},
	{"kvstore.get_us_p99", "us", "lower"},
	{"kvstore.set_us_p50", "us", "lower"},
	{"kvstore.set_us_p99", "us", "lower"},
	{"locks.acq_per_op", "count", "lower"},
	{"locks.wait_ns_p50", "ns", "lower"},
	{"locks.wait_ns_p99", "ns", "lower"},
	{"locks.hold_ns_p50", "ns", "lower"},
	{"locks.hold_ns_p99", "ns", "lower"},
	{"locks.migrations_per_acq", "count", "lower"},
	{"locks.local_streak_mean", "count", "higher"},
	{"locks.max_occupancy", "count", "lower"},
	{"runtime.allocs_per_op", "allocs/op", "lower"},
	{"runtime.gc_cycles_per_s", "1/s", "lower"},
	{"runtime.gc_pause_ms_per_s", "ms/s", "lower"},
	{"runtime.heap_inuse_mb", "MiB", "lower"},
	{"spin.units_per_us", "1/us", "higher"},
	{"self.loadgen_ns_per_op", "ns", "lower"},
	{"self.transit_ns_per_op", "ns", "lower"},
	{"self.net_ns_per_op", "ns", "lower"},
	{"self.server_ns_per_op", "ns", "lower"},
	{"self.kvstore_ns_per_op", "ns", "lower"},
	{"self.locks_ns_per_op", "ns", "lower"},
	{"trace.overhead_frac", "frac", "lower"},
	{"trace.sampled_bursts", "count", "higher"},
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// endToEndMetrics computes the untraced run's metrics. liveHeap is the
// heap in use after the final forced GC, liveBytes the user bytes of
// the values the store still holds.
func endToEndMetrics(ph *phase, setupS float64, liveHeap, liveBytes uint64) map[string]float64 {
	r := ph.rec
	return map[string]float64{
		"ops_per_s":         r.opsPerSec(),
		"get_p50_us":        latencyUs(r.get, 0.50),
		"get_p99_us":        latencyUs(r.get, 0.99),
		"set_p50_us":        latencyUs(r.set, 0.50),
		"set_p99_us":        latencyUs(r.set, 0.99),
		"mem_per_user_byte": ratio(float64(liveHeap), float64(liveBytes)),
		"setup_s":           setupS,
	}
}

// allocsPerOp is process mallocs per completed op. The load generator
// allocates nothing in steady state, so this counts the server and the
// store.
func allocsPerOp(ph *phase) float64 {
	return ratio(float64(ph.ms1.Mallocs-ph.ms0.Mallocs), float64(ph.rec.totalOps()))
}

// layerMetrics computes the traced run's metrics from its traced phase
// tp and tracer, and the untraced phase up of the same invocation.
func layerMetrics(w *workload, up, tp *phase, tr *tracer) map[string]float64 {
	m := map[string]float64{}
	d := func(a, b uint64) float64 { return float64(b - a) }
	st0, st1 := tp.st0, tp.st1
	ops := d(st0.Gets+st0.Sets, st1.Gets+st1.Sets) // ops applied to the store

	var enc, dec, cops float64
	for _, c := range tr.clients {
		enc += float64(c.encodeNs)
		dec += float64(c.decodeNs)
		cops += float64(c.ops)
	}
	m["loadgen.encode_ns_per_op"] = ratio(enc, cops)
	m["loadgen.decode_ns_per_op"] = ratio(dec, cops)

	ns := tr.netStats()
	m["net.reads_per_op"] = ratio(float64(ns.reads), ops)
	m["net.writes_per_op"] = ratio(float64(ns.writes), ops)
	m["net.bytes_out_per_op"] = ratio(float64(ns.bytesOut), ops)
	m["net.write_us_p50"] = ns.write.quantile(0.50) / 1e3
	m["net.write_us_p99"] = ns.write.quantile(0.99) / 1e3
	m["net.read_wait_us_p50"] = ns.readWait.quantile(0.50) / 1e3

	s0, s1 := tp.srv0, tp.srv1
	m["server.ops_per_flush"] = ratio(d(s0.Gets+s0.Sets+s0.Deletes, s1.Gets+s1.Sets+s1.Deletes), d(s0.Flushes, s1.Flushes))
	m["server.burst_us_p50"] = ns.burst.quantile(0.50) / 1e3
	m["server.burst_us_p99"] = ns.burst.quantile(0.99) / 1e3
	m["server.bad_requests"] = d(s0.BadRequests, s1.BadRequests)
	m["server.shedded_ops"] = d(s0.SheddedOps, s1.SheddedOps)
	m["server.evicted_conns"] = d(s0.EvictedConns, s1.EvictedConns)
	m["server.client_gone"] = d(s0.ClientGone, s1.ClientGone)
	m["locks.max_occupancy"] = -1
	if w.wire {
		m["locks.max_occupancy"] = float64(s1.MaxOccupancy)
	}

	m["kvstore.hit_rate"] = ratio(d(st0.Hits, st1.Hits), d(st0.Gets, st1.Gets))
	m["kvstore.evictions_per_set"] = ratio(d(st0.Evictions, st1.Evictions), d(st0.Sets, st1.Sets))
	m["kvstore.meta_misses_per_op"] = ratio(d(st0.MetaMisses, st1.MetaMisses), ops)
	if !w.wire {
		// In-process, the op latency is the Store call itself.
		m["kvstore.get_us_p50"] = latencyUs(tp.rec.get, 0.50)
		m["kvstore.get_us_p99"] = latencyUs(tp.rec.get, 0.99)
		m["kvstore.set_us_p50"] = latencyUs(tp.rec.set, 0.50)
		m["kvstore.set_us_p99"] = latencyUs(tp.rec.set, 0.99)
	} else {
		for _, k := range []string{"kvstore.get_us_p50", "kvstore.get_us_p99", "kvstore.set_us_p50", "kvstore.set_us_p99"} {
			m[k] = 0
		}
	}

	ls := tr.lockStats()
	m["locks.acq_per_op"] = ratio(float64(ls.acq), ops)
	m["locks.wait_ns_p50"] = ls.wait.quantile(0.50)
	m["locks.wait_ns_p99"] = ls.wait.quantile(0.99)
	m["locks.hold_ns_p50"] = ls.hold.quantile(0.50)
	m["locks.hold_ns_p99"] = ls.hold.quantile(0.99)
	m["locks.migrations_per_acq"] = ratio(float64(ls.migrations), float64(ls.acq))
	m["locks.local_streak_mean"] = ratio(float64(ls.acq), float64(ls.streaks))

	// The runtime's own figures come from the untraced phase, so the
	// tracer's span buffers do not count.
	m["runtime.allocs_per_op"] = allocsPerOp(up)
	m["runtime.gc_cycles_per_s"] = float64(up.ms1.NumGC-up.ms0.NumGC) / up.seconds
	m["runtime.gc_pause_ms_per_s"] = float64(up.ms1.PauseTotalNs-up.ms0.PauseTotalNs) / 1e6 / up.seconds
	m["runtime.heap_inuse_mb"] = float64(up.ms1.HeapInuse) / (1 << 20)
	m["spin.units_per_us"] = float64(spin.UnitsPerMicro())

	self, sampled := selfTimes(tr.bursts())
	for _, l := range selfLayers {
		m["self."+l+"_ns_per_op"] = self[l]
	}
	m["trace.sampled_bursts"] = float64(sampled)
	m["trace.overhead_frac"] = 1 - ratio(tp.rec.opsPerSec(), up.rec.opsPerSec())
	return m
}

// env describes where a result was measured.
func env(seed uint64, part int) map[string]any {
	e := map[string]any{
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go":         runtime.Version(),
		"seed":       seed,
		"commit":     commit(),
	}
	if part >= 0 {
		e["part"] = part
		e["spin.units_per_us"] = spin.UnitsPerMicro()
	}
	return e
}
