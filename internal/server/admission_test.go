package server

import (
	"bufio"
	"io"
	"net"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/numa"
)

// feed replays an occupancy sequence through noteOccupancy — the
// sampler's test seam — driving the hysteresis deterministically.
func feed(s *Server, occ, ticks int) {
	for i := 0; i < ticks; i++ {
		s.noteOccupancy(occ)
	}
}

// TestAdmissionHysteresis replays occupancy sequences against a
// non-serving server and pins the whole escalation ladder: shrink
// needs sustained overload (a burst interrupted by one in-band sample
// does nothing), shrinks are multiplicative and withhold idle procs
// from the pool, shedding arms only after its longer window at the
// higher threshold, clears the moment pressure drops below busy, and
// recovery is additive on the slower under-watermark window.
func TestAdmissionHysteresis(t *testing.T) {
	topo := numa.New(1, 4)
	srv, err := New(Config{
		Topo:              topo,
		Store:             newTestStore(topo, 1, 0),
		AdaptiveAdmission: true,
		BusyThreshold:     4,
	})
	if err != nil {
		t.Fatal(err)
	}
	pool := srv.pools[0]
	capNow := func() int { cur, _ := srv.admissionCaps(); return cur }

	// Three over-ticks then one in-band sample: the burst was not
	// sustained, nothing shrinks.
	feed(srv, 4, overTicksToShrink-1)
	feed(srv, 3, 1) // between busy/2 and busy: resets both counters
	if got := capNow(); got != 4 {
		t.Fatalf("cap = %d after interrupted burst, want 4", got)
	}

	// A full over window halves the cap and withholds idle procs.
	feed(srv, 4, overTicksToShrink)
	if got := capNow(); got != 2 {
		t.Fatalf("cap = %d after sustained overload, want 2", got)
	}
	if len(pool) != 2 {
		t.Fatalf("pool holds %d procs at cap 2, want 2 withheld", len(pool))
	}

	// Acute overload: the first shrink window fires before the shed
	// window (4 < 8 ticks) — admission demonstrably shrinks first.
	feed(srv, 2*4, shedTicksToEngage/2)
	if srv.shedFlag.Load() {
		t.Fatal("shed valve engaged before its full window")
	}
	if got := capNow(); got != 1 {
		t.Fatalf("cap = %d mid-acute-overload, want floor 1", got)
	}
	feed(srv, 2*4, shedTicksToEngage/2)
	if !srv.shedFlag.Load() {
		t.Fatal("shed valve not engaged after its full window")
	}

	// One sample below busy closes the shed valve immediately...
	feed(srv, 3, 1)
	if srv.shedFlag.Load() {
		t.Fatal("shed valve still engaged below BusyThreshold")
	}
	// ...but the cap recovers only through the slow additive path.
	if got := capNow(); got != 1 {
		t.Fatalf("cap = %d right after clearance, want still 1", got)
	}
	feed(srv, 1, underTicksToGrow)
	if got := capNow(); got != 2 {
		t.Fatalf("cap = %d after one grow window, want 2", got)
	}
	feed(srv, 1, 2*underTicksToGrow)
	if got := capNow(); got != 4 {
		t.Fatalf("cap = %d after full recovery, want 4", got)
	}
	if len(pool) != 4 {
		t.Fatalf("pool holds %d procs after recovery, want all 4 returned", len(pool))
	}

	st := srv.Snapshot()
	if st.AdmissionCap != 4 || st.AdmissionCapFull != 4 || st.AdmissionCapLow != 1 {
		t.Fatalf("cap stats = %d/%d/low %d, want 4/4/low 1",
			st.AdmissionCap, st.AdmissionCapFull, st.AdmissionCapLow)
	}
}

// TestAdmissionShrinkBlocksNewClients is the structural half end to
// end: after a shrink, a closing connection's proc parks in the held
// set instead of re-arming the accept loop, so the next client waits
// in the listen backlog until recovery returns the proc. (One unit of
// slack is inherent: the accept loop holds a proc in hand while
// blocked in Accept, so the first post-shrink dial still lands.)
func TestAdmissionShrinkBlocksNewClients(t *testing.T) {
	topo := numa.New(1, 2)
	srv, err := New(Config{
		Topo:              topo,
		Store:             newTestStore(topo, 1, 0),
		AdaptiveAdmission: true,
		BusyThreshold:     2,
	})
	if err != nil {
		t.Fatal(err)
	}
	addr, serveErr := startServer(t, srv)

	c1, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c1.Close()
	exchange(t, c1, "version\r\n", "VERSION "+DefaultVersion+"\r\n")

	feed(srv, 2, overTicksToShrink) // cap 2 -> 1
	if cur, _ := srv.admissionCaps(); cur != 1 {
		t.Fatalf("cap = %d, want 1", cur)
	}

	// The accept loop's in-hand proc admits one more connection; when
	// it closes, the proc must park (cluster over cap), not recycle.
	c2, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	exchange(t, c2, "version\r\n", "VERSION "+DefaultVersion+"\r\n")
	c2.Close()
	deadline := time.Now().Add(5 * time.Second)
	for srv.Snapshot().Active > 1 {
		if time.Now().After(deadline) {
			t.Fatal("second connection never released")
		}
		time.Sleep(time.Millisecond)
	}

	c3, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c3.Close()
	if _, err := c3.Write([]byte("version\r\n")); err != nil {
		t.Fatal(err)
	}
	c3.SetReadDeadline(time.Now().Add(150 * time.Millisecond))
	if n, err := c3.Read(make([]byte, 1)); err == nil {
		t.Fatalf("third connection served (%d bytes) while shrunk to cap 1", n)
	}

	// Recovery returns the held proc and the waiting client is served.
	feed(srv, 0, underTicksToGrow)
	c3.SetReadDeadline(time.Now().Add(5 * time.Second))
	want := "VERSION " + DefaultVersion + "\r\n"
	got := make([]byte, len(want))
	if _, err := io.ReadFull(c3, got); err != nil || string(got) != want {
		t.Fatalf("after recovery: %q, %v", got, err)
	}

	if err := srv.Shutdown(5 * time.Second); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	if err := <-serveErr; err != nil {
		t.Fatalf("Serve: %v", err)
	}
	if st := srv.Snapshot(); st.AdmissionCapLow != 1 || st.AdmissionCap != 2 {
		t.Fatalf("cap stats after recovery: %+v", st)
	}
}

// TestSheddingEndToEnd drives the shed valve over a live connection
// and pins the contract: a shed op answers "SERVER_ERROR busy" (frame
// intact, responses keep lining up with requests), is NEVER applied to
// the store (refused means refused — no acknowledged-then-dropped
// write can exist), and service resumes as soon as pressure clears.
func TestSheddingEndToEnd(t *testing.T) {
	topo := numa.New(1, 2)
	store := newTestStore(topo, 1, 0)
	srv, err := New(Config{
		Topo:              topo,
		Store:             store,
		AdaptiveAdmission: true,
		BusyThreshold:     2,
	})
	if err != nil {
		t.Fatal(err)
	}
	addr, serveErr := startServer(t, srv)
	c, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	exchange(t, c, "set a 0 0 2\r\nok\r\n", "STORED\r\n")

	feed(srv, 2*2, shedTicksToEngage)
	if !srv.shedFlag.Load() {
		t.Fatal("shed valve not engaged")
	}
	exchange(t, c, "set b 0 0 2\r\nhi\r\n", "SERVER_ERROR busy\r\n")
	exchange(t, c, "get a\r\n", "SERVER_ERROR busy\r\n")
	exchange(t, c, "delete a\r\n", "SERVER_ERROR busy\r\n")
	if _, ok := store.Get(topo.Proc(0), HashKey([]byte("b")), make([]byte, 64)); ok {
		t.Fatal("shed set was applied to the store")
	}

	feed(srv, 1, 1) // below busy: valve closes immediately
	exchange(t, c, "set b 0 0 2\r\nhi\r\n", "STORED\r\n")
	exchange(t, c, "get a\r\n", "VALUE a 0 2\r\nok\r\nEND\r\n")

	if err := srv.Shutdown(5 * time.Second); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	if err := <-serveErr; err != nil {
		t.Fatalf("Serve: %v", err)
	}
	st := srv.Snapshot()
	if st.SheddedOps != 3 {
		t.Fatalf("SheddedOps = %d, want 3", st.SheddedOps)
	}
	// The delete was shed, so "a" must still be present — refused ops
	// leave no trace of any kind.
	if _, ok := store.Get(topo.Proc(0), HashKey([]byte("a")), make([]byte, 64)); !ok {
		t.Fatal("shed delete was applied to the store")
	}
}

// TestShedAtCapFloor pins the floor rule: once the cap has shrunk to
// its floor, occupancy can never reach shedMultiplier*BusyThreshold —
// the shrink itself bounds how many clients can crowd the combiner —
// so plain BusyThreshold pressure at the floor counts as acute (the
// overload admission cannot absorb). Without this the gentle valve
// would starve the acute one and shedding could never engage.
func TestShedAtCapFloor(t *testing.T) {
	topo := numa.New(1, 4)
	srv, err := New(Config{
		Topo:              topo,
		Store:             newTestStore(topo, 1, 0),
		AdaptiveAdmission: true,
		BusyThreshold:     4,
	})
	if err != nil {
		t.Fatal(err)
	}
	capNow := func() int { cur, _ := srv.admissionCaps(); return cur }

	// Sustained busy (never acute) walks the cap down to its floor.
	feed(srv, 4, 2*overTicksToShrink)
	if got := capNow(); got != 1 {
		t.Fatalf("cap = %d after two shrink windows, want floor 1", got)
	}
	if srv.shedFlag.Load() {
		t.Fatal("shed valve engaged by plain busy pressure above the floor")
	}

	// At the floor the same pressure becomes acute: the shed window
	// starts counting even though occ never reaches 2*BusyThreshold.
	feed(srv, 4, shedTicksToEngage-1)
	if srv.shedFlag.Load() {
		t.Fatal("shed valve engaged before its full window at the floor")
	}
	feed(srv, 4, 1)
	if !srv.shedFlag.Load() {
		t.Fatal("shed valve not engaged by sustained floor-level overload")
	}
	feed(srv, 3, 1)
	if srv.shedFlag.Load() {
		t.Fatal("shed valve still engaged below BusyThreshold")
	}
}

// TestShedCounterDecays pins the decay: calm samples decay the shed
// counter by one instead of resetting it, so an acute overload with a
// high duty cycle still accumulates to the window. A reset-to-zero
// counter would let a single in-band sample erase the whole history
// and shedding would never engage against bursty pressure.
func TestShedCounterDecays(t *testing.T) {
	topo := numa.New(1, 4)
	srv, err := New(Config{
		Topo:              topo,
		Store:             newTestStore(topo, 1, 0),
		AdaptiveAdmission: true,
		BusyThreshold:     4,
	})
	if err != nil {
		t.Fatal(err)
	}
	// Two acute ticks then one calm: net +1 per round. Six rounds keep
	// the counter under the window (peak 7 mid-round)...
	for i := 0; i < 6; i++ {
		feed(srv, 2*4, 2)
		feed(srv, 3, 1)
	}
	if srv.shedFlag.Load() {
		t.Fatal("shed valve engaged before the decayed counter reached its window")
	}
	// ...and the next burst pushes it over.
	feed(srv, 2*4, 2)
	if !srv.shedFlag.Load() {
		t.Fatal("bursty acute overload never accumulated to the shed window")
	}
}

// readStats issues the stats command and parses the STAT dump.
func readStats(t *testing.T, c net.Conn) map[string]int64 {
	t.Helper()
	c.SetDeadline(time.Now().Add(5 * time.Second))
	if _, err := c.Write([]byte("stats\r\n")); err != nil {
		t.Fatal(err)
	}
	rd := bufio.NewReader(c)
	out := make(map[string]int64)
	for {
		line, err := rd.ReadString('\n')
		if err != nil {
			t.Fatalf("reading stats: %v", err)
		}
		line = strings.TrimSuffix(line, "\r\n")
		if line == "END" {
			return out
		}
		f := strings.Fields(line)
		if len(f) != 3 || f[0] != "STAT" {
			t.Fatalf("malformed stats line %q", line)
		}
		v, err := strconv.ParseInt(f[2], 10, 64)
		if err != nil {
			t.Fatalf("stats line %q: %v", line, err)
		}
		out[f[1]] = v
	}
}

// TestStatsCommand pins the wire-visible stats dump — the face of
// Snapshot a chaos client watches for hysteresis — including that the
// issuing connection's own unfolded traffic is in the numbers.
func TestStatsCommand(t *testing.T) {
	topo := numa.New(1, 2)
	srv, err := New(Config{Topo: topo, Store: newTestStore(topo, 1, 0)})
	if err != nil {
		t.Fatal(err)
	}
	addr, serveErr := startServer(t, srv)
	c, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	exchange(t, c, "set s 0 0 2\r\nok\r\n", "STORED\r\n")
	st := readStats(t, c)
	want := map[string]int64{
		"accepted":           1,
		"active":             1,
		"sets":               1,
		"shedded_ops":        0,
		"evicted_conns":      0,
		"client_gone":        0,
		"admission_cap":      2,
		"admission_cap_full": 2,
		"admission_cap_low":  2,
		"max_occupancy":      -1, // pthread store: no estimator
	}
	for k, v := range want {
		got, ok := st[k]
		if !ok {
			t.Fatalf("stats dump missing %q: %v", k, st)
		}
		if got != v {
			t.Fatalf("stats[%q] = %d, want %d (dump %v)", k, got, v, st)
		}
	}

	if err := srv.Shutdown(5 * time.Second); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	if err := <-serveErr; err != nil {
		t.Fatalf("Serve: %v", err)
	}
}

// TestDisconnectClassification pins the fault taxonomy: a client
// vanishing mid-payload is ClientGone (network/client fault), an idle
// client cut by the read deadline is EvictedConns (the server's
// choice), a clean close is neither, and none of them are
// BadRequests (reserved for well-delivered, malformed frames).
func TestDisconnectClassification(t *testing.T) {
	topo := numa.New(1, 4)
	srv, err := New(Config{
		Topo:        topo,
		Store:       newTestStore(topo, 1, 0),
		ReadTimeout: 100 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	addr, serveErr := startServer(t, srv)

	waitFor := func(what string, pred func(Stats) bool) {
		t.Helper()
		deadline := time.Now().Add(5 * time.Second)
		for !pred(srv.Snapshot()) {
			if time.Now().After(deadline) {
				t.Fatalf("%s never observed: %+v", what, srv.Snapshot())
			}
			time.Sleep(2 * time.Millisecond)
		}
	}

	// Mid-payload disconnect: 3 of a declared 10 bytes, then gone.
	gone, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := gone.Write([]byte("set k 0 0 10\r\nabc")); err != nil {
		t.Fatal(err)
	}
	gone.Close()
	waitFor("ClientGone", func(st Stats) bool { return st.ClientGone == 1 })

	// Idle past the read deadline: evicted.
	idle, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer idle.Close()
	waitFor("EvictedConns", func(st Stats) bool { return st.EvictedConns == 1 })

	// Clean close after a served request: no fault of any kind.
	clean, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	exchange(t, clean, "version\r\n", "VERSION "+DefaultVersion+"\r\n")
	clean.Close()
	waitFor("clean close", func(st Stats) bool { return st.Active == 0 })

	if err := srv.Shutdown(5 * time.Second); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	if err := <-serveErr; err != nil {
		t.Fatalf("Serve: %v", err)
	}
	st := srv.Snapshot()
	if st.ClientGone != 1 || st.EvictedConns != 1 || st.BadRequests != 0 {
		t.Fatalf("classification: %+v", st)
	}
}
