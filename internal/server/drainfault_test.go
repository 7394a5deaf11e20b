package server

import (
	"io"
	"net"
	"testing"
	"time"

	"repro/internal/faultnet"
	"repro/internal/numa"
)

// TestDrainWithHalfWrittenFrame extends the PR 7 drain tests with an
// injected fault: a client frozen holding HALF a written frame when
// Shutdown begins. The deadline nudge must wake the server's blocked
// mid-frame read so the drain completes promptly and cleanly — a
// stalled client must not hold the drain to its timeout.
func TestDrainWithHalfWrittenFrame(t *testing.T) {
	topo := numa.New(1, 2)
	store := newTestStore(topo, 1, 0)
	srv, err := New(Config{Topo: topo, Store: store})
	if err != nil {
		t.Fatal(err)
	}
	addr, serveErr := startServer(t, srv)

	raw, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	// Every write fragments: half goes out, then a minute-long gap —
	// the frame is torn exactly mid-payload and stays torn.
	fc := faultnet.Wrap(raw, faultnet.Faults{ShortWrites: 1, FragmentGap: time.Minute})
	defer fc.Close()
	wrote := make(chan struct{})
	go func() {
		defer close(wrote)
		fc.Write([]byte("set stuck 0 0 8\r\npayload!\r\n"))
	}()

	// Wait until the server is demonstrably blocked inside the frame.
	deadline := time.Now().Add(5 * time.Second)
	for srv.Snapshot().Accepted == 0 {
		if time.Now().After(deadline) {
			t.Fatal("half-frame client never admitted")
		}
		time.Sleep(time.Millisecond)
	}
	time.Sleep(50 * time.Millisecond)

	start := time.Now()
	if err := srv.Shutdown(10 * time.Second); err != nil {
		t.Fatalf("Shutdown with half-written frame pending: %v", err)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("drain took %v against a stalled client, want prompt", elapsed)
	}
	if err := <-serveErr; err != nil {
		t.Fatalf("Serve: %v", err)
	}

	// The torn set was never completed, so it must not be in the store
	// — and it must not be classified as a client fault either (the
	// cut happened because WE drained).
	if _, ok := store.Get(topo.Proc(0), HashKey([]byte("stuck")), make([]byte, 64)); ok {
		t.Fatal("half-written set appeared in the store")
	}
	if st := srv.Snapshot(); st.ClientGone != 0 || st.EvictedConns != 0 {
		t.Fatalf("drain cut misclassified as a fault: %+v", st)
	}
	fc.Close() // wake the fragmented writer
	<-wrote
}

// TestAckedWritePreservedAcrossResponseReset lands a reset at the
// exact window the shedding contract worries about: AFTER the store
// call returns, DURING the response write (the server-side schedule
// cuts the connection one byte into "STORED\r\n"). The write must be
// durable — the ack order "store first, answer second" is what makes
// a torn ack safe: the client sees an indeterminate op, never a lie.
func TestAckedWritePreservedAcrossResponseReset(t *testing.T) {
	topo := numa.New(1, 2)
	store := newTestStore(topo, 1, 0)
	srv, err := New(Config{Topo: topo, Store: store})
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	// Server-side injection: the accepted connection dies after its
	// first response byte leaves.
	in := faultnet.NewInjector(faultnet.Faults{ResetAfterWriteBytes: 1})
	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.Serve(in.Listen(ln)) }()

	c, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	c.SetDeadline(time.Now().Add(5 * time.Second))
	if _, err := c.Write([]byte("set durable 0 0 5\r\nhello\r\n")); err != nil {
		t.Fatal(err)
	}
	// The client sees at most one byte of the ack, then the cut.
	got, _ := io.ReadAll(c)
	if len(got) > 1 {
		t.Fatalf("read %q through a 1-byte write bound", got)
	}

	// The acknowledged-order guarantee: the value IS in the store.
	deadline := time.Now().Add(5 * time.Second)
	for {
		if _, ok := store.Get(topo.Proc(0), HashKey([]byte("durable")), make([]byte, 64)); ok {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("write applied before its response was never stored")
		}
		time.Sleep(time.Millisecond)
	}
	if in.Counters().Resets == 0 {
		t.Fatal("injected reset never fired — test proved nothing")
	}
	// The server observed its conn die outside a drain: client-gone,
	// not a protocol error.
	for srv.Snapshot().ClientGone == 0 {
		if time.Now().After(deadline) {
			t.Fatalf("reset not classified: %+v", srv.Snapshot())
		}
		time.Sleep(time.Millisecond)
	}

	if err := srv.Shutdown(5 * time.Second); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	if err := <-serveErr; err != nil {
		t.Fatalf("Serve: %v", err)
	}
}

// TestBrokenDropAckedWrite pins the deliberate defect internal/soak's
// self-test relies on: every fourth set answers STORED but is not
// applied. If this stopped dropping writes, the chaos harness's
// lost-acked-write detector would be validated against nothing.
func TestBrokenDropAckedWrite(t *testing.T) {
	topo := numa.New(1, 2)
	store := newTestStore(topo, 1, 0)
	srv, err := New(Config{Topo: topo, Store: store, Broken: BrokenDropAckedWrite})
	if err != nil {
		t.Fatal(err)
	}
	addr, serveErr := startServer(t, srv)
	c, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	keys := []string{"b1", "b2", "b3", "b4"}
	for _, k := range keys {
		exchange(t, c, "set "+k+" 0 0 2\r\nvv\r\n", "STORED\r\n")
	}
	dropped := 0
	for _, k := range keys {
		if _, ok := store.Get(topo.Proc(0), HashKey([]byte(k)), make([]byte, 64)); !ok {
			dropped++
		}
	}
	if dropped != 1 {
		t.Fatalf("broken server dropped %d of 4 acked sets, want exactly 1", dropped)
	}

	if err := srv.Shutdown(5 * time.Second); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	if err := <-serveErr; err != nil {
		t.Fatalf("Serve: %v", err)
	}
}
