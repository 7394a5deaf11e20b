package server

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"math/rand"
	"net"
	"strings"
	"testing"
	"time"

	"repro/internal/kvstore"
	"repro/internal/numa"
)

// pipeConn serves one connection of srv over net.Pipe as p and returns
// the client end, closed (and the serving loop awaited) on cleanup.
// One client Write reaches the server's reader whole, so a burst
// written at once is exactly one pending burst.
func pipeConn(t *testing.T, srv *Server, p *numa.Proc) net.Conn {
	t.Helper()
	client, serverSide := net.Pipe()
	done := make(chan struct{})
	go func() {
		defer close(done)
		srv.serveConn(serverSide, p)
	}()
	t.Cleanup(func() {
		client.Close()
		<-done
	})
	return client
}

// TestMixedBurstOneFlush pins the ordering contract of a mixed burst:
// every verb lands in one Store.Apply call, ops on the same key apply
// in request order, and the replies come back in request order.
func TestMixedBurstOneFlush(t *testing.T) {
	topo := numa.New(2, 4)
	store := newTestStore(topo, 4, 0)
	srv, err := New(Config{Topo: topo, Store: store})
	if err != nil {
		t.Fatal(err)
	}
	p := topo.Proc(0)
	store.Set(p, HashKey([]byte("a")), encodeValue(nil, 3, []byte("AA")))
	store.Set(p, HashKey([]byte("b")), encodeValue(nil, 0, []byte("BBB")))
	c := pipeConn(t, srv, topo.Proc(1))

	before := srv.Snapshot().Flushes
	exchange(t, c,
		"set k 5 0 2\r\nkv\r\nget k\r\ndelete k\r\nget k\r\ngets a b\r\nset x 0 0 1 noreply\r\nX\r\n",
		"STORED\r\n"+
			"VALUE k 5 2\r\nkv\r\nEND\r\n"+
			"DELETED\r\n"+
			"END\r\n"+
			fmt.Sprintf("VALUE a 3 2 %d\r\nAA\r\n", PseudoCAS([]byte("AA")))+
			fmt.Sprintf("VALUE b 0 3 %d\r\nBBB\r\n", PseudoCAS([]byte("BBB")))+
			"END\r\n")
	if got := srv.Snapshot().Flushes - before; got != 1 {
		t.Errorf("mixed burst cost %d flushes, want 1", got)
	}
	// The noreply set answered nothing but was applied, in order.
	exchange(t, c, "get x\r\n", "VALUE x 0 1\r\nX\r\nEND\r\n")
}

// refEntry is one key's state in the sequential reference model.
type refEntry struct {
	flags uint32
	val   string
}

// TestPipelineMatchesReference drives a long randomized pipeline of
// mixed bursts through one connection and requires every reply to
// match a sequential reference map, byte for byte. The store's batch
// bound is far below the server's, so shard groups span several
// critical sections; the keyspace is small, so bursts revisit keys.
func TestPipelineMatchesReference(t *testing.T) {
	ops := 20_000
	if testing.Short() {
		ops = 2_000
	}
	for _, lock := range []string{"c-bo-mcs", "comb-a-c-bo-mcs", "rw-c-bo-mcs"} {
		for _, vm := range []kvstore.ValueMemory{kvstore.ValueHeap, kvstore.ValueArena} {
			t.Run(fmt.Sprintf("%s/%s/pointer", lock, vm), func(t *testing.T) {
				topo := numa.New(2, 4)
				src, err := kvstore.FromRegistry(topo, lock)
				if err != nil {
					t.Fatal(err)
				}
				store := kvstore.New(kvstore.Config{
					Topo: topo, Locking: src, Shards: 4, MaxBatch: 4,
					Capacity: 1 << 12, ValueMemory: vm, ArenaBytes: 1 << 20,
				})
				srv, err := New(Config{Topo: topo, Store: store, MaxBatch: 64})
				if err != nil {
					t.Fatal(err)
				}
				runReferencePipeline(t, pipeConn(t, srv, topo.Proc(1)), ops, 7)
			})
		}
	}
}

// runReferencePipeline writes random mixed bursts of gets (multi-key,
// with and without cas), sets and deletes (with and without noreply)
// until ops operations have been issued, checking each burst's replies
// against the reference model.
func runReferencePipeline(t *testing.T, c net.Conn, ops int, seed int64) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	ref := map[string]refEntry{}
	key := func() string { return fmt.Sprintf("k%d", rng.Intn(64)) }
	var req, want strings.Builder
	got := make([]byte, 0, 4096)
	for issued, burst := 0, 0; issued < ops; burst++ {
		req.Reset()
		want.Reset()
		for n := 1 + rng.Intn(40); n > 0; n-- {
			switch r := rng.Intn(20); {
			case r < 8:
				cas := rng.Intn(2) == 0
				verb := "get"
				if cas {
					verb = "gets"
				}
				req.WriteString(verb)
				for k := 1 + rng.Intn(3); k > 0; k-- {
					name := key()
					req.WriteString(" " + name)
					issued++
					e, ok := ref[name]
					if !ok {
						continue
					}
					fmt.Fprintf(&want, "VALUE %s %d %d", name, e.flags, len(e.val))
					if cas {
						fmt.Fprintf(&want, " %d", PseudoCAS([]byte(e.val)))
					}
					fmt.Fprintf(&want, "\r\n%s\r\n", e.val)
				}
				req.WriteString("\r\n")
				want.WriteString("END\r\n")
			case r < 15:
				name, e := key(), refEntry{flags: uint32(rng.Intn(4)), val: strings.Repeat(string(rune('a'+rng.Intn(26))), rng.Intn(24))}
				noreply := rng.Intn(4) == 0
				fmt.Fprintf(&req, "set %s %d 0 %d", name, e.flags, len(e.val))
				if noreply {
					req.WriteString(" noreply")
				} else {
					want.WriteString("STORED\r\n")
				}
				fmt.Fprintf(&req, "\r\n%s\r\n", e.val)
				ref[name] = e
				issued++
			default:
				name := key()
				noreply := rng.Intn(4) == 0
				req.WriteString("delete " + name)
				if noreply {
					req.WriteString(" noreply")
				}
				req.WriteString("\r\n")
				if _, ok := ref[name]; !noreply && ok {
					want.WriteString("DELETED\r\n")
				} else if !noreply {
					want.WriteString("NOT_FOUND\r\n")
				}
				delete(ref, name)
				issued++
			}
		}
		c.SetDeadline(time.Now().Add(10 * time.Second))
		if _, err := io.WriteString(c, req.String()); err != nil {
			t.Fatalf("burst %d: write: %v", burst, err)
		}
		got = got[:want.Len()]
		if _, err := io.ReadFull(c, got); err != nil {
			t.Fatalf("burst %d: read: %v (got %q)", burst, err, got)
		}
		if string(got) != want.String() {
			t.Fatalf("burst %d:\nrequest %q\ngot     %q\nwant    %q", burst, req.String(), got, want.String())
		}
	}
}

// TestMixedPipelineAllocationFree pins the wire path's steady state:
// once a connection's buffers have grown, a pipelined mixed burst —
// parse, one Apply through a multi-shard store, replies — allocates
// nothing, under a direct lock and under a combining executor.
func TestMixedPipelineAllocationFree(t *testing.T) {
	burst := []byte("set a 0 0 4\r\nAAAA\r\nget a b\r\ndelete zz\r\nset b 1 0 2 noreply\r\nBB\r\n" +
		"gets a\r\ndelete c noreply\r\nset c 0 0 1 noreply\r\nC\r\nget c\r\n")
	want := []byte("STORED\r\nVALUE a 0 4\r\nAAAA\r\nVALUE b 1 2\r\nBB\r\nEND\r\nNOT_FOUND\r\n" +
		fmt.Sprintf("VALUE a 0 4 %d\r\nAAAA\r\nEND\r\n", PseudoCAS([]byte("AAAA"))) +
		"VALUE c 0 1\r\nC\r\nEND\r\n")
	for _, lock := range []string{"c-bo-mcs", "comb-a-c-bo-mcs"} {
		t.Run(lock, func(t *testing.T) {
			topo := numa.New(2, 4)
			src, err := kvstore.FromRegistry(topo, lock)
			if err != nil {
				t.Fatal(err)
			}
			store := kvstore.New(kvstore.Config{Topo: topo, Locking: src, Shards: 8})
			srv, err := New(Config{Topo: topo, Store: store})
			if err != nil {
				t.Fatal(err)
			}
			addr, serveErr := startServer(t, srv)
			c, err := net.Dial("tcp", addr)
			if err != nil {
				t.Fatal(err)
			}
			exchange(t, c, "set b 1 0 2\r\nBB\r\n", "STORED\r\n")
			c.SetDeadline(time.Now().Add(time.Minute))
			got := make([]byte, len(want))
			bad := 0
			run := func() {
				if _, err := c.Write(burst); err != nil {
					bad++
					return
				}
				if _, err := io.ReadFull(c, got); err != nil || !bytes.Equal(got, want) {
					bad++
				}
			}
			for i := 0; i < 100; i++ {
				run()
			}
			if n := testing.AllocsPerRun(1000, run); n > 0 {
				t.Errorf("mixed burst: %.2f allocs per burst of 11 ops at steady state, want 0", n)
			}
			if bad > 0 {
				t.Fatalf("%d bursts answered wrongly (last reply %q)", bad, got)
			}
			c.Close()
			if err := srv.Shutdown(5 * time.Second); err != nil {
				t.Fatal(err)
			}
			if err := <-serveErr; err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestShedMixedBurst pins shedding on a mixed burst: exactly one
// "SERVER_ERROR busy" per owed reply — one per get request, none for
// noreply ops — and nothing reaches the store.
func TestShedMixedBurst(t *testing.T) {
	topo := numa.New(1, 2)
	store := newTestStore(topo, 2, 0)
	srv, err := New(Config{Topo: topo, Store: store, AdaptiveAdmission: true, BusyThreshold: 2})
	if err != nil {
		t.Fatal(err)
	}
	c := pipeConn(t, srv, topo.Proc(1))
	exchange(t, c, "set a 0 0 2\r\nok\r\n", "STORED\r\n")

	feed(srv, 2*2, shedTicksToEngage)
	if !srv.shedFlag.Load() {
		t.Fatal("shed valve not engaged")
	}
	st0, kv0 := srv.Snapshot(), store.Snapshot()
	exchange(t, c,
		"set b 0 0 2\r\nhi\r\nget a b\r\ndelete a\r\nset c 0 0 1 noreply\r\nC\r\ngets a\r\ndelete a noreply\r\nget a\r\n",
		strings.Repeat("SERVER_ERROR busy\r\n", 5))
	if st := srv.Snapshot(); st.SheddedOps-st0.SheddedOps != 8 || st.Flushes != st0.Flushes {
		t.Fatalf("shed burst: %d ops shed in %d flushes, want 8 in 0", st.SheddedOps-st0.SheddedOps, st.Flushes-st0.Flushes)
	}
	if kv := store.Snapshot(); kv != kv0 {
		t.Fatalf("shed burst touched the store: %+v, was %+v", kv, kv0)
	}

	feed(srv, 1, 1) // below busy: valve closes immediately
	exchange(t, c, "get a b c\r\n", "VALUE a 0 2\r\nok\r\nEND\r\n")
}

// TestSplitGetStaysFramed covers a multi-key get whose destination
// staging passes the memory bound: its keys split across flushes, yet
// the reply is one VALUE block per hit and a single END — and the shed
// valve flipping between the parts never half-answers the request.
func TestSplitGetStaysFramed(t *testing.T) {
	topo := numa.New(1, 2)
	store := newTestStore(topo, 2, 0)
	const valCap = 4 + 16
	srv, err := New(Config{Topo: topo, Store: store, MaxValueBytes: 16, ConnMemoryBytes: 3 * valCap})
	if err != nil {
		t.Fatal(err)
	}
	p := topo.Proc(0)
	var req, want strings.Builder
	req.WriteString("get")
	for i := 0; i < 8; i++ {
		k := fmt.Sprintf("k%d", i)
		store.Set(p, HashKey([]byte(k)), encodeValue(nil, 0, []byte("v"+k)))
		req.WriteString(" " + k)
		fmt.Fprintf(&want, "VALUE %s 0 %d\r\nv%s\r\n", k, len(k)+1, k)
	}
	req.WriteString("\r\n")
	want.WriteString("END\r\n")
	before := srv.Snapshot().Flushes
	exchange(t, pipeConn(t, srv, topo.Proc(1)), req.String(), want.String())
	if got := srv.Snapshot().Flushes - before; got != 3 {
		t.Errorf("8-key get under a 3-get memory bound took %d flushes, want 3", got)
	}

	// The valve flips between the two parts of one split request: the
	// second part follows the first, applied or shed.
	var out bytes.Buffer
	c := srv.newConn(nil, p)
	c.w = bufio.NewWriter(&out)
	for _, tc := range []struct {
		firstShed bool
		want      string
	}{
		{false, "VALUE k0 0 3\r\nvk0\r\nVALUE k1 0 3\r\nvk1\r\nEND\r\n"},
		{true, "SERVER_ERROR busy\r\n"},
	} {
		out.Reset()
		srv.shedFlag.Store(tc.firstShed)
		c.addGet([]byte("k0"), false, false)
		c.flushOps()
		srv.shedFlag.Store(!tc.firstShed)
		c.addGet([]byte("k1"), false, true)
		c.flushOps()
		c.w.Flush()
		if out.String() != tc.want {
			t.Errorf("first part shed=%v: reply %q, want %q", tc.firstShed, out.String(), tc.want)
		}
	}
	srv.shedFlag.Store(false)
}
