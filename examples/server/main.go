// Server: the wire-protocol front-end end to end, in one process. A
// kvserver-shaped TCP server — sharded store under a cohort lock,
// cluster-pinned accept loops, pipelined memcached text protocol — is
// started on a loopback port, driven by a scripted client whose
// pipelined burst is answered in request order, and drained
// gracefully.
//
// The exhibit to notice: the server's stats report far fewer store
// flushes than operations. Pipelined requests, verbs mixed, collect
// per connection into one ordered op list that flushes through one
// Store.Apply call in MaxBatch-bounded critical sections, so a burst
// of N ops costs ceil(N/MaxBatch) shard acquisitions — the same
// amortization kvbench's -batch tables measure, now arriving over a
// socket.
//
// Run with:
//
//	go run ./examples/server
package main

import (
	"bufio"
	"fmt"
	"net"
	"strings"
	"time"

	"repro/internal/kvstore"
	"repro/internal/numa"
	"repro/internal/server"
)

func main() {
	topo := numa.New(2, 8)
	locking, err := kvstore.FromRegistry(topo, "c-bo-mcs")
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	store := kvstore.New(kvstore.Config{
		Topo:      topo,
		Locking:   locking,
		Shards:    4,
		Placement: kvstore.ClusterAffine,
	})
	srv, err := server.New(server.Config{Topo: topo, Store: store})
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	serveDone := make(chan error, 1)
	go func() { serveDone <- srv.Serve(ln) }()

	c, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	c.SetDeadline(time.Now().Add(10 * time.Second))
	rd := bufio.NewReader(c)

	// A scripted session, then one pipelined burst in a single write.
	fmt.Println("scripted session:")
	for _, req := range []string{
		"set lang 0 0 2\r\ngo\r\n",
		"get lang\r\n",
		"delete lang\r\n",
		"get lang\r\n",
	} {
		fmt.Printf("  >> %q\n", req)
		c.Write([]byte(req))
		for {
			line, err := rd.ReadString('\n')
			if err != nil {
				fmt.Println("error:", err)
				return
			}
			fmt.Printf("  << %q\n", line)
			l := strings.TrimRight(line, "\r\n")
			if l == "STORED" || l == "END" || l == "DELETED" || l == "NOT_FOUND" {
				break
			}
		}
	}

	const burst = 256
	var b strings.Builder
	for i := 0; i < burst; i++ {
		fmt.Fprintf(&b, "set key%03d 0 0 5\r\nhello\r\n", i)
	}
	c.Write([]byte(b.String()))
	for i := 0; i < burst; i++ {
		if _, err := rd.ReadString('\n'); err != nil {
			fmt.Println("error:", err)
			return
		}
	}

	c.Write([]byte("quit\r\n"))
	if err := srv.Shutdown(5 * time.Second); err != nil {
		fmt.Println("error:", err)
		return
	}
	if err := <-serveDone; err != nil {
		fmt.Println("error:", err)
		return
	}

	st := srv.Snapshot()
	fmt.Printf("\npipelined burst: %d sets arrived in one write\n", burst)
	fmt.Printf("server stats: %d ops in %d store flushes (%.1f ops per flush; MaxBatch %d)\n",
		st.Gets+st.Sets+st.Deletes, st.Flushes,
		float64(st.Gets+st.Sets+st.Deletes)/float64(st.Flushes), store.MaxBatch())
	fmt.Println("\nThe decode loop batches pipelined requests into MaxBatch-bounded")
	fmt.Println("critical sections, so a same-shard burst of N ops costs")
	fmt.Println("ceil(N/MaxBatch) acquisitions — socket-facing flat combining.")
}
