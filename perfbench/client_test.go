package main

import (
	"bufio"
	"io"
	"net"
	"strconv"
	"strings"
	"testing"
	"time"
)

// fault selects how fakeServer breaks the protocol.
type fault int

const (
	faultNone       fault = iota
	faultWrongKey         // a get answers with the value stored under another key
	faultMissingEnd       // a get hit omits its END line
	faultDropReply        // the fifth request gets no reply at all
)

// fakeServer is a minimal memcached text server for a keyspace of
// fakeKeys keys, with one deliberate fault. It allocates nothing per
// request, so allocation counts taken against it are the client's.
type fakeServer struct {
	fault fault
	vals  [fakeKeys][]byte
	size  int
	n     int // requests answered or dropped
}

const fakeKeys = 64

func (s *fakeServer) serve(c net.Conn) {
	defer c.Close()
	r := bufio.NewReaderSize(c, 64<<10)
	w := bufio.NewWriterSize(c, 64<<10)
	for i := range s.vals {
		s.vals[i] = make([]byte, 0, s.size)
	}
	var num []byte
	for {
		line, err := r.ReadSlice('\n')
		if err != nil {
			return
		}
		s.n++
		drop := s.fault == faultDropReply && s.n == 5
		name := line[4 : 4+keyNameLen]
		k, _ := parseHex(name[1:])
		key := int(k) % fakeKeys
		switch string(line[:3]) {
		case "set":
			v := s.vals[key][:s.size]
			if _, err := io.ReadFull(r, v); err != nil {
				return
			}
			if _, err := r.Discard(2); err != nil {
				return
			}
			s.vals[key] = v
			if !drop {
				w.WriteString("STORED\r\n")
			}
		case "get":
			if drop {
				break
			}
			src := key
			if s.fault == faultWrongKey {
				src = (key + 1) % fakeKeys
			}
			if len(s.vals[src]) > 0 {
				w.WriteString("VALUE ")
				w.Write(name)
				w.WriteString(" 0 ")
				num = strconv.AppendInt(num[:0], int64(s.size), 10)
				w.Write(num)
				w.WriteString("\r\n")
				w.Write(s.vals[src])
				w.WriteString("\r\n")
				if s.fault == faultMissingEnd {
					break
				}
			}
			w.WriteString("END\r\n")
		}
		if r.Buffered() == 0 {
			if err := w.Flush(); err != nil {
				return
			}
		}
	}
}

// script drives c through a populate of every key and then bursts of
// gets and sets over the populated keys.
func script(c *wireClient, bursts int) error {
	ops := make([]op, 16)
	if err := c.populate(fakeKeys, 1, ops); err != nil {
		return err
	}
	gen := opGen{keys: fakeKeys, setPermille: 300}
	gen.rng = 7
	return c.load(&gen, ops, 0, bursts, nil)
}

func TestClientPassesCorrectServer(t *testing.T) {
	srv, cli := net.Pipe()
	defer cli.Close()
	go (&fakeServer{size: 64}).serve(srv)
	c := newWireClient(cli, 0, newLedger(64), 16, true)
	if err := script(c, 50); err != nil {
		t.Fatal(err)
	}
}

// TestClientCatchesWrongServer is the verifier's self-test: each
// deliberately broken server must fail the run.
func TestClientCatchesWrongServer(t *testing.T) {
	for _, tc := range []struct {
		name  string
		fault fault
		want  string
	}{
		{"wrong-key bytes", faultWrongKey, "written under"},
		{"missing END", faultMissingEnd, "want END"},
		{"dropped reply", faultDropReply, "timeout"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			srv, cli := net.Pipe()
			defer cli.Close()
			go (&fakeServer{fault: tc.fault, size: 64}).serve(srv)
			c := newWireClient(cli, 0, newLedger(64), 16, true)
			c.timeout = 200 * time.Millisecond
			err := script(c, 50)
			if err == nil {
				t.Fatal("run against a broken server passed")
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %q does not mention %q", err, tc.want)
			}
		})
	}
}

// TestClientAllocationFree pins the load generator's steady state at
// zero allocations per burst, over a real loopback socket.
func TestClientAllocationFree(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		c, err := ln.Accept()
		if err != nil {
			return
		}
		(&fakeServer{size: 1024}).serve(c)
	}()
	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	c := newWireClient(conn, 0, newLedger(1024), 16, true)
	if err := script(c, 10); err != nil {
		t.Fatal(err)
	}
	gen := opGen{keys: fakeKeys, setPermille: 500}
	gen.rng = 11
	ops := make([]op, 16)
	rec := newRecorder(now(), int64(time.Hour), 1)
	var runErr error
	allocs := testing.AllocsPerRun(200, func() {
		if err := c.load(&gen, ops, 0, 1, rec); err != nil {
			runErr = err
		}
	})
	if runErr != nil {
		t.Fatal(runErr)
	}
	if allocs != 0 {
		t.Fatalf("client allocates %v times per burst, want 0", allocs)
	}
}

func TestLedgerCheck(t *testing.T) {
	l := newLedger(64)
	l.issued[1].Store(5)
	v := l.appendValue(nil, 42, 1, 5)
	if err := l.check(v, 42); err != nil {
		t.Fatalf("valid value rejected: %v", err)
	}
	for name, bad := range map[string][]byte{
		"other key":   l.appendValue(nil, 43, 1, 5),
		"unissued":    l.appendValue(nil, 42, 1, 6),
		"short":       v[:63],
		"flipped":     append(append([]byte(nil), v[:40]...), append([]byte{v[40] ^ 1}, v[41:]...)...),
		"bad writer":  append(append([]byte(nil), v[:10]...), append([]byte{'7'}, v[11:]...)...),
		"bad header":  append([]byte("x"), v[1:]...),
		"seq is zero": l.appendValue(nil, 42, 1, 0),
	} {
		if err := l.check(bad, 42); err == nil {
			t.Errorf("%s: corrupt value accepted", name)
		}
	}
}
