package main

import (
	"bytes"
	"errors"
	"fmt"
	"net"
	"strconv"
	"time"

	"repro/internal/spin"
)

// op is one operation of a burst and, once the burst completes, its
// outcome.
type op struct {
	key     uint32
	set     bool
	seq     uint64 // writer sequence of a set
	lat     int64  // ns from the burst's write to the op's reply
	refused bool   // answered SERVER_ERROR: counted failed, not wrong
}

// opGen draws a connection's operations from its own seeded stream.
type opGen struct {
	rng         spin.XorShift
	keys        uint64
	setPermille uint64
}

func (g *opGen) next(o *op) {
	o.key = uint32(g.rng.Next() % g.keys)
	o.set = g.rng.Next()%1000 < g.setPermille
}

// wireClient is one closed-loop connection of the load generator: it
// writes a burst of pipelined memcached text requests in one Write,
// then reads until every reply of the burst has arrived, checking each
// byte for byte. It allocates nothing in steady state.
type wireClient struct {
	conn    net.Conn
	id      int // connection index, also the writer id in values
	led     *ledger
	mustHit bool // every get targets a resident key, so a miss is wrong
	timeout time.Duration
	seq     uint64

	wbuf       []byte
	rbuf       []byte
	rpos, rend int
	name       []byte
	setHdr     []byte // " 0 0 <size>\r\n", the tail of a set line
	valHdr     []byte // " 0 <size>", the tail of a VALUE line
	lastRead   int64  // when the latest Read returned
	sent       uint64 // ops whose requests reached the server

	tr *clientTrace // nil when untraced
}

func newWireClient(conn net.Conn, id int, led *ledger, burst int, mustHit bool) *wireClient {
	per := 48 + led.size
	return &wireClient{
		conn:    conn,
		id:      id,
		led:     led,
		mustHit: mustHit,
		timeout: 10 * time.Second,
		wbuf:    make([]byte, 0, burst*per),
		rbuf:    make([]byte, max(64<<10, 2*burst*per)),
		name:    make([]byte, 0, keyNameLen),
		setHdr:  []byte(" 0 0 " + strconv.Itoa(led.size) + "\r\n"),
		valHdr:  []byte(" 0 " + strconv.Itoa(led.size)),
	}
}

var errMalformed = errors.New("malformed reply line")

// burst sends ops as one pipelined write and reads their replies. On
// return every op's lat (or refused) is set; an error means a reply
// was wrong, malformed or missing, and the connection is unusable.
func (c *wireClient) burst(ops []op) error {
	t0 := now()
	b := c.wbuf[:0]
	for i := range ops {
		o := &ops[i]
		o.refused = false
		if !o.set {
			b = append(b, "get "...)
			b = appendKeyName(b, o.key)
			b = append(b, '\r', '\n')
			continue
		}
		c.seq++
		o.seq = c.seq
		b = append(b, "set "...)
		b = appendKeyName(b, o.key)
		b = append(b, c.setHdr...)
		b = c.led.appendValue(b, o.key, c.id, o.seq)
		b = append(b, '\r', '\n')
	}
	c.wbuf = b
	// Publish the sequence before the bytes leave, so the other
	// connection never reads a value newer than issued.
	c.led.issued[c.id].Store(c.seq)
	t1 := now()
	if c.tr != nil {
		c.tr.begin(t0, t1)
	}
	if err := c.conn.SetDeadline(time.Now().Add(c.timeout)); err != nil {
		return fmt.Errorf("set deadline: %w", err)
	}
	if _, err := c.conn.Write(b); err != nil {
		return fmt.Errorf("write burst: %w", err)
	}
	c.sent += uint64(len(ops))
	if c.tr != nil {
		c.tr.sent(now())
	}
	for i := range ops {
		if err := c.reply(&ops[i]); err != nil {
			return err
		}
		ops[i].lat = c.lastRead - t1
	}
	if c.rpos != c.rend {
		return fmt.Errorf("%d unexpected bytes after the burst's replies: %q", c.rend-c.rpos, c.rbuf[c.rpos:min(c.rend, c.rpos+64)])
	}
	if c.tr != nil {
		c.tr.end(now(), len(ops))
	}
	return nil
}

// reply reads and checks the reply to o.
func (c *wireClient) reply(o *op) error {
	line, err := c.line()
	if err != nil {
		return err
	}
	if bytes.HasPrefix(line, []byte("SERVER_ERROR")) {
		o.refused = true
		return nil
	}
	if o.set {
		if string(line) != "STORED" {
			return fmt.Errorf("set k%08x: reply %q, want STORED", o.key, line)
		}
		return nil
	}
	if string(line) == "END" {
		if c.mustHit {
			return fmt.Errorf("get k%08x: miss on a resident key", o.key)
		}
		return nil
	}
	// VALUE <key> <flags> <bytes>
	c.name = appendKeyName(c.name[:0], o.key)
	rest, ok := bytes.CutPrefix(line, []byte("VALUE "))
	if !ok || !bytes.HasPrefix(rest, c.name) || !bytes.Equal(rest[len(c.name):], c.valHdr) {
		return fmt.Errorf("get k%08x: reply %q, want VALUE %s%s", o.key, line, c.name, c.valHdr)
	}
	data, err := c.take(c.led.size + 2)
	if err != nil {
		return err
	}
	if data[c.led.size] != '\r' || data[c.led.size+1] != '\n' {
		return fmt.Errorf("get k%08x: value block not terminated by CRLF", o.key)
	}
	if err := c.led.check(data[:c.led.size], o.key); err != nil {
		return fmt.Errorf("get: %w", err)
	}
	line, err = c.line()
	if err != nil {
		return err
	}
	if string(line) != "END" {
		return fmt.Errorf("get k%08x: reply %q after the value, want END", o.key, line)
	}
	return nil
}

// line returns the next CRLF-terminated line without its terminator.
// The slice is valid until the next read.
func (c *wireClient) line() ([]byte, error) {
	for {
		if i := bytes.IndexByte(c.rbuf[c.rpos:c.rend], '\n'); i >= 0 {
			l := c.rbuf[c.rpos : c.rpos+i]
			c.rpos += i + 1
			if len(l) == 0 || l[len(l)-1] != '\r' {
				return nil, errMalformed
			}
			return l[:len(l)-1], nil
		}
		if err := c.fill(); err != nil {
			return nil, err
		}
	}
}

// take returns the next n bytes. The slice is valid until the next read.
func (c *wireClient) take(n int) ([]byte, error) {
	for c.rend-c.rpos < n {
		if err := c.fill(); err != nil {
			return nil, err
		}
	}
	b := c.rbuf[c.rpos : c.rpos+n]
	c.rpos += n
	return b, nil
}

// fill reads more reply bytes, compacting the buffer when it is full.
func (c *wireClient) fill() error {
	switch {
	case c.rpos == c.rend:
		c.rpos, c.rend = 0, 0
	case c.rend == len(c.rbuf):
		if c.rpos == 0 {
			return errors.New("reply exceeds the read buffer")
		}
		c.rend = copy(c.rbuf, c.rbuf[c.rpos:c.rend])
		c.rpos = 0
	}
	t := now()
	if c.tr != nil {
		c.tr.decoded(t)
	}
	n, err := c.conn.Read(c.rbuf[c.rend:])
	c.lastRead = now()
	if c.tr != nil {
		c.tr.read(c.lastRead)
	}
	c.rend += n
	if n == 0 && err != nil {
		return fmt.Errorf("read replies: %w", err)
	}
	return nil
}

// load runs bursts drawn from gen until the clock passes until (when
// until > 0) or n bursts have run (when n > 0), recording into rec
// when it is non-nil.
func (c *wireClient) load(gen *opGen, ops []op, until int64, n int, rec *recorder) error {
	for i := 0; n <= 0 || i < n; i++ {
		if until > 0 && now() >= until {
			return nil
		}
		for j := range ops {
			gen.next(&ops[j])
		}
		rec.attempt(len(ops))
		if err := c.burst(ops); err != nil {
			rec.fail(len(ops))
			return err
		}
		rec.complete(ops, c.lastRead)
	}
	return nil
}

// populate writes every key k of [0, keys) with k%stride == c.id, in
// bursts of len(ops).
func (c *wireClient) populate(keys, stride int, ops []op) error {
	n := 0
	for k := c.id; k < keys; k += stride {
		ops[n] = op{key: uint32(k), set: true}
		n++
		if n == len(ops) || k+stride >= keys {
			if err := c.burst(ops[:n]); err != nil {
				return err
			}
			for i := range ops[:n] {
				if ops[i].refused {
					return fmt.Errorf("populate: set k%08x refused", ops[i].key)
				}
			}
			n = 0
		}
	}
	return nil
}
