package main

import (
	"bytes"
	"fmt"
	"sync/atomic"
)

// Keys are named "k" plus eight hex digits of their index, so every
// name has the same length and a reply can be matched to its request
// by bytes alone.
const keyNameLen = 9

// A value embeds the key it was written under, the writer's id and the
// writer's sequence number, then a filler that is a rotation of the
// alphabet chosen by all three:
//
//	k0000002a w1 s000000000000001f :opqrstuvwxyzab...
//
// (without the spaces). A reader can therefore check a reply byte for
// byte against the key it asked for without remembering what was
// written.
const valueHeaderLen = 1 + 8 + 1 + 1 + 1 + 16 + 1

const hexDigits = "0123456789abcdef"

func appendHex(dst []byte, v uint64, digits int) []byte {
	for i := digits - 1; i >= 0; i-- {
		dst = append(dst, hexDigits[(v>>(4*uint(i)))&0xf])
	}
	return dst
}

func appendKeyName(dst []byte, key uint32) []byte {
	return appendHex(append(dst, 'k'), uint64(key), 8)
}

func parseHex(b []byte) (uint64, bool) {
	var v uint64
	for _, c := range b {
		switch {
		case c >= '0' && c <= '9':
			v = v<<4 | uint64(c-'0')
		case c >= 'a' && c <= 'f':
			v = v<<4 | uint64(c-'a'+10)
		default:
			return 0, false
		}
	}
	return v, true
}

// ledger generates and checks values for one keyspace. issued[w] is
// the highest sequence writer w has put on the wire; a value naming a
// later sequence was never written and is a corruption.
type ledger struct {
	size    int
	pattern []byte
	issued  [numProcs]atomic.Uint64
}

func newLedger(size int) *ledger {
	if size < valueHeaderLen {
		panic(fmt.Sprintf("value size %d is below the %d-byte header", size, valueHeaderLen))
	}
	p := make([]byte, 26+size)
	for i := range p {
		p[i] = 'a' + byte(i%26)
	}
	return &ledger{size: size, pattern: p}
}

func (l *ledger) filler(key uint32, w int, seq uint64) []byte {
	off := (uint64(key)*31 + seq*7 + uint64(w)) % 26
	return l.pattern[off : off+uint64(l.size-valueHeaderLen)]
}

// appendValue appends the value of (key, w, seq) to dst.
func (l *ledger) appendValue(dst []byte, key uint32, w int, seq uint64) []byte {
	b := appendKeyName(dst, key)
	b = append(b, 'w', hexDigits[w&0xf], 's')
	b = appendHex(b, seq, 16)
	b = append(b, ':')
	return append(b, l.filler(key, w, seq)...)
}

// check reports why v is not a value some writer wrote under key, or
// nil if it is one.
func (l *ledger) check(v []byte, key uint32) error {
	if len(v) != l.size {
		return fmt.Errorf("value for k%08x has %d bytes, want %d", key, len(v), l.size)
	}
	got, ok := parseHex(v[1:9])
	if v[0] != 'k' || !ok || v[9] != 'w' || v[11] != 's' || v[valueHeaderLen-1] != ':' {
		return fmt.Errorf("value for k%08x has a malformed header %q", key, v[:valueHeaderLen])
	}
	if uint32(got) != key {
		return fmt.Errorf("value for k%08x was written under k%08x", key, got)
	}
	w, ok1 := parseHex(v[10:11])
	seq, ok2 := parseHex(v[12 : valueHeaderLen-1])
	if !ok1 || !ok2 || w >= numProcs {
		return fmt.Errorf("value for k%08x has a malformed header %q", key, v[:valueHeaderLen])
	}
	if seq == 0 || seq > l.issued[w].Load() {
		return fmt.Errorf("value for k%08x names writer %d seq %d, which was never written", key, w, seq)
	}
	if !bytes.Equal(v[valueHeaderLen:], l.filler(key, int(w), seq)) {
		return fmt.Errorf("value for k%08x (writer %d seq %d) has corrupt filler", key, w, seq)
	}
	return nil
}
