// Package wire is the one serialization discipline of the simulator
// (ADR-012). Every value that crosses a chain boundary — transactions,
// headers, SPV evidence, contract parameters and call arguments — is
// written by an exact-size append encoder and read back through the
// Reader cursor defined here.
//
// The format is big-endian, with u32 length prefixes on byte strings
// and u32 counts on sequences; an int (a confirmation depth, a
// threshold) travels as its 64-bit two's complement so a negative
// value stays representable and the contracts' "< 0" checks stay
// reachable. Every encoding is canonical: a successful decode followed
// by an encode reproduces the input byte for byte.
//
// Decoders alias their input. Bytes and String return views into the
// buffer handed to NewReader, not copies: transactions, parameters and
// call arguments are immutable once built (the chain.Tx contract), so
// a decoded value is valid exactly as long as nobody writes to the
// bytes it was decoded from. Code that keeps part of a decoded value
// in long-lived state (a contract constructor storing a checkpoint
// header) copies those bytes out, so state never pins — and is never
// changed through — a transaction buffer.
package wire

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"unsafe"
)

// Appender is a value with an exact-size append encoder. AppendTo
// appends exactly EncodedLen bytes, so a parent encoder sizes one
// buffer for itself and everything nested in it.
type Appender interface {
	EncodedLen() int
	AppendTo(dst []byte) []byte
}

// LenPrefix is the size of the u32 length (or count) prefix.
const LenPrefix = 4

// IntLen is the encoded size of an int.
const IntLen = 8

// AppendBytes appends b behind its u32 length.
func AppendBytes(dst, b []byte) []byte {
	dst = binary.BigEndian.AppendUint32(dst, uint32(len(b)))
	return append(dst, b...)
}

// AppendString appends s behind its u32 length.
func AppendString(dst []byte, s string) []byte {
	dst = binary.BigEndian.AppendUint32(dst, uint32(len(s)))
	return append(dst, s...)
}

// AppendInt appends v as a 64-bit two's complement integer.
func AppendInt(dst []byte, v int) []byte {
	return binary.BigEndian.AppendUint64(dst, uint64(int64(v)))
}

// ErrMalformed is wrapped by every error a Reader reports.
var ErrMalformed = errors.New("wire: malformed encoding")

// Reader is a bounds-checked cursor over an encoded buffer. The first
// failure sticks: every later read returns a zero value and Finish
// reports that first failure, so a decoder reads all its fields and
// checks once. A Reader never panics on any input.
type Reader struct {
	b   []byte // unread input
	err error
}

// NewReader returns a cursor at the start of b.
func NewReader(b []byte) Reader { return Reader{b: b} }

// Failf records a failure found by the caller (an out-of-range value
// in an otherwise well-formed encoding) unless one is already recorded.
func (r *Reader) Failf(format string, args ...any) {
	if r.err == nil {
		r.err = fmt.Errorf("%w: %s", ErrMalformed, fmt.Sprintf(format, args...))
		r.b = nil
	}
}

// Finish reports the first failure, or bytes left unread: every
// encoding is consumed exactly.
func (r *Reader) Finish() error {
	if r.err == nil && len(r.b) != 0 {
		r.Failf("%d trailing bytes", len(r.b))
	}
	return r.err
}

// take returns the next n bytes as a view into the input.
func (r *Reader) take(n int) []byte {
	if n < 0 || n > len(r.b) {
		r.Failf("truncated (need %d, have %d)", n, len(r.b))
		return nil
	}
	out := r.b[:n:n]
	r.b = r.b[n:]
	return out
}

// Fill copies the next len(dst) bytes into dst (a hash, an address).
func (r *Reader) Fill(dst []byte) { copy(dst, r.take(len(dst))) }

// U8 reads one byte.
func (r *Reader) U8() byte {
	if b := r.take(1); b != nil {
		return b[0]
	}
	return 0
}

// Bool reads a byte that must be 0 or 1.
func (r *Reader) Bool() bool {
	v := r.U8()
	if v > 1 {
		r.Failf("flag byte %d is neither 0 nor 1", v)
	}
	return v == 1
}

// U32 reads a big-endian uint32.
func (r *Reader) U32() uint32 {
	if b := r.take(4); b != nil {
		return binary.BigEndian.Uint32(b)
	}
	return 0
}

// U64 reads a big-endian uint64.
func (r *Reader) U64() uint64 {
	if b := r.take(8); b != nil {
		return binary.BigEndian.Uint64(b)
	}
	return 0
}

// Int reads an int written by AppendInt.
func (r *Reader) Int() int {
	v := int64(r.U64())
	if int64(int(v)) != v {
		r.Failf("integer %d overflows int", v)
		return 0
	}
	return int(v)
}

// Count reads a u32 element count and bounds it by what the unread
// input could possibly hold at minSize bytes per element, so a decoder
// may allocate count elements before reading any of them.
func (r *Reader) Count(minSize int) int {
	n := r.U32()
	if uint64(n) > uint64(len(r.b)/minSize) {
		r.Failf("implausible count %d for %d remaining bytes", n, len(r.b))
		return 0
	}
	return int(n)
}

// Bytes reads a u32-length-prefixed byte string as a view into the
// input; an empty one reads as nil.
func (r *Reader) Bytes() []byte {
	n := r.U32()
	if n == 0 {
		return nil
	}
	if uint64(n) > uint64(len(r.b)) {
		r.Failf("truncated (need %d, have %d)", n, len(r.b))
		return nil
	}
	return r.take(int(n))
}

// String reads a u32-length-prefixed string as a view into the input:
// it shares the buffer's storage (see the package comment), which is
// what lets a decoder run without allocating. strings.Clone detaches
// it.
func (r *Reader) String() string { return view(r.Bytes()) }

// StringZ reads a string that runs up to a terminating 0 byte (a
// header's chain id), consuming the terminator; a view like String.
func (r *Reader) StringZ() string {
	n := bytes.IndexByte(r.b, 0)
	if n < 0 {
		r.Failf("missing 0 terminator")
		return ""
	}
	s := view(r.take(n))
	r.take(1)
	return s
}

func view(b []byte) string { return unsafe.String(unsafe.SliceData(b), len(b)) }
