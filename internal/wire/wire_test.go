package wire

import (
	"bytes"
	"errors"
	"testing"
)

func TestReaderRoundTrip(t *testing.T) {
	enc := []byte{7}
	enc = AppendBytes(enc, []byte("payload"))
	enc = AppendString(enc, "chain")
	enc = AppendInt(enc, -3)
	enc = AppendBytes(enc, nil)
	enc = append(enc, "id\x00"...)
	enc = append(enc, 1, 0)

	r := NewReader(enc)
	if got := r.U8(); got != 7 {
		t.Fatalf("U8 = %d", got)
	}
	if got := r.Bytes(); string(got) != "payload" {
		t.Fatalf("Bytes = %q", got)
	}
	if got := r.String(); got != "chain" {
		t.Fatalf("String = %q", got)
	}
	if got := r.Int(); got != -3 {
		t.Fatalf("Int = %d, want the negative value back", got)
	}
	if got := r.Bytes(); got != nil {
		t.Fatalf("empty Bytes = %v, want nil", got)
	}
	if got := r.StringZ(); got != "id" {
		t.Fatalf("StringZ = %q", got)
	}
	if !r.Bool() || r.Bool() {
		t.Fatal("Bool did not read 1 then 0")
	}
	if err := r.Finish(); err != nil {
		t.Fatal(err)
	}
}

// TestReaderRejects covers every way an input can be malformed; each
// must surface as an error wrapping ErrMalformed, never a panic.
func TestReaderRejects(t *testing.T) {
	cases := []struct {
		name string
		in   []byte
		read func(r *Reader)
	}{
		{"truncated u8", nil, func(r *Reader) { r.U8() }},
		{"truncated u32", []byte{1, 2, 3}, func(r *Reader) { r.U32() }},
		{"truncated u64", make([]byte, 7), func(r *Reader) { r.U64() }},
		{"truncated fill", make([]byte, 19), func(r *Reader) { r.Fill(make([]byte, 20)) }},
		{"truncated bytes", []byte{0, 0, 0, 5, 1}, func(r *Reader) { r.Bytes() }},
		{"huge length", []byte{0xff, 0xff, 0xff, 0xff}, func(r *Reader) { r.Bytes() }},
		{"huge string", []byte{0xff, 0xff, 0xff, 0xfe, 1}, func(r *Reader) { _ = r.String() }},
		{"negative take", []byte{1}, func(r *Reader) { r.take(-1) }},
		{"flag byte 2", []byte{2}, func(r *Reader) { r.Bool() }},
		{"missing terminator", []byte("abc"), func(r *Reader) { r.StringZ() }},
		{"count beyond input", []byte{0, 0, 0, 2, 9, 9, 9, 9, 9}, func(r *Reader) { r.Count(4) }},
		{"count, nothing behind", []byte{0, 0, 0, 1}, func(r *Reader) { r.Count(1) }},
		{"trailing bytes", []byte{1, 2}, func(r *Reader) { r.U8() }},
		{"caller failure", nil, func(r *Reader) { r.Failf("depth %d", -1) }},
	}
	for _, c := range cases {
		r := NewReader(c.in)
		c.read(&r)
		if err := r.Finish(); !errors.Is(err, ErrMalformed) {
			t.Errorf("%s: err = %v, want ErrMalformed", c.name, err)
		}
	}
}

func TestCountBoundsAllocation(t *testing.T) {
	// Two 4-byte elements fit in the 8 bytes behind the count, three
	// do not, whatever the count claims.
	in := append([]byte{0, 0, 0, 2}, make([]byte, 8)...)
	r := NewReader(in)
	if n := r.Count(4); n != 2 || r.err != nil {
		t.Fatalf("Count = %d, %v", n, r.err)
	}
	in[3] = 3
	r = NewReader(in)
	if n := r.Count(4); n != 0 || r.err == nil {
		t.Fatalf("Count = %d, %v: a count the input cannot hold was accepted", n, r.err)
	}
}

func TestFirstFailureSticks(t *testing.T) {
	r := NewReader([]byte{0, 0, 0, 9, 1, 2})
	r.Bytes() // truncated
	first := r.err
	if first == nil {
		t.Fatal("truncated read succeeded")
	}
	if r.U8() != 0 || r.U64() != 0 || r.Bytes() != nil || r.String() != "" {
		t.Fatal("reads after a failure returned data")
	}
	r.Failf("later")
	if r.Finish() != first {
		t.Fatalf("Finish = %v, want the first failure %v", r.Finish(), first)
	}
}

// TestViewsAliasInput pins the aliasing contract: Bytes and String are
// views into the input, capped so that appending to one cannot write
// into the bytes behind it.
func TestViewsAliasInput(t *testing.T) {
	in := AppendString(AppendBytes(nil, []byte("abc")), "xyz")
	r := NewReader(in)
	b, s := r.Bytes(), r.String()
	in[4] = 'A'
	in[11] = 'X'
	if string(b) != "Abc" || s != "Xyz" {
		t.Fatalf("views did not follow the input: %q %q", b, s)
	}
	if cap(b) != len(b) {
		t.Fatalf("view has spare capacity %d", cap(b)-len(b))
	}
	_ = append(b, '!')
	if !bytes.Equal(in[7:11], []byte{0, 0, 0, 3}) {
		t.Fatal("appending to a view overwrote the input behind it")
	}
}

func TestDecodersDoNotAllocate(t *testing.T) {
	in := AppendInt(AppendString(AppendBytes(nil, []byte("abc")), "xyz"), 5)
	n := testing.AllocsPerRun(100, func() {
		r := NewReader(in)
		_, _, _ = r.Bytes(), r.String(), r.Int()
		if r.Finish() != nil {
			t.Fatal("decode failed")
		}
	})
	if n != 0 {
		t.Fatalf("reading allocates %.0f times", n)
	}
}
