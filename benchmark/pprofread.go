package main

import (
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
)

// This file is a minimal reader for the gzip-compressed profile.proto
// that runtime/pprof writes: just enough of the wire format (varints
// and length-delimited fields) to recover every sample's call stack as
// function names. It exists so the layer attribution needs no module
// outside the standard library.

// stackSample is one profile sample: the call stack, innermost frame
// first (inlined callees expanded), and the number of times the
// sampler observed it.
type stackSample struct {
	Funcs []string
	Count int64
}

// Field numbers of profile.proto (github.com/google/pprof/proto).
const (
	profSample      = 2
	profLocation    = 4
	profFunction    = 5
	profStringTable = 6

	sampleLocationID = 1
	sampleValue      = 2

	locationID   = 1
	locationLine = 4

	lineFunctionID = 1

	functionID   = 1
	functionName = 2
)

var errTruncated = errors.New("profile: truncated message")

// protoField is one decoded field: varint and fixed-width values land
// in val, length-delimited payloads in data.
type protoField struct {
	num  int
	wire int
	val  uint64
	data []byte
}

// readVarint decodes one base-128 varint from b.
func readVarint(b []byte) (v uint64, n int, err error) {
	for shift := uint(0); n < len(b); shift += 7 {
		c := b[n]
		n++
		if shift >= 64 {
			return 0, 0, errors.New("profile: varint overflows 64 bits")
		}
		v |= uint64(c&0x7f) << shift
		if c < 0x80 {
			return v, n, nil
		}
	}
	return 0, 0, errTruncated
}

// readField decodes the field at the head of b and returns the rest.
func readField(b []byte) (f protoField, rest []byte, err error) {
	key, n, err := readVarint(b)
	if err != nil {
		return f, nil, err
	}
	b = b[n:]
	f.num, f.wire = int(key>>3), int(key&7)
	switch f.wire {
	case 0:
		f.val, n, err = readVarint(b)
		if err != nil {
			return f, nil, err
		}
		return f, b[n:], nil
	case 1, 5:
		width := 8
		if f.wire == 5 {
			width = 4
		}
		if len(b) < width {
			return f, nil, errTruncated
		}
		for i := width - 1; i >= 0; i-- {
			f.val = f.val<<8 | uint64(b[i])
		}
		return f, b[width:], nil
	case 2:
		size, n, err := readVarint(b)
		if err != nil {
			return f, nil, err
		}
		b = b[n:]
		if uint64(len(b)) < size {
			return f, nil, errTruncated
		}
		f.data = b[:size]
		return f, b[size:], nil
	}
	return f, nil, fmt.Errorf("profile: unsupported wire type %d", f.wire)
}

// eachField calls fn for every field of the message in b.
func eachField(b []byte, fn func(protoField) error) error {
	for len(b) > 0 {
		f, rest, err := readField(b)
		if err != nil {
			return err
		}
		if err := fn(f); err != nil {
			return err
		}
		b = rest
	}
	return nil
}

// appendUints appends a repeated integer field, packed or not.
func appendUints(dst []uint64, f protoField) ([]uint64, error) {
	if f.wire != 2 {
		return append(dst, f.val), nil
	}
	for b := f.data; len(b) > 0; {
		v, n, err := readVarint(b)
		if err != nil {
			return nil, err
		}
		dst = append(dst, v)
		b = b[n:]
	}
	return dst, nil
}

// readProfile parses a gzip-compressed profile.proto and resolves
// every sample to function names. Count is the sample's first value
// (samples/count for a CPU profile).
func readProfile(gz []byte) ([]stackSample, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}

	type rawSample struct {
		locs  []uint64
		count int64
	}
	var (
		samples   []rawSample
		locFuncs  = map[uint64][]uint64{} // location id → function ids, innermost first
		funcNames = map[uint64]uint64{}   // function id → string-table index
		strs      []string
	)
	err = eachField(raw, func(f protoField) error {
		switch f.num {
		case profSample:
			var s rawSample
			var vals []uint64
			err := eachField(f.data, func(g protoField) (err error) {
				switch g.num {
				case sampleLocationID:
					s.locs, err = appendUints(s.locs, g)
				case sampleValue:
					vals, err = appendUints(vals, g)
				}
				return err
			})
			if err != nil {
				return err
			}
			if len(vals) > 0 {
				s.count = int64(vals[0])
			}
			samples = append(samples, s)
		case profLocation:
			var id uint64
			var fns []uint64
			err := eachField(f.data, func(g protoField) error {
				switch g.num {
				case locationID:
					id = g.val
				case locationLine:
					return eachField(g.data, func(h protoField) error {
						if h.num == lineFunctionID {
							fns = append(fns, h.val)
						}
						return nil
					})
				}
				return nil
			})
			if err != nil {
				return err
			}
			locFuncs[id] = fns
		case profFunction:
			var id, name uint64
			err := eachField(f.data, func(g protoField) error {
				switch g.num {
				case functionID:
					id = g.val
				case functionName:
					name = g.val
				}
				return nil
			})
			if err != nil {
				return err
			}
			funcNames[id] = name
		case profStringTable:
			strs = append(strs, string(f.data))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}

	out := make([]stackSample, 0, len(samples))
	for _, s := range samples {
		st := stackSample{Count: s.count}
		for _, loc := range s.locs {
			for _, fn := range locFuncs[loc] {
				idx := funcNames[fn]
				if idx >= uint64(len(strs)) {
					return nil, fmt.Errorf("profile: function %d names string %d of %d", fn, idx, len(strs))
				}
				st.Funcs = append(st.Funcs, strs[idx])
			}
		}
		out = append(out, st)
	}
	return out, nil
}
