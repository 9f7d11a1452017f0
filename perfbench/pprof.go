package main

import (
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"strings"
)

// This file decodes just enough of the pprof profile format (gzipped
// protobuf, github.com/google/pprof/proto/profile.proto) to charge CPU
// samples to this repository's modules, without a dependency.

// pbField is one decoded protobuf field: a varint, or a length-delimited
// payload.
type pbField struct {
	num   int
	wire  int
	value uint64
	data  []byte
}

var errPB = errors.New("pprof: malformed protobuf")

func pbVarint(b []byte) (uint64, int, error) {
	var v uint64
	for i := 0; i < len(b) && i < 10; i++ {
		v |= uint64(b[i]&0x7f) << (7 * i)
		if b[i] < 0x80 {
			return v, i + 1, nil
		}
	}
	return 0, 0, errPB
}

// pbFields calls fn for every field of a message.
func pbFields(b []byte, fn func(f pbField) error) error {
	for len(b) > 0 {
		key, n, err := pbVarint(b)
		if err != nil {
			return err
		}
		b = b[n:]
		f := pbField{num: int(key >> 3), wire: int(key & 7)}
		switch f.wire {
		case 0:
			if f.value, n, err = pbVarint(b); err != nil {
				return err
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return errPB
			}
			b = b[8:]
		case 2:
			l, n, err := pbVarint(b)
			if err != nil || uint64(len(b)-n) < l {
				return errPB
			}
			f.data = b[n : n+int(l)]
			b = b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errPB
			}
			b = b[4:]
		default:
			return errPB
		}
		if err := fn(f); err != nil {
			return err
		}
	}
	return nil
}

// pbInts appends the integers of a repeated field, packed or not.
func pbInts(f pbField, dst []uint64) ([]uint64, error) {
	if f.wire == 0 {
		return append(dst, f.value), nil
	}
	b := f.data
	for len(b) > 0 {
		v, n, err := pbVarint(b)
		if err != nil {
			return nil, err
		}
		dst = append(dst, v)
		b = b[n:]
	}
	return dst, nil
}

// moduleCPU decodes a CPU profile and sums its CPU time per module,
// charging each sample to the innermost frame inside one of this
// repository's internal packages. Samples without such a frame go to
// "runtime" when they run the garbage collector's background workers,
// and to "other" (standard library, HTTP plumbing, the benchmark's own
// client) otherwise.
func moduleCPU(profile []byte) (map[string]float64, error) {
	zr, err := gzip.NewReader(bytes.NewReader(profile))
	if err != nil {
		return nil, fmt.Errorf("pprof: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("pprof: %w", err)
	}
	var (
		strs      []string
		funcName  = map[uint64]int64{}    // function id → string index
		locFuncs  = map[uint64][]uint64{} // location id → function ids, innermost first
		samples   [][]uint64              // location ids, leaf first
		values    []uint64                // CPU nanoseconds per sample
		valueSlot = 1
	)
	err = pbFields(raw, func(f pbField) error {
		switch f.num {
		case 2: // sample
			var locs, vals []uint64
			err := pbFields(f.data, func(g pbField) error {
				var err error
				switch g.num {
				case 1:
					locs, err = pbInts(g, locs)
				case 2:
					vals, err = pbInts(g, vals)
				}
				return err
			})
			if err != nil {
				return err
			}
			samples = append(samples, locs)
			var v uint64
			if valueSlot < len(vals) {
				v = vals[valueSlot]
			}
			values = append(values, v)
		case 4: // location
			var id uint64
			var fns []uint64
			err := pbFields(f.data, func(g pbField) error {
				switch g.num {
				case 1:
					id = g.value
				case 4: // line
					return pbFields(g.data, func(h pbField) error {
						if h.num == 1 {
							fns = append(fns, h.value)
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
		case 5: // function
			var id uint64
			var name int64
			err := pbFields(f.data, func(g pbField) error {
				switch g.num {
				case 1:
					id = g.value
				case 2:
					name = int64(g.value)
				}
				return nil
			})
			if err != nil {
				return err
			}
			funcName[id] = name
		case 6: // string table
			strs = append(strs, string(f.data))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	name := func(fn uint64) string {
		if i := funcName[fn]; i >= 0 && int(i) < len(strs) {
			return strs[i]
		}
		return ""
	}
	const prefix = "github.com/psp-framework/psp/internal/"
	out := map[string]float64{}
	for i, locs := range samples {
		module := ""
		gc := false
	stack:
		for _, loc := range locs {
			for _, fn := range locFuncs[loc] {
				n := name(fn)
				if strings.HasPrefix(n, prefix) {
					rest := n[len(prefix):]
					if j := strings.IndexAny(rest, "./"); j > 0 {
						rest = rest[:j]
					}
					module = rest
					break stack
				}
				if strings.HasPrefix(n, "runtime.gcBgMarkWorker") || strings.HasPrefix(n, "runtime.bgsweep") ||
					strings.HasPrefix(n, "runtime.bgscavenge") {
					gc = true
				}
			}
		}
		switch {
		case module != "":
		case gc:
			module = "runtime"
		default:
			module = "other"
		}
		out[module] += float64(values[i])
	}
	return out, nil
}
