package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"strings"
)

// Per-layer attribution of pprof samples. A sample is charged to the
// innermost frame of its stack that belongs to the repository, so time in
// memmove, mallocgc or channel parking lands on the layer that called it;
// stacks with no repository frame (GC workers, the scheduler) are charged
// to "runtime". The buckets therefore sum exactly to the profile total.

// layers are the repository's modules as the benchmark reports them:
// internal/ccl and its backend packages form "ccl", internal/ccl/comp is
// "comp", internal/trace joins internal/metrics as "metrics", the other
// internal packages are "other", and the benchmark's own frames are
// "bench".
var layers = []string{"sim", "fabric", "device", "elem", "ccl", "comp", "core", "mpi",
	"experiments", "metrics", "other", "bench", "runtime"}

// layerOf maps a function name to its layer, or "" for a frame outside the
// repository.
func layerOf(fn string) string {
	// The benchmark's frames read "main." in its binary and carry the
	// import path in its test binary.
	if strings.HasPrefix(fn, "main.") || strings.HasPrefix(fn, "mpixccl/bench.") {
		return "bench"
	}
	rest, ok := strings.CutPrefix(fn, "mpixccl/internal/")
	if !ok {
		return ""
	}
	// The package path ends at the first dot; type parameters that name
	// other packages come after it.
	pkg, _, _ := strings.Cut(rest, ".")
	switch {
	case pkg == "ccl/comp":
		return "comp"
	case pkg == "ccl" || strings.HasPrefix(pkg, "ccl/"):
		return "ccl"
	case pkg == "trace" || pkg == "metrics":
		return "metrics"
	case pkg == "sim" || pkg == "fabric" || pkg == "device" || pkg == "elem" ||
		pkg == "core" || pkg == "mpi" || pkg == "experiments":
		return pkg
	}
	return "other"
}

// layerOfStack charges a stack (innermost frame first) to a layer.
func layerOfStack(frames []string) string {
	for _, fn := range frames {
		if l := layerOf(fn); l != "" {
			return l
		}
	}
	return "runtime"
}

// attribute sums one sample value of a profile per layer. valueType names
// the value ("cpu" for CPU profiles, "alloc_space" for allocs). total is
// the profile-wide sum, which the buckets add up to.
func attribute(prof []byte, valueType string) (buckets map[string]int64, total int64, err error) {
	p, err := parseProfile(prof)
	if err != nil {
		return nil, 0, err
	}
	idx := -1
	for i, t := range p.sampleTypes {
		if t == valueType {
			idx = i
		}
	}
	if idx < 0 {
		return nil, 0, fmt.Errorf("profile has no %q values", valueType)
	}
	var stacks [][]string
	var vals []int64
	for _, s := range p.samples {
		if idx < len(s.values) {
			stacks = append(stacks, p.stack(s.locs))
			vals = append(vals, s.values[idx])
		}
	}
	buckets, total = charge(stacks, vals)
	return buckets, total, nil
}

// charge sums each stack's value (stacks innermost frame first) into its
// layer's bucket.
func charge(stacks [][]string, vals []int64) (buckets map[string]int64, total int64) {
	buckets = map[string]int64{}
	for i, st := range stacks {
		buckets[layerOfStack(st)] += vals[i]
		total += vals[i]
	}
	return buckets, total
}

// profile is the part of profile.proto the attribution reads.
type profile struct {
	sampleTypes []string
	samples     []sample
	locs        map[uint64][]uint64 // location id -> function ids, innermost inlined first
	funcs       map[uint64]string   // function id -> name
}

type sample struct {
	locs   []uint64 // leaf first
	values []int64
}

// stack resolves location ids to function names, innermost first.
func (p *profile) stack(locs []uint64) []string {
	var out []string
	for _, l := range locs {
		for _, f := range p.locs[l] {
			out = append(out, p.funcs[f])
		}
	}
	return out
}

// parseProfile decodes a (possibly gzipped) pprof protobuf.
func parseProfile(data []byte) (*profile, error) {
	if len(data) >= 2 && data[0] == 0x1f && data[1] == 0x8b {
		zr, err := gzip.NewReader(bytes.NewReader(data))
		if err != nil {
			return nil, err
		}
		if data, err = io.ReadAll(zr); err != nil {
			return nil, err
		}
	}
	var (
		strs      []string
		typeIdx   []int64
		funcNames = map[uint64]int64{}
	)
	p := &profile{locs: map[uint64][]uint64{}, funcs: map[uint64]string{}}
	err := eachField(data, func(num int, wire int, v uint64, b []byte) error {
		switch num {
		case 1: // sample_type
			return eachField(b, func(num, _ int, v uint64, _ []byte) error {
				if num == 1 {
					typeIdx = append(typeIdx, int64(v))
				}
				return nil
			})
		case 2: // sample
			var s sample
			err := eachField(b, func(num, wire int, v uint64, b []byte) error {
				switch num {
				case 1:
					s.locs = appendVarints(s.locs, wire, v, b)
				case 2:
					for _, x := range appendVarints(nil, wire, v, b) {
						s.values = append(s.values, int64(x))
					}
				}
				return nil
			})
			p.samples = append(p.samples, s)
			return err
		case 4: // location
			var id uint64
			var fns []uint64
			err := eachField(b, func(num, _ int, v uint64, b []byte) error {
				switch num {
				case 1:
					id = v
				case 4: // line
					return eachField(b, func(num, _ int, v uint64, _ []byte) error {
						if num == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			p.locs[id] = fns
			return err
		case 5: // function
			var id uint64
			var name int64
			err := eachField(b, func(num, _ int, v uint64, _ []byte) error {
				switch num {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			})
			funcNames[id] = name
			return err
		case 6: // string_table
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	str := func(i int64) string {
		if i < 0 || i >= int64(len(strs)) {
			return ""
		}
		return strs[i]
	}
	for _, i := range typeIdx {
		p.sampleTypes = append(p.sampleTypes, str(i))
	}
	for id, i := range funcNames {
		p.funcs[id] = str(i)
	}
	return p, nil
}

// appendVarints appends a repeated varint field's values, packed (wire type
// 2) or not.
func appendVarints(dst []uint64, wire int, v uint64, b []byte) []uint64 {
	if wire == 0 {
		return append(dst, v)
	}
	for len(b) > 0 {
		x, n := binary.Uvarint(b)
		if n <= 0 {
			break
		}
		dst = append(dst, x)
		b = b[n:]
	}
	return dst
}

var errTruncated = errors.New("pprof: truncated protobuf")

// eachField walks one protobuf message, calling fn with each field's
// number and wire type, and its varint value or length-delimited bytes.
func eachField(data []byte, fn func(num, wire int, v uint64, b []byte) error) error {
	for len(data) > 0 {
		key, n := binary.Uvarint(data)
		if n <= 0 {
			return errTruncated
		}
		data = data[n:]
		num, wire := int(key>>3), int(key&7)
		var v uint64
		var b []byte
		switch wire {
		case 0:
			v, n = binary.Uvarint(data)
			if n <= 0 {
				return errTruncated
			}
			data = data[n:]
		case 1:
			if len(data) < 8 {
				return errTruncated
			}
			data = data[8:]
		case 2:
			l, n := binary.Uvarint(data)
			if n <= 0 || uint64(len(data)-n) < l {
				return errTruncated
			}
			b = data[n : n+int(l)]
			data = data[n+int(l):]
		case 5:
			if len(data) < 4 {
				return errTruncated
			}
			data = data[4:]
		default:
			return fmt.Errorf("pprof: unsupported wire type %d", wire)
		}
		if err := fn(num, wire, v, b); err != nil {
			return err
		}
	}
	return nil
}
