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

// cpuLayers are the packages a CPU profile is bucketed into by leaf frame.
var cpuLayers = []string{"sim", "netsim", "mcast", "receiver", "source", "controller",
	"core", "topodisc", "report", "churn", "metrics", "runtime"}

// cpuBucket maps a leaf function's package to one of cpuLayers, or "".
// The runtime bucket covers the runtime's own packages (allocation, GC,
// maps, scheduling).
func cpuBucket(pkg string) string {
	if rest, ok := strings.CutPrefix(pkg, "toposense/internal/"); ok {
		for _, l := range cpuLayers {
			if rest == l {
				return l
			}
		}
		return ""
	}
	if pkg == "runtime" || strings.HasPrefix(pkg, "runtime/") || strings.HasPrefix(pkg, "internal/runtime/") {
		return "runtime"
	}
	return ""
}

// leafShares parses a gzipped pprof CPU profile and returns each bucket's
// share of the sampled CPU time, in percent, by the package of the leaf
// (innermost, inlining included) frame of every sample.
func leafShares(gz []byte) (map[string]float64, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	p, err := parseProfile(raw)
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	funcPkg := make(map[uint64]string, len(p.funcName))
	for id, name := range p.funcName {
		if int(name) < len(p.strings) {
			funcPkg[id] = funcPackage(p.strings[name])
		}
	}
	out := make(map[string]float64, len(cpuLayers))
	for _, l := range cpuLayers {
		out[l] = 0
	}
	var total int64
	for _, s := range p.samples {
		total += s.value
		if b := cpuBucket(funcPkg[p.locLeaf[s.leafLoc]]); b != "" {
			out[b] += float64(s.value)
		}
	}
	if total > 0 {
		for l := range out {
			out[l] = 100 * out[l] / float64(total)
		}
	}
	return out, nil
}

// profile holds the few parts of profile.proto the buckets need.
type profile struct {
	samples  []sample
	locLeaf  map[uint64]uint64 // location id -> leaf function id
	funcName map[uint64]int64  // function id -> string table index
	strings  []string
}

type sample struct {
	leafLoc uint64
	value   int64 // the last sample value: CPU nanoseconds
}

// Field numbers of profile.proto.
const (
	profSample      = 2
	profLocation    = 4
	profFunction    = 5
	profStringTable = 6
	sampleLocation  = 1
	sampleValue     = 2
	locationID      = 1
	locationLine    = 4
	lineFunction    = 1
	functionID      = 1
	functionName    = 2
)

func parseProfile(b []byte) (*profile, error) {
	p := &profile{locLeaf: map[uint64]uint64{}, funcName: map[uint64]int64{}}
	err := walkFields(b, func(field int, wire int, v uint64, data []byte) error {
		switch field {
		case profSample:
			var s sample
			first := true
			err := walkFields(data, func(f, w int, v uint64, d []byte) error {
				switch f {
				case sampleLocation:
					return eachVarint(w, v, d, func(x uint64) {
						if first {
							s.leafLoc, first = x, false
						}
					})
				case sampleValue:
					return eachVarint(w, v, d, func(x uint64) { s.value = int64(x) })
				}
				return nil
			})
			p.samples = append(p.samples, s)
			return err
		case profLocation:
			var id, fn uint64
			haveLine := false
			err := walkFields(data, func(f, w int, v uint64, d []byte) error {
				switch f {
				case locationID:
					id = v
				case locationLine:
					if haveLine {
						return nil // Line[0] is the innermost inlined frame
					}
					haveLine = true
					return walkFields(d, func(f, w int, v uint64, _ []byte) error {
						if f == lineFunction {
							fn = v
						}
						return nil
					})
				}
				return nil
			})
			p.locLeaf[id] = fn
			return err
		case profFunction:
			var id uint64
			var name int64
			err := walkFields(data, func(f, w int, v uint64, _ []byte) error {
				switch f {
				case functionID:
					id = v
				case functionName:
					name = int64(v)
				}
				return nil
			})
			p.funcName[id] = name
			return err
		case profStringTable:
			p.strings = append(p.strings, string(data))
		}
		return nil
	})
	return p, err
}

var errTruncated = errors.New("truncated protobuf")

// walkFields calls fn for every field of a protobuf message: varints carry
// v, length-delimited fields carry data. Fixed-width fields are skipped.
func walkFields(b []byte, fn func(field, wire int, v uint64, data []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errTruncated
		}
		b = b[n:]
		field, wire := int(key>>3), int(key&7)
		var v uint64
		var data []byte
		switch wire {
		case 0:
			if v, n = binary.Uvarint(b); n <= 0 {
				return errTruncated
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return errTruncated
			}
			b = b[8:]
			continue
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errTruncated
			}
			data = b[n : n+int(l)]
			b = b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errTruncated
			}
			b = b[4:]
			continue
		default:
			return fmt.Errorf("unsupported wire type %d", wire)
		}
		if err := fn(field, wire, v, data); err != nil {
			return err
		}
	}
	return nil
}

// eachVarint yields a repeated varint field in either encoding: one value
// (wire type 0) or a packed run (wire type 2).
func eachVarint(wire int, v uint64, data []byte, fn func(uint64)) error {
	if wire == 0 {
		fn(v)
		return nil
	}
	for len(data) > 0 {
		x, n := binary.Uvarint(data)
		if n <= 0 {
			return errTruncated
		}
		fn(x)
		data = data[n:]
	}
	return nil
}
