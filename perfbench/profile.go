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

// The traced run's CPU profile is bucketed into layers by the package of
// each sample's leaf frame: a package under mptcpsim/internal/ named in
// profileLayers is its own layer, the Go runtime is "go", and everything
// else (the standard library, the benchmark's own code, other internal
// packages) is "other". The fractions therefore sum to one. Samples
// taken in the yardstick are left out.

var profileLayers = []string{
	"sim", "netem", "topo", "tcp", "mptcp", "core", "energy", "obsv", "flows", "fluid", "backend",
}

const modulePrefix = "mptcpsim/internal/"

// layerOf maps a profile function name to its layer.
func layerOf(fn string) string {
	pkg := packageOf(fn)
	if pkg == "runtime" || strings.HasPrefix(pkg, "runtime/") || strings.HasPrefix(pkg, "internal/runtime/") {
		return "go"
	}
	if name, ok := strings.CutPrefix(pkg, modulePrefix); ok {
		for _, l := range profileLayers {
			if name == l {
				return l
			}
		}
	}
	return "other"
}

// packageOf returns the import path of a symbol name such as
// "mptcpsim/internal/sim.(*Engine).siftDown": everything up to the first
// dot after the last slash.
func packageOf(fn string) string {
	slash := strings.LastIndexByte(fn, '/')
	dot := strings.IndexByte(fn[slash+1:], '.')
	if dot < 0 {
		return fn
	}
	return fn[:slash+1+dot]
}

// layerShares decodes a gzipped pprof CPU profile and returns each
// layer's share of CPU time by leaf frame. Layers with no samples are
// present with 0.
func layerShares(profile []byte) (map[string]float64, error) {
	p, err := decodeProfile(profile)
	if err != nil {
		return nil, err
	}
	valueIdx := len(p.sampleTypes) - 1
	for i, t := range p.sampleTypes {
		if t == "cpu" {
			valueIdx = i
		}
	}
	if valueIdx < 0 {
		return nil, errors.New("profile: no sample types")
	}
	byLayer := map[string]float64{"go": 0, "other": 0}
	for _, l := range profileLayers {
		byLayer[l] = 0
	}
	var total float64
	for _, s := range p.samples {
		if valueIdx >= len(s.values) || p.inYardstick(s) {
			continue
		}
		v := float64(s.values[valueIdx])
		layer := "other"
		if len(s.locations) > 0 {
			if fn, ok := p.leaf[s.locations[0]]; ok {
				layer = layerOf(p.functions[fn])
			}
		}
		byLayer[layer] += v
		total += v
	}
	if total == 0 {
		return nil, errors.New("profile: no CPU samples")
	}
	for l := range byLayer {
		byLayer[l] /= total
	}
	return byLayer, nil
}

// inYardstick reports whether a sample was taken inside the yardstick,
// which runs between traced repeats and is no layer's work. The
// benchmark's package is "main" in its binary and mptcpsim/perfbench in
// its tests.
func (p *profile) inYardstick(s profileSample) bool {
	for _, loc := range s.locations {
		fn, ok := p.leaf[loc]
		if !ok {
			continue
		}
		name := p.functions[fn]
		pkg := packageOf(name)
		if (pkg == "main" || pkg == "mptcpsim/perfbench") && strings.HasPrefix(name[len(pkg):], ".(*yardstick).") {
			return true
		}
	}
	return false
}

// profile is the part of profile.proto the bucketing needs.
type profile struct {
	sampleTypes []string
	samples     []profileSample
	leaf        map[uint64]uint64 // location id → innermost function id
	functions   map[uint64]string // function id → name
}

type profileSample struct {
	locations []uint64
	values    []int64
}

// decodeProfile parses a gzipped profile.proto message with a minimal
// protobuf reader (the repository has no protobuf dependency).
func decodeProfile(gz []byte) (*profile, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	var (
		typeIdx  []int64 // sample_type string indices
		funcName = map[uint64]int64{}
		strs     []string
	)
	p := &profile{leaf: map[uint64]uint64{}, functions: map[uint64]string{}}
	err = eachField(raw, func(num int, wire int, v uint64, b []byte) error {
		switch num {
		case 1: // sample_type
			return eachField(b, func(n, _ int, v uint64, _ []byte) error {
				if n == 1 {
					typeIdx = append(typeIdx, int64(v))
				}
				return nil
			})
		case 2: // sample
			var s profileSample
			err := eachField(b, func(n, w int, v uint64, b []byte) error {
				switch n {
				case 1:
					return appendUints(&s.locations, w, v, b)
				case 2:
					var vals []uint64
					if err := appendUints(&vals, w, v, b); err != nil {
						return err
					}
					for _, x := range vals {
						s.values = append(s.values, int64(x))
					}
				}
				return nil
			})
			p.samples = append(p.samples, s)
			return err
		case 4: // location
			var id, fn uint64
			first := true
			err := eachField(b, func(n, _ int, v uint64, b []byte) error {
				switch n {
				case 1:
					id = v
				case 4: // line; the first is the innermost inlined frame
					if !first {
						return nil
					}
					first = false
					return eachField(b, func(n, _ int, v uint64, _ []byte) error {
						if n == 1 {
							fn = v
						}
						return nil
					})
				}
				return nil
			})
			if !first {
				p.leaf[id] = fn
			}
			return err
		case 5: // function
			var id uint64
			var name int64
			err := eachField(b, func(n, _ int, v uint64, _ []byte) error {
				switch n {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			})
			funcName[id] = name
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
		if i < 0 || int(i) >= len(strs) {
			return ""
		}
		return strs[i]
	}
	for _, i := range typeIdx {
		p.sampleTypes = append(p.sampleTypes, str(i))
	}
	for id, i := range funcName {
		p.functions[id] = str(i)
	}
	return p, nil
}

// eachField walks one protobuf message, calling fn with each field's
// number, wire type, and either its varint value or its bytes.
func eachField(b []byte, fn func(num, wire int, v uint64, b []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errors.New("profile: bad field key")
		}
		b = b[n:]
		num, wire := int(key>>3), int(key&7)
		var v uint64
		var body []byte
		switch wire {
		case 0:
			v, n = binary.Uvarint(b)
			if n <= 0 {
				return errors.New("profile: bad varint")
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return errors.New("profile: short fixed64")
			}
			b = b[8:]
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errors.New("profile: bad length")
			}
			body = b[n : n+int(l)]
			b = b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errors.New("profile: short fixed32")
			}
			b = b[4:]
		default:
			return fmt.Errorf("profile: wire type %d", wire)
		}
		if err := fn(num, wire, v, body); err != nil {
			return err
		}
	}
	return nil
}

// appendUints appends a repeated varint field, packed or not.
func appendUints(dst *[]uint64, wire int, v uint64, b []byte) error {
	if wire == 0 {
		*dst = append(*dst, v)
		return nil
	}
	for len(b) > 0 {
		x, n := binary.Uvarint(b)
		if n <= 0 {
			return errors.New("profile: bad packed varint")
		}
		*dst = append(*dst, x)
		b = b[n:]
	}
	return nil
}
