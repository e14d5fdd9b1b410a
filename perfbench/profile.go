package main

// CPU-profile attribution. The profile written by runtime/pprof is a
// gzipped protocol buffer (github.com/google/pprof, proto/profile.proto);
// only the fields needed to name each sample's stack are decoded here, so
// the benchmark needs nothing outside the standard library.

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"os"
	"strings"
)

// modules are the repository layers reported as <module>.self_share.
var modules = []string{"apps", "dsm", "dsync", "threads", "remoteop", "proto", "bufpool", "conv", "vaxfloat", "netsim", "sim"}

// moduleShares reads a CPU profile and returns, per layer, the share of
// CPU samples whose innermost repository frame lies in it (runtime
// helpers such as memmove count toward their caller). Samples in
// goroutine park/unpark, channel and scheduler code form
// sim.handoff_share: the simulator hands control between simulated
// processes over channels. Samples in the garbage collector or the
// allocator form runtime.gc_share.
func moduleShares(path string) (map[string]float64, error) {
	stacks, err := readProfile(path)
	if err != nil {
		return nil, fmt.Errorf("cpu profile %s: %w", path, err)
	}
	counts := map[string]int64{}
	var total int64
	for _, s := range stacks {
		counts[bucket(s.frames)] += s.count
		total += s.count
	}
	out := map[string]float64{}
	for _, m := range modules {
		out[m+".self_share"] = share(counts[m], total)
	}
	out["sim.handoff_share"] = share(counts["handoff"], total)
	out["runtime.gc_share"] = share(counts["gc"], total)
	return out, nil
}

func share(n, total int64) float64 {
	if total == 0 {
		return 0
	}
	return float64(n) / float64(total)
}

// bucket names the layer one stack (innermost frame first) is charged to.
func bucket(frames []string) string {
	for _, f := range frames {
		if isGC(f) {
			return "gc"
		}
	}
	for _, f := range frames {
		if m := repoModule(f); m != "" {
			return m
		}
		if isHandoff(f) {
			return "handoff"
		}
	}
	return "other"
}

// repoModule maps a function name to its repository layer, or "" for
// code outside the repository's internal packages.
func repoModule(fn string) string {
	rest, ok := strings.CutPrefix(fn, "repro/internal/")
	if !ok {
		return ""
	}
	if end := strings.IndexAny(rest, "/."); end >= 0 {
		rest = rest[:end]
	}
	for _, m := range modules {
		if rest == m {
			return m
		}
	}
	return "other"
}

func isGC(fn string) bool {
	for _, p := range []string{"runtime.gc", "runtime.mallocgc", "runtime.markroot", "runtime.scanobject",
		"runtime.greyobject", "runtime.bgsweep", "runtime.bgscavenge", "runtime.sweepone", "runtime.(*mheap)",
		"runtime.(*mcache)", "runtime.(*mcentral)", "runtime.(*gcWork)", "runtime.(*sweepLocked)", "runtime.wbBuf",
		"runtime.bulkBarrier", "runtime.scanstack", "runtime.scanframe"} {
		if strings.HasPrefix(fn, p) {
			return true
		}
	}
	return false
}

func isHandoff(fn string) bool {
	for _, p := range []string{"runtime.chan", "runtime.gopark", "runtime.goready", "runtime.ready", "runtime.select",
		"runtime.schedule", "runtime.findRunnable", "runtime.park_m", "runtime.mcall", "runtime.futex",
		"runtime.note", "runtime.wakep", "runtime.runq", "runtime.stopm", "runtime.startm", "runtime.handoffp",
		"runtime.execute", "runtime.gogo", "runtime.send", "runtime.recv", "runtime.lock", "runtime.unlock",
		"runtime.casgstatus", "runtime.usleep", "runtime.osyield", "runtime.goexit", "runtime.newproc",
		"runtime.acquirep", "runtime.releasep", "runtime.resetspinning", "runtime.checkTimers", "runtime.netpoll"} {
		if strings.HasPrefix(fn, p) {
			return true
		}
	}
	return false
}

type stack struct {
	frames []string // innermost first, inlined frames expanded
	count  int64
}

// readProfile decodes the samples of a runtime/pprof CPU profile.
func readProfile(path string) ([]stack, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	zr, err := gzip.NewReader(bytes.NewReader(raw))
	if err != nil {
		return nil, err
	}
	data, err := io.ReadAll(zr)
	if err != nil {
		return nil, err
	}
	var (
		strs      []string
		funcName  = map[uint64]int64{}    // function id → string index
		locFuncs  = map[uint64][]uint64{} // location id → function ids, innermost first
		rawSample [][]byte
	)
	err = fields(data, func(num int, wire int, v uint64, b []byte) error {
		switch num {
		case 2: // sample
			rawSample = append(rawSample, b)
		case 4: // location
			var id uint64
			var fns []uint64
			err := fields(b, func(n, w int, v uint64, b []byte) error {
				switch n {
				case 1:
					id = v
				case 4: // line
					return fields(b, func(n, w int, v uint64, _ []byte) error {
						if n == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			locFuncs[id] = fns
			return err
		case 5: // function
			var id uint64
			var name int64
			err := fields(b, func(n, w int, v uint64, _ []byte) error {
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
		case 6: // string table
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	var out []stack
	for _, b := range rawSample {
		var locs, vals []uint64
		err := fields(b, func(n, w int, v uint64, b []byte) error {
			switch n {
			case 1:
				locs = appendPacked(locs, w, v, b)
			case 2:
				vals = appendPacked(vals, w, v, b)
			}
			return nil
		})
		if err != nil {
			return nil, err
		}
		if len(vals) == 0 {
			continue
		}
		s := stack{count: int64(vals[0])}
		for _, l := range locs {
			for _, fn := range locFuncs[l] {
				if i := funcName[fn]; i >= 0 && int(i) < len(strs) {
					s.frames = append(s.frames, strs[i])
				}
			}
		}
		out = append(out, s)
	}
	return out, nil
}

// appendPacked appends one repeated integer field, packed or not.
func appendPacked(dst []uint64, wire int, v uint64, b []byte) []uint64 {
	if wire == 0 {
		return append(dst, v)
	}
	for len(b) > 0 {
		x, n := binary.Uvarint(b)
		if n <= 0 {
			return dst
		}
		dst = append(dst, x)
		b = b[n:]
	}
	return dst
}

var errTruncated = errors.New("truncated protocol buffer")

// fields walks one protocol-buffer message, calling fn with each
// field's number, wire type and value (varint) or bytes (length-
// delimited).
func fields(b []byte, fn func(num, wire int, v uint64, b []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errTruncated
		}
		b = b[n:]
		num, wire := int(key>>3), int(key&7)
		var v uint64
		var body []byte
		switch wire {
		case 0:
			v, n = binary.Uvarint(b)
			if n <= 0 {
				return errTruncated
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return errTruncated
			}
			v = binary.LittleEndian.Uint64(b)
			b = b[8:]
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errTruncated
			}
			body = b[n : n+int(l)]
			b = b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errTruncated
			}
			v = uint64(binary.LittleEndian.Uint32(b))
			b = b[4:]
		default:
			return fmt.Errorf("unsupported wire type %d", wire)
		}
		if err := fn(num, wire, v, body); err != nil {
			return err
		}
	}
	return nil
}
