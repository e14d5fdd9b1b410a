// Command perfbench is the repository's end-to-end benchmark. It runs
// one seeded workload as a closed loop (one simulation after another on
// one client), checks every timed run against an untimed, oracle-checked
// run of the same inputs, and prints its metrics by name with their
// units. The last line of standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With --trace 0 the metrics are the end-to-end ones; with --trace 1 the
// run is split into an untraced and a traced half, and the metrics are
// the per-layer ones. See README.md for the definitions.
//
// Usage (from the repository root; run.py builds the binary first):
//
//	python3 perfbench/run.py --workload mm2-thrash --seed 1 --seconds 15 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"
	"strings"
	"time"
)

// gomaxprocs is fixed so that runs on machines with different core
// counts schedule the simulator's process handoffs alike. One processor
// is also the fastest and steadiest setting for this single-threaded
// simulator.
const gomaxprocs = 1

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	out      string
	// seeds, when positive, overrides the workload's simulation seed
	// count (the tests run one seed to stay short).
	seeds int
	// corrupt flips one bit of every oracle fingerprint before timed
	// runs are compared with it; the tests use it to prove that a
	// mismatch is counted as a failure.
	corrupt bool
}

func main() {
	var o options
	var trace int
	flag.StringVar(&o.workload, "workload", "", "workload name: "+workloadNames())
	flag.Int64Var(&o.seed, "seed", 1, "input seed")
	flag.Float64Var(&o.seconds, "seconds", 15, "seconds of timed runs")
	flag.IntVar(&trace, "trace", 0, "1 reports per-layer metrics from a traced run")
	flag.StringVar(&o.out, "out", ".bench_build/results", "directory for the CPU profile and layer report")
	flag.Parse()
	o.trace = trace == 1
	if flag.NArg() > 0 || (trace != 0 && trace != 1) || o.seconds <= 0 {
		flag.Usage()
		os.Exit(2)
	}
	res, err := run(o, os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

func workloadNames() string {
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	return strings.Join(names, ", ")
}

// run executes one benchmark invocation, printing a human-readable
// report to log, and returns the result.
func run(o options, log io.Writer) (result, error) {
	w, err := workloadByName(o.workload)
	if err != nil {
		return result{}, err
	}
	prev := runtime.GOMAXPROCS(gomaxprocs)
	defer runtime.GOMAXPROCS(prev)
	n := w.seeds
	if o.seeds > 0 {
		n = o.seeds
	}
	seeds := simSeeds(o.seed, n)
	fmt.Fprintf(log, "perfbench %s seed=%d seconds=%g trace=%v: %d simulation seeds, GOMAXPROCS=%d of %d CPUs, %s\n",
		w.name, o.seed, o.seconds, o.trace, len(seeds), gomaxprocs, runtime.NumCPU(), runtime.Version())

	b := &bench{w: w, seeds: seeds}
	// One warm-up run fills the pools and lets lazy set-up finish.
	b.timedRun(0, nil)
	runtime.GC()

	var m map[string]metric
	if o.trace {
		m, err = b.traced(o)
	} else {
		m = b.endToEnd(o.seconds)
	}
	if err != nil {
		return result{}, err
	}
	if o.corrupt {
		for i := range b.oracle {
			if len(b.oracle[i].fp) > 0 {
				b.oracle[i].fp[0].ElapsedNS ^= 1
			}
		}
	}
	b.judge()
	for _, p := range b.problems {
		fmt.Fprintln(log, "FAIL", p)
	}
	names := make([]string, 0, len(m))
	for k := range m {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		fmt.Fprintf(log, "  %-26s %14.6g %s\n", k, m[k].Value, m[k].Unit)
	}
	for _, line := range b.notes {
		fmt.Fprintln(log, "  "+line)
	}
	return result{
		Correct:   b.failed == 0,
		Attempted: b.attempted,
		Failed:    b.failed,
		Metrics:   m,
	}, nil
}

// simSeeds derives the simulation seeds of one invocation from its
// input seed (splitmix64), so the same seed always gives the same runs.
func simSeeds(seed int64, n int) []int64 {
	out := make([]int64, n)
	x := uint64(seed)
	for i := range out {
		x += 0x9e3779b97f4a7c15
		z := x
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		z ^= z >> 31
		out[i] = int64(z>>2) + 1
	}
	return out
}

// deadline reports whether a loop that started at t0 has used its time.
func deadline(t0 time.Time, seconds float64) bool {
	return time.Since(t0).Seconds() >= seconds
}
