package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"sync"
	"syscall"
	"time"

	"repro/internal/dsm"
)

// bench holds one invocation's runs.
type bench struct {
	w     *workload
	seeds []int64
	// timed holds every run made without oracles (warm-up, timed and
	// traced), each to be checked against its seed's oracle run.
	timed []sample
	// oracle holds the oracle-checked run of each seed, and oracleHost
	// its host time including the offline trace check.
	oracle     []outcome
	oracleHost []time.Duration
	// faultMS collects virtual fault latencies from the oracle pass.
	faultMS []float64

	problems          []string
	notes             []string
	attempted, failed int
}

type sample struct {
	seed int // index into seeds
	out  outcome
}

// timedRun runs seed index i (modulo the seed count) with no oracles.
// Every run starts from a collected heap, so the collector's work inside
// the run does not depend on what earlier runs left behind.
func (b *bench) timedRun(i int, events func(dsm.TraceEvent)) outcome {
	i %= len(b.seeds)
	runtime.GC()
	out := b.w.run(b.seeds[i], oracles{events: events})
	b.timed = append(b.timed, sample{seed: i, out: out})
	return out
}

// loop cycles through the seeds, one run after another, until seconds
// have passed (at least one run).
func (b *bench) loop(seconds float64, events func(dsm.TraceEvent)) []outcome {
	var outs []outcome
	t0 := time.Now()
	for i := 0; len(outs) == 0 || !deadline(t0, seconds); i++ {
		outs = append(outs, b.timedRun(i, events))
	}
	return outs
}

// oraclePass gives every seed one untimed run with every oracle on:
// the application's verification, the invariant checker and the
// consistency model's trace check. Its fingerprints are the reference
// the timed runs must reproduce. With workers > 1 seeds run
// concurrently (each simulation is independent); the trace run uses one
// worker so the oracle's own cost is measured alone.
func (b *bench) oraclePass(workers int, collectFaults bool) {
	n := len(b.seeds)
	b.oracle = make([]outcome, n)
	b.oracleHost = make([]time.Duration, n)
	faults := make([][]float64, n)
	workers = max(1, min(workers, runtime.NumCPU(), n))
	prev := runtime.GOMAXPROCS(max(gomaxprocs, workers))
	defer runtime.GOMAXPROCS(prev)

	next := make(chan int)
	var wg sync.WaitGroup
	for range workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				o := oracles{check: true}
				var ft faultTimer
				if collectFaults {
					o.events = ft.event
				}
				t0 := time.Now()
				b.oracle[i] = b.w.run(b.seeds[i], o)
				b.oracleHost[i] = time.Since(t0)
				faults[i] = ft.ms
			}
		}()
	}
	for i := range n {
		next <- i
	}
	close(next)
	wg.Wait()
	for _, f := range faults {
		b.faultMS = append(b.faultMS, f...)
	}
	var total, check time.Duration
	for i, o := range b.oracle {
		total += b.oracleHost[i]
		check += o.checkTime
	}
	b.notes = append(b.notes, fmt.Sprintf("oracle pass: %d seeds with application verify, invariant checker and trace recorder on; %.2f s per run, %.3f s of it in the trace check",
		n, total.Seconds()/float64(n), check.Seconds()/float64(n)))
}

// judge counts every run and every failure: an oracle run whose checks
// failed, and a timed run that failed or whose fingerprint differs from
// its seed's oracle run.
func (b *bench) judge() {
	fail := func(format string, args ...any) {
		b.failed++
		if len(b.problems) < 8 {
			b.problems = append(b.problems, fmt.Sprintf(format, args...))
		}
	}
	for i, o := range b.oracle {
		b.attempted++
		if len(o.problems) > 0 {
			fail("oracle run, seed %d: %v", b.seeds[i], o.problems)
		}
	}
	for _, s := range b.timed {
		b.attempted++
		ref := b.oracle[s.seed]
		switch {
		case len(s.out.problems) > 0:
			fail("timed run, seed %d: %v", b.seeds[s.seed], s.out.problems)
		case len(ref.problems) > 0:
			fail("timed run, seed %d: its oracle run failed", b.seeds[s.seed])
		case !sameFingerprints(s.out.fp, ref.fp):
			fail("timed run, seed %d: fingerprint %s, oracle run %s", b.seeds[s.seed], digest(s.out.fp), digest(ref.fp))
		}
	}
	b.notes = append(b.notes, fmt.Sprintf("fail_ratio %g (%d failed of %d runs)", float64(b.failed)/float64(b.attempted), b.failed, b.attempted))
}

// endToEnd times the closed loop and reports the end-to-end metrics.
func (b *bench) endToEnd(seconds float64) map[string]metric {
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	outs := b.loop(seconds, nil)
	runtime.ReadMemStats(&m1)
	peak := peakRSSMB()
	b.oraclePass(2, false)

	host, setup := hostTimes(outs)
	tail, pct := tailOf(host)
	// The tail moves with the machine's other load more than the median
	// does, too much to gate on; it is printed, not returned.
	b.notes = append(b.notes, fmt.Sprintf("run_s_tail %.6g s, the p%.0f of %d timed runs", tail, pct, len(host)))
	v := b.virtual()
	return map[string]metric{
		"run_s_p50":      {median(host), "s"},
		"setup_s":        {median(setup), "s"},
		"alloc_mb":       {float64(m1.TotalAlloc-m0.TotalAlloc) / float64(len(outs)) / 1e6, "MB"},
		"peak_rss_mb":    {peak, "MB"},
		"sim_s":          {v.mean(func(f fingerprint) float64 { return float64(f.ElapsedNS) / 1e9 }), "virtual_s"},
		"page_transfers": {v.mean(func(f fingerprint) float64 { return float64(f.PagesFetched) }), "count"},
		"msgs":           {v.mean(func(f fingerprint) float64 { return float64(f.Messages) }), "count"},
		"wire_kb":        {v.mean(func(f fingerprint) float64 { return float64(f.BytesSent) / 1024 }), "KB"},
	}
}

// traced runs an untraced half and a traced half of the time budget,
// then the oracle pass, and reports the per-layer metrics. Both halves
// start at the first seed and take the seeds in the same order, so the
// overheads compare runs of the same inputs.
func (b *bench) traced(o options) (map[string]metric, error) {
	half := o.seconds / 2
	plain, _ := hostTimes(b.loop(half, nil))

	if err := os.MkdirAll(o.out, 0o755); err != nil {
		return nil, err
	}
	stem := filepath.Join(o.out, fmt.Sprintf("%s-seed%d", b.w.name, o.seed))
	f, err := os.Create(stem + ".cpu.pprof")
	if err != nil {
		return nil, err
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		return nil, err
	}
	var rec eventLog
	tracedHost, _ := hostTimes(b.loop(half, rec.event))
	pprof.StopCPUProfile()
	if err := f.Close(); err != nil {
		return nil, err
	}
	shares, err := moduleShares(stem + ".cpu.pprof")
	if err != nil {
		return nil, err
	}
	b.oraclePass(1, true)

	k := min(len(plain), len(tracedHost))
	base := median(plain[:k])
	// The oracle pass covers every seed once; compare it with the
	// untraced runs of the seeds the untraced half reached.
	n := min(len(plain), len(b.seeds))
	var checkS, oracleS []float64
	for i, out := range b.oracle {
		checkS = append(checkS, out.checkTime.Seconds())
		if i < n {
			oracleS = append(oracleS, b.oracleHost[i].Seconds())
		}
	}
	v := b.virtual()
	mean := func(get func(fingerprint) float64) float64 { return v.mean(get) }
	simS := mean(func(f fingerprint) float64 { return float64(f.ElapsedNS) / 1e9 })
	busyS := mean(func(f fingerprint) float64 { return float64(f.BusyNS) / 1e9 })
	m := map[string]metric{
		"dsm.read_faults":    {mean(func(f fingerprint) float64 { return float64(f.ReadFaults) }), "count"},
		"dsm.write_faults":   {mean(func(f fingerprint) float64 { return float64(f.WriteFaults) }), "count"},
		"dsm.upgrades":       {mean(func(f fingerprint) float64 { return float64(f.Upgrades) }), "count"},
		"dsm.invalidations":  {mean(func(f fingerprint) float64 { return float64(f.InvalidationsReceived) }), "count"},
		"dsm.conversions":    {mean(func(f fingerprint) float64 { return float64(f.Conversions) }), "count"},
		"dsm.fault_ms_p50":   {quantile(b.faultMS, 0.50), "virtual_ms"},
		"dsm.fault_ms_p99":   {quantile(b.faultMS, 0.99), "virtual_ms"},
		"dsm.rc_twins":       {mean(func(f fingerprint) float64 { return float64(f.RCTwins) }), "count"},
		"dsm.rc_diffs":       {mean(func(f fingerprint) float64 { return float64(f.RCDiffsSent) }), "count"},
		"dsm.rc_diff_kb":     {mean(func(f fingerprint) float64 { return float64(f.RCDiffBytes) / 1024 }), "KB"},
		"dsm.rc_pulls":       {mean(func(f fingerprint) float64 { return float64(f.RCPulls) }), "count"},
		"dsm.forwards":       {mean(func(f fingerprint) float64 { return float64(f.Forwards) }), "count"},
		"dsm.chain_max":      {v.max(func(f fingerprint) float64 { return float64(f.ChainMax) }), "count"},
		"dsync.msgs":         {mean(func(f fingerprint) float64 { return float64(f.DsyncMessages) }), "count"},
		"remoteop.fragments": {mean(func(f fingerprint) float64 { return float64(f.FragmentsSent) }), "count"},
		"remoteop.frags_per_msg": {mean(func(f fingerprint) float64 { return float64(f.FragmentsSent) }) /
			mean(func(f fingerprint) float64 { return float64(f.Sent) }), "ratio"},
		"remoteop.retransmits":    {mean(func(f fingerprint) float64 { return float64(f.Retransmits) }), "count"},
		"remoteop.duplicates":     {mean(func(f fingerprint) float64 { return float64(f.Duplicates) }), "count"},
		"netsim.frames":           {mean(func(f fingerprint) float64 { return float64(f.FramesSent) }), "count"},
		"netsim.busy_s":           {busyS, "virtual_s"},
		"netsim.utilization":      {busyS / simS, "ratio"},
		"netsim.cross_seg_frames": {mean(func(f fingerprint) float64 { return float64(f.CrossSegmentFrames) }), "count"},
		"oracle.check_s":          {median(checkS), "s"},
		"oracle.overhead":         {median(oracleS)/median(plain[:n]) - 1, "ratio"},
		"trace.overhead":          {median(tracedHost[:k])/base - 1, "ratio"},
	}
	for k, v := range timeFunctions(b.w) {
		m[k] = v
	}
	for k, v := range shares {
		m[k] = metric{v, "share"}
	}
	b.notes = append(b.notes,
		fmt.Sprintf("traced half: %d runs, %d DSM trace events in the last; CPU profile %s.cpu.pprof", len(tracedHost), rec.n, stem),
		fmt.Sprintf("fault latency from %d fault/fetch pairs in the oracle pass", len(b.faultMS)))
	return m, writeLayers(stem+".layers.json", m)
}

// virtualRuns are the oracle runs' fingerprints, one slice per seed.
type virtualRuns [][]fingerprint

func (b *bench) virtual() virtualRuns {
	var v virtualRuns
	for _, o := range b.oracle {
		v = append(v, o.fp)
	}
	return v
}

// mean averages a per-run quantity over the seeds; a run of several
// simulations (scale-1k) sums them.
func (v virtualRuns) mean(get func(fingerprint) float64) float64 {
	if len(v) == 0 {
		return 0
	}
	total := 0.0
	for _, fps := range v {
		for _, f := range fps {
			total += get(f)
		}
	}
	return total / float64(len(v))
}

func (v virtualRuns) max(get func(fingerprint) float64) float64 {
	m := 0.0
	for _, fps := range v {
		for _, f := range fps {
			m = max(m, get(f))
		}
	}
	return m
}

func hostTimes(outs []outcome) (host, setup []float64) {
	for _, o := range outs {
		host = append(host, o.host.Seconds())
		setup = append(setup, o.setup.Seconds())
	}
	return host, setup
}

// peakRSSMB is the process's peak resident set size (VmHWM) in MB.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) * 1024 / 1e6 // Maxrss is in KiB on Linux
}

// faultTimer pairs each read or write fault with the next fetch or
// upgrade of the same page on the same host, on the virtual clock. A
// fault resolved without either (a twin under release consistency) is
// replaced by the next fault on that page.
type faultTimer struct {
	open map[[2]int]int64
	ms   []float64
}

func (t *faultTimer) event(e dsm.TraceEvent) {
	if t.open == nil {
		t.open = make(map[[2]int]int64)
	}
	key := [2]int{int(e.Host), int(e.Page)}
	switch e.Event {
	case "read-fault", "write-fault":
		t.open[key] = int64(e.Time)
	case "fetch", "upgrade":
		if at, ok := t.open[key]; ok {
			t.ms = append(t.ms, float64(int64(e.Time)-at)/1e6)
			delete(t.open, key)
		}
	}
}

// eventLog keeps the DSM trace events of the current run in memory, as
// a tracer would before writing them out.
type eventLog struct {
	events []dsm.TraceEvent
	n      int
}

func (l *eventLog) event(e dsm.TraceEvent) {
	if len(l.events) > 0 && e.Time < l.events[len(l.events)-1].Time {
		l.events = l.events[:0] // a new run started
	}
	l.events = append(l.events, e)
	l.n = len(l.events)
}

// writeLayers saves the per-layer metrics next to the CPU profile, so a
// later change can diff both against this run.
func writeLayers(path string, m map[string]metric) error {
	data, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
