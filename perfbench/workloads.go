package main

// The four workloads. Each one drives the system from outside, through
// the same entry points an application uses: cluster.New, the matmul
// and sor runners, dsm.Module accessors, and the statistics counters.
// A run is one simulation (three, for scale-1k) on a fresh cluster.

import (
	"fmt"
	"math/rand"
	"time"

	"repro/internal/apps/matmul"
	"repro/internal/apps/sor"
	"repro/internal/arch"
	"repro/internal/cluster"
	"repro/internal/conv"
	"repro/internal/dsm"
	"repro/internal/model"
	"repro/internal/netsim"
	"repro/internal/sctrace"
	"repro/internal/sim"
)

// oracles selects what is attached to one run. Timed runs attach
// nothing.
type oracles struct {
	// check turns every oracle on: the application's own result check
	// (for matmul, the sequential reference multiply), the invariant
	// checker on every host, and a recording of every DSM access checked
	// after the run by the consistency model's oracle (Module.TraceCheck).
	check bool
	// events receives DSM protocol trace events.
	events func(dsm.TraceEvent)
}

// outcome is what one run reports.
type outcome struct {
	// setup is host time spent building the cluster, registering the
	// application and defining its synchronization primitives.
	setup time.Duration
	// fp is the run's fingerprint: one entry per simulated cluster.
	fp []fingerprint
	// problems lists every failed check (empty when all passed).
	problems []string
	// host is host time from the start of cluster build to the read of
	// the counters.
	host time.Duration
	// checkTime is host time spent in the offline trace check.
	checkTime time.Duration
}

// workload is one benchmark input family.
type workload struct {
	name string
	// pageType and pageSize describe the workload's shared pages; the
	// public-function timings run on pages built the same way.
	pageType conv.TypeID
	pageSize int
	// seeds is how many simulation seeds one invocation cycles through.
	// The virtual metrics are means over them, so a workload whose
	// virtual time varies from seed to seed needs more of them to report
	// a steady mean.
	seeds int
	// fill writes one page image of the workload's data, in the Sun's
	// native representation.
	fill func(page []byte, rng *rand.Rand)
	run  func(seed int64, o oracles) outcome
}

var workloads = []*workload{
	{name: "mm2-thrash", pageType: conv.Int32, pageSize: 8192, seeds: 24, fill: fillMatmul,
		run: func(seed int64, o oracles) outcome { return runMM2(seed, dsm.PolicyMRSW, o) }},
	{name: "mm2-rc", pageType: conv.Int32, pageSize: 8192, seeds: 8, fill: fillMatmul,
		run: func(seed int64, o oracles) outcome { return runMM2(seed, dsm.PolicyRC, o) }},
	{name: "sor-hetero", pageType: conv.Float32, pageSize: 1024, seeds: 6, fill: fillSOR,
		run: runSOR},
	{name: "scale-1k", pageType: conv.Int32, pageSize: 1024, seeds: 2, fill: fillMatmul,
		run: runScale},
}

func workloadByName(name string) (*workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// jittered returns the default cost model with 3% per-request process
// jitter, the noise behind the run-to-run spread of §3.3.
func jittered() *model.Params {
	pv := model.Default()
	pv.ProcessJitterPct = 0.03
	return &pv
}

// attach wires the oracles into a cluster configuration.
func attach(cfg *cluster.Config, o oracles) *sctrace.Recorder {
	cfg.InvariantChecks = o.check
	cfg.Trace = o.events
	if !o.check {
		return nil
	}
	rec := sctrace.NewRecorder()
	cfg.SCTrace = rec
	return rec
}

// build makes the cluster and counts invariant violations instead of
// panicking on the first.
func build(cfg cluster.Config, out *outcome) (*cluster.Cluster, error) {
	c, err := cluster.New(cfg)
	if err != nil {
		return nil, err
	}
	if c.Check != nil {
		c.Check.SetFailHandler(func(v dsm.Violation) {
			out.problems = append(out.problems, "invariant: "+v.String())
		})
	}
	return c, nil
}

// finish reads the cluster's counters into the outcome, runs the trace
// oracle and releases the kernel's processes.
func finish(c *cluster.Cluster, elapsed sim.Duration, rec *sctrace.Recorder, out *outcome, t0 time.Time) {
	out.fp = append(out.fp, fingerprintOf(c, elapsed))
	out.host += time.Since(t0)
	if rec != nil {
		t0 := time.Now()
		if v := c.Hosts[0].DSM.TraceCheck(rec.Ops()); len(v) > 0 {
			out.problems = append(out.problems, "trace: "+sctrace.Report(v, 3))
		}
		out.checkTime += time.Since(t0)
	}
	c.K.Shutdown()
}

// guard turns a panic inside a run (a deadlock, a checker abort) into a
// recorded failure.
func guard(out *outcome) {
	if r := recover(); r != nil {
		out.problems = append(out.problems, fmt.Sprintf("panic: %v", r))
	}
}

// MM2 on the thrashing configuration of §3.3: a Sun master, three
// six-CPU Fireflies, eight slave threads placed round-robin, rows
// assigned round-robin so every 8 KB page of C is written by up to
// eight threads, four-element store bursts.
func runMM2(seed int64, policy dsm.Policy, o oracles) (out outcome) {
	defer guard(&out)
	hosts := []cluster.HostSpec{{Kind: arch.Sun}}
	for i := 0; i < 3; i++ {
		hosts = append(hosts, cluster.HostSpec{Kind: arch.Firefly, CPUs: 6})
	}
	slaves := make([]cluster.HostID, 8)
	for i := range slaves {
		slaves[i] = cluster.HostID(1 + i%3)
	}
	cfg := cluster.Config{Hosts: hosts, PageSize: 8192, Seed: seed, Params: jittered(), Policy: policy}
	rec := attach(&cfg, o)
	t0 := time.Now()
	c, err := build(cfg, &out)
	if err != nil {
		out.problems = append(out.problems, err.Error())
		return out
	}
	r := matmul.Register(c)
	out.setup = time.Since(t0)
	res, err := r.Run(matmul.Config{
		N: 256, Master: 0, Slaves: slaves, Assignment: matmul.MM2,
		JitterPct: 0.03, WriteChunk: 4, Verify: o.check,
		AcquireRelease: policy == dsm.PolicyRC,
	})
	if err != nil {
		out.problems = append(out.problems, err.Error())
		c.K.Shutdown()
		return out
	}
	if !res.Correct {
		out.problems = append(out.problems, "matmul: result differs from the reference multiply")
	}
	finish(c, res.Elapsed, rec, &out, t0)
	return out
}

// SOR on float32 across both architectures: a Sun master, two
// four-CPU Fireflies and a second Sun, five slaves on {1,1,2,2,3}, 1 KB
// pages, so boundary rows cross the IEEE/VAX boundary every iteration.
func runSOR(seed int64, o oracles) (out outcome) {
	defer guard(&out)
	hosts := []cluster.HostSpec{
		{Kind: arch.Sun},
		{Kind: arch.Firefly, CPUs: 4},
		{Kind: arch.Firefly, CPUs: 4},
		{Kind: arch.Sun},
	}
	cfg := cluster.Config{Hosts: hosts, PageSize: 1024, Seed: seed, Params: jittered()}
	rec := attach(&cfg, o)
	t0 := time.Now()
	c, err := build(cfg, &out)
	if err != nil {
		out.problems = append(out.problems, err.Error())
		return out
	}
	r := sor.Register(c)
	out.setup = time.Since(t0)
	res, err := r.Run(sor.Config{
		W: 256, H: 258, Iters: 20, Master: 0,
		Slaves: []cluster.HostID{1, 1, 2, 2, 3}, Verify: o.check,
	})
	if err != nil {
		out.problems = append(out.problems, err.Error())
		c.K.Shutdown()
		return out
	}
	if !res.Correct {
		out.problems = append(out.problems, "sor: grid differs from the sequential relaxation")
	}
	finish(c, res.Elapsed, rec, &out, t0)
	return out
}

// scaleHosts is the scale-1k cluster size: 32 segments of 32 hosts.
const scaleHosts = 1024

var scaleSchemes = []dsm.Directory{dsm.DirFixed, dsm.DirCentral, dsm.DirDynamic}

// runScale runs the three-phase directory workload of §3.1 extended
// once under each directory scheme on a 1024-host switched star.
func runScale(seed int64, o oracles) (out outcome) {
	defer guard(&out)
	for _, dir := range scaleSchemes {
		runScaleOnce(seed, dir, o, &out)
		if len(out.problems) > 0 {
			break
		}
	}
	return out
}

func runScaleOnce(seed int64, dir dsm.Directory, o oracles, out *outcome) {
	const (
		pages = 8
		per   = 256 // int32s per 1 KB page
	)
	n := scaleHosts
	hosts := make([]cluster.HostSpec, n)
	hosts[0] = cluster.HostSpec{Kind: arch.Sun}
	for i := 1; i < n; i++ {
		hosts[i] = cluster.HostSpec{Kind: arch.Firefly}
	}
	// The seed draws the order in which hosts take the migratory ring.
	order := rand.New(rand.NewSource(seed)).Perm(n - 1)
	cfg := cluster.Config{
		Hosts: hosts, Seed: seed, PageSize: 1024,
		Directory: dir, Topology: netsim.SwitchedStar(32, 32),
	}
	rec := attach(&cfg, o)
	t0 := time.Now()
	c, err := build(cfg, out)
	if err != nil {
		out.problems = append(out.problems, err.Error())
		return
	}
	out.setup += time.Since(t0)
	var elapsed sim.Duration
	c.Run(0, func(p *sim.Proc, h0 *cluster.Host) {
		addr, err := h0.DSM.Alloc(p, conv.Int32, per*pages)
		if err != nil {
			out.problems = append(out.problems, err.Error())
			return
		}
		start := p.Now()
		pageAddr := func(pg int) dsm.Addr { return addr + dsm.Addr(4*per*pg) }
		// Phase 1, the migratory ring: every host writes its id once to
		// one of pages 1..7, in the seed's order, so ownership never
		// sits where the directory last recorded it.
		last := make([]int32, pages)
		for _, k := range order {
			i := k + 1
			pg := 1 + i%(pages-1)
			c.Hosts[i].DSM.WriteInt32(p, pageAddr(pg), int32(i))
			last[pg] = int32(i)
		}
		// Phase 2, the full-copyset read: every host reads page 0.
		for i := 1; i < n; i++ {
			if got := c.Hosts[i].DSM.ReadInt32(p, pageAddr(0)); got != 0 {
				out.problems = append(out.problems, fmt.Sprintf("scale: host %d read %d from the hot page, want 0", i, got))
				return
			}
		}
		// Phase 3, one write invalidates every copy.
		c.Hosts[1].DSM.WriteInt32(p, pageAddr(0), 42)
		if got := c.Hosts[n-1].DSM.ReadInt32(p, pageAddr(0)); got != 42 {
			out.problems = append(out.problems, fmt.Sprintf("scale: stale read %d after the invalidating write, want 42", got))
		}
		for pg := 1; pg < pages; pg++ {
			if got := h0.DSM.ReadInt32(p, pageAddr(pg)); got != last[pg] {
				out.problems = append(out.problems, fmt.Sprintf("scale: page %d holds %d, last ring writer was %d", pg, got, last[pg]))
			}
		}
		elapsed = p.Now().Sub(start)
	})
	finish(c, elapsed, rec, out, t0)
}

// fillMatmul fills an int32 page the way matmul fills A and B: small
// non-negative values from a xorshift stream.
func fillMatmul(page []byte, rng *rand.Rand) {
	sun, _ := arch.ByKind(arch.Sun)
	for off := 0; off+4 <= len(page); off += 4 {
		conv.PutInt32(sun, page[off:], int32(rng.Intn(97)))
	}
}

// fillSOR fills a float32 page with relaxation values between the
// grid's boundary conditions (0 and 100).
func fillSOR(page []byte, rng *rand.Rand) {
	sun, _ := arch.ByKind(arch.Sun)
	for off := 0; off+4 <= len(page); off += 4 {
		conv.PutFloat32(sun, page[off:], 100*rng.Float32())
	}
}
