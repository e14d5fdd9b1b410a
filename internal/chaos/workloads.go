package chaos

// The chaos workloads. Unlike the model checker's (which assume a
// fault-free fabric and assert exact results), these are written the
// way a fault-tolerant application would be: every DSM and dsync call
// goes through the error-returning variants, workers run as separate
// simulated processes per host (so a host crash kills its worker and
// nothing else), and the coordinator on host 0 — which is never
// crashed or partitioned — polls shared state while workers run, then
// applies final assertions calibrated to crash-stop semantics:
//
//   - With no host dead and every worker finished, progress must be
//     exact: the fabric's message faults (loss, duplication,
//     corruption, short partitions) are the protocol's to absorb.
//   - After a crash, a page value may roll back to the last replicated
//     snapshot (MRSW write-invalidate loses un-replicated writes with
//     their owner — that is the documented semantics, and the recovery
//     install re-records the snapshot so the SC oracle agrees), but it
//     must still be a value that was actually written, never torn.
//   - dsm.ErrPageLost is acceptable only if a host actually died (the
//     sole owner took the only copy down with it). A persistent
//     dsm.ErrHostDown on the coordinator's final read is *never*
//     acceptable: host 0's manager is alive, so a recoverable page
//     that stays unreadable means recovery itself is broken.
//
// The oracles of cluster.Judge (invariant checker, trace check, panic,
// livelock and deadlock detection) judge every run on top of these
// assertions.

import (
	"errors"
	"fmt"
	"sort"
	"time"

	"repro/internal/arch"
	"repro/internal/cluster"
	"repro/internal/conv"
	"repro/internal/dsm"
	"repro/internal/netsim"
	"repro/internal/sctrace"
	"repro/internal/sim"
)

// Workload names a reproducible chaos scenario.
type Workload struct {
	// Name is the CLI spelling and the replay-token component.
	Name string
	// Desc is a one-line description for listings.
	Desc string
	// Hosts is the cluster size (the plan generator needs it before
	// Build runs).
	Hosts int
	// Build constructs a fresh Instance wired to the given fault plan.
	Build func(seed int64, plan *netsim.FaultPlan, mut dsm.Mutation) (*Instance, error)
}

// Instance is one freshly built, not-yet-run chaos scenario.
type Instance struct {
	// C is the assembled cluster (checker attached, recorder wired).
	C *cluster.Cluster
	// Trace accumulates recovery events from the DSM trace stream.
	Trace *traceLog
	// Main is the coordinator body, run on host 0. A non-nil error is
	// an application-level verdict (AppError).
	Main func(p *sim.Proc, c *cluster.Cluster) error
}

const (
	chaosPageSize  = 8192
	chaosSpaceSize = 4 * 8192
	chaosPageInts  = chaosPageSize / 4

	// Workload tempo: workers act every workPeriod during the fault
	// horizon, the coordinator polls shared state every pollPeriod
	// (seeding replicas that make pages recoverable), and settlePhase
	// gives failure detection (~2–3 s after a late crash) plus the
	// recovery sweep room to converge before final assertions.
	workPeriod  = 120 * time.Millisecond
	pollPeriod  = 150 * time.Millisecond
	activePhase = 2400 * time.Millisecond
	settlePhase = 4500 * time.Millisecond

	chaosSemLock = 1
	chaosSemPing = 2
	chaosSemPong = 3
	chaosSemSlot = 4 // +w: the rc workload's per-worker interval brackets
)

// buildChaosCluster assembles a chaos cluster: calibrated cost model,
// failure detection, the fault plan, the invariant checker, an SC
// recorder and a recovery-event trace. engine picks the protocol under
// test through its Policy, Directory and Topology fields; every other
// field is overwritten. Most workloads pass dsm.DirCentral, which puts
// every page's manager (and, under RC, its home) on never-crashed host 0.
func buildChaosCluster(seed int64, kinds []arch.Kind, engine cluster.Config, plan *netsim.FaultPlan, mut dsm.Mutation) (*cluster.Cluster, *traceLog, error) {
	hosts := make([]cluster.HostSpec, len(kinds))
	for i, k := range kinds {
		hosts[i] = cluster.HostSpec{Kind: k}
	}
	tl := &traceLog{}
	c, err := cluster.New(cluster.Config{
		Hosts:            hosts,
		PageSize:         chaosPageSize,
		SpaceSize:        chaosSpaceSize,
		Seed:             seed,
		Policy:           engine.Policy,
		Directory:        engine.Directory,
		Topology:         engine.Topology,
		FailureDetection: true,
		InvariantChecks:  true,
		SCTrace:          sctrace.NewRecorder(),
		FaultPlan:        plan,
		Trace:            tl.observe,
		Mutation:         mut,
	})
	return c, tl, err
}

// anyDead reports whether host 0's detector has declared any peer dead.
func anyDead(c *cluster.Cluster) bool {
	for h := 1; h < len(c.Hosts); h++ {
		if c.Hosts[0].Detect.Dead(cluster.HostID(h)) {
			return true
		}
	}
	return false
}

// tolerableLost reports whether err is a page loss that crash-stop
// semantics permit: the sole owner died with the only copy.
func tolerableLost(err error, died bool) bool {
	return died && errors.Is(err, dsm.ErrPageLost)
}

// workloads is the registry, keyed by Name.
var workloads = map[string]*Workload{}

func register(w *Workload) { workloads[w.Name] = w }

// Lookup resolves a workload by name.
func Lookup(name string) (*Workload, error) {
	w, ok := workloads[name]
	if !ok {
		return nil, fmt.Errorf("chaos: unknown workload %q (have %v)", name, WorkloadNames())
	}
	return w, nil
}

// WorkloadNames lists registered workloads alphabetically.
func WorkloadNames() []string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// All returns every registered workload in name order.
func All() []*Workload {
	out := make([]*Workload, 0, len(workloads))
	for _, n := range WorkloadNames() {
		out = append(out, workloads[n])
	}
	return out
}

func init() {
	register(slotsWorkload())
	register(counterWorkload())
	register(handoffWorkload())
	register(forwardWorkload())
	register(switchedWorkload())
	register(quorumWorkload())
	register(rcWorkload())
}

// rcWorkload runs the slots pattern under lazy release consistency:
// each worker stamps its private page with a mirrored pair inside its
// own acquire/release bracket, so every round pushes one interval's
// diff to the home on host 0. The coordinator polls without acquiring —
// legal under RC (an unsynchronized read is concurrent with every
// interval it did not acquire) and never torn, because an interval's
// diff is applied to the home image atomically. A worker whose release
// cannot reach home retires with the error: release consistency has no
// quietly-degraded mode — an interval is pushed or it never happened.
// Final assertions: the coordinator reads the home image directly and a
// surviving witness host fetches it fresh; both must see each slot
// mirrored and no newer than the writer's last completed stamp, exact
// when nobody died and every worker finished.
func rcWorkload() *Workload {
	const rounds = 6
	return &Workload{
		Name:  "rc",
		Desc:  "3 hosts, lazy release consistency: per-worker interval stamps + unsynchronized polling coordinator",
		Hosts: 3,
		Build: func(seed int64, plan *netsim.FaultPlan, mut dsm.Mutation) (*Instance, error) {
			// Homes on host 0: the diff log, the only authoritative copy of
			// released intervals, survives every fault the plans inject.
			c, tl, err := buildChaosCluster(seed, []arch.Kind{arch.Sun, arch.Firefly, arch.Firefly},
				cluster.Config{Policy: dsm.PolicyRC, Directory: dsm.DirCentral}, plan, mut)
			if err != nil {
				return nil, err
			}
			for w := 0; w < 3; w++ {
				c.DefineSemaphore(chaosSemSlot+uint32(w), 0, 1)
			}
			main := func(p *sim.Proc, c *cluster.Cluster) error {
				h0 := c.Hosts[0]
				var pages [3]dsm.Addr
				for i := range pages {
					if pages[i], err = h0.DSM.Alloc(p, conv.Int32, chaosPageInts); err != nil {
						return err
					}
				}
				var last [3]int32
				var stopped [3]error
				var finished [3]bool
				for w := 0; w < 3; w++ {
					w := w
					host := c.Hosts[w]
					sem := chaosSemSlot + uint32(w)
					c.K.Spawn(fmt.Sprintf("rc-writer%d", w), func(wp *sim.Proc) {
						for i := int32(1); i <= rounds; i++ {
							if err := host.Sync.PE(wp, sem); err != nil {
								stopped[w] = err
								return
							}
							if err := host.DSM.WriteInt32sE(wp, pages[w], []int32{i, i}); err != nil {
								stopped[w] = err
								host.Sync.VE(wp, sem) // best-effort close before retiring
								return
							}
							last[w] = i
							// The V both releases the bracket and pushes the
							// interval's diff home; a push the fabric swallows
							// surfaces here.
							if err := host.Sync.VE(wp, sem); err != nil {
								stopped[w] = err
								return
							}
							wp.Sleep(2*workPeriod + time.Duration(w)*17*time.Millisecond)
						}
						finished[w] = true
					})
				}
				// Poll without acquiring: the first read faults each page in
				// from home, and host 0's copy IS the home image, updated in
				// place as diffs arrive — so the poll watches the intervals
				// land. A torn pair here means a diff applied non-atomically.
				for c.K.Now() < sim.Time(activePhase) {
					for w := 0; w < 3; w++ {
						var pair [2]int32
						if err := h0.DSM.ReadInt32sE(p, pages[w], pair[:]); err == nil && pair[0] != pair[1] {
							return fmt.Errorf("poll saw torn slot %d: %v", w, pair)
						}
					}
					p.Sleep(pollPeriod)
				}
				p.Sleep(settlePhase)

				died := anyDead(c)
				strict := !died
				for w := 0; w < 3; w++ {
					// A retransmission-delayed straggler can still be mid-round
					// at judgment time with nothing stopped; exactness needs
					// the worker to have pushed its final interval.
					if stopped[w] != nil || !finished[w] {
						strict = false
					}
				}
				// A witness that never touched the pages fetches them fresh
				// from home — the cross-host proof that released intervals
				// survived the fault horizon. Worker hosts only ever fault
				// their own page, so host 2 is a fresh reader for slots 0
				// and 1, host 1 for slot 2.
				for w := 0; w < 3; w++ {
					witness := c.Hosts[2-w/2]
					readers := []*cluster.Host{h0}
					if !h0.Detect.Dead(witness.ID) {
						readers = append(readers, witness)
					}
					for _, reader := range readers {
						var pair [2]int32
						if err := reader.DSM.ReadInt32sE(p, pages[w], pair[:]); err != nil {
							// Homes never crash, so RC never loses a page: a
							// final read may not fail.
							return fmt.Errorf("host %d: slot %d unreadable after settle: %w", reader.ID, w, err)
						}
						if pair[0] != pair[1] {
							return fmt.Errorf("host %d: slot %d torn after settle: %v", reader.ID, w, pair)
						}
						if pair[0] < 0 || pair[0] > last[w] {
							return fmt.Errorf("host %d: slot %d = %d, never released (writer completed %d)", reader.ID, w, pair[0], last[w])
						}
						if strict && pair[0] != rounds {
							return fmt.Errorf("host %d: slot %d = %d, want %d with every host alive", reader.ID, w, pair[0], rounds)
						}
					}
				}
				return nil
			}
			return &Instance{C: c, Trace: tl, Main: main}, nil
		},
	}
}

// quorumWorkload runs the slots pattern under SC-ABD majority quorum on
// five hosts, with the availability oracle the quorum engine exists
// for: the coordinator records the completion time of every successful
// poll, and for each sufficiently long partition window the run FAILS
// unless some poll completed *while the partition was open* — the
// majority side must keep computing, not merely recover after the
// heal. Five hosts make every generated plan majority-preserving once
// the partitions are re-aimed at a single victim (below): one host cut
// plus one host crashed still leaves host 0 in a three-host component,
// and a majority of three is a quorum of five. Quorum replication has
// no sole-owner data loss, so unlike the MRSW workloads the final reads
// must succeed even after a crash — ErrPageLost is never tolerable.
func quorumWorkload() *Workload {
	const rounds = 12
	// livenessWindow is the shortest partition the progress oracle
	// judges: the coordinator polls every pollPeriod, so a window this
	// long sees several whole poll rounds even if frame loss costs a
	// round a retransmission timeout or two.
	const livenessWindow = 500 * time.Millisecond
	return &Workload{
		Name:  "quorum",
		Desc:  "5 hosts, SC-ABD majority quorum: per-host writers + polling coordinator (progress during partitions)",
		Hosts: 5,
		Build: func(seed int64, plan *netsim.FaultPlan, mut dsm.Mutation) (*Instance, error) {
			// The generator cuts one host per partition window, but two
			// windows may overlap on different victims; together with the
			// mix class's crash that could strand host 0 in a two-host
			// component — below any quorum. Re-aim every window at the
			// first victim: the same windows in time, never more than one
			// host cut at once, majority component guaranteed.
			for i := 1; i < len(plan.Partitions); i++ {
				plan.Partitions[i].Group = plan.Partitions[0].Group
			}
			kinds := []arch.Kind{arch.Sun, arch.Firefly, arch.Sun, arch.Firefly, arch.Sun}
			c, tl, err := buildChaosCluster(seed, kinds, cluster.Config{Policy: dsm.PolicyQuorum, Directory: dsm.DirCentral}, plan, mut)
			if err != nil {
				return nil, err
			}
			main := func(p *sim.Proc, c *cluster.Cluster) error {
				h0 := c.Hosts[0]
				var pages [3]dsm.Addr
				for i := range pages {
					if pages[i], err = h0.DSM.Alloc(p, conv.Int32, chaosPageInts); err != nil {
						return err
					}
				}
				var last [3]int32
				var stopped [3]error
				for w := 0; w < 3; w++ {
					w := w
					host := c.Hosts[w+1]
					c.K.Spawn(fmt.Sprintf("quorum-writer%d", w), func(wp *sim.Proc) {
						for i := int32(1); i <= rounds; i++ {
							if err := host.DSM.WriteInt32sE(wp, pages[w], []int32{i, i}); err != nil {
								stopped[w] = err
								return
							}
							last[w] = i
							wp.Sleep(2*workPeriod + time.Duration(w)*17*time.Millisecond)
						}
					})
				}
				// Poll while the writers run, recording when each success
				// completed — the raw material for the partition-progress
				// oracle. Host 0 is never cut, so it is always in the
				// majority component and its reads must keep completing.
				var completions []sim.Time
				for c.K.Now() < sim.Time(activePhase) {
					for w := 0; w < 3; w++ {
						var pair [2]int32
						if err := h0.DSM.ReadInt32sE(p, pages[w], pair[:]); err == nil {
							if pair[0] != pair[1] {
								return fmt.Errorf("poll saw torn slot %d: %v", w, pair)
							}
							completions = append(completions, c.K.Now())
						}
					}
					p.Sleep(pollPeriod)
				}
				p.Sleep(settlePhase)

				// Liveness under partition: for every long-enough window,
				// some coordinator poll must have completed while the cut
				// was open. The guarantee is partition-tolerance — prompt
				// delivery among the majority — so windows overlapped by a
				// loss or corruption burst are exempt: with the quorum cut
				// to the bare majority, every dropped frame costs a full
				// request timeout, and that stall is the burst's doing,
				// not the partition's.
				for _, pt := range plan.Partitions {
					if pt.Until-pt.From < sim.Time(livenessWindow) {
						continue
					}
					lossy := false
					for _, b := range append(append([]netsim.Burst{}, plan.Loss...), plan.Corrupt...) {
						until := b.Until
						if until == 0 {
							until = sim.Time(activePhase + settlePhase)
						}
						if b.From < pt.Until && until > pt.From {
							lossy = true
							break
						}
					}
					if lossy {
						continue
					}
					progressed := false
					for _, t := range completions {
						if t >= pt.From && t < pt.Until {
							progressed = true
							break
						}
					}
					if !progressed {
						return fmt.Errorf("no coordinator op completed during partition [%v, %v): the majority component stalled",
							time.Duration(pt.From), time.Duration(pt.Until))
					}
				}

				died := anyDead(c)
				strict := !died
				for w := 0; w < 3; w++ {
					if stopped[w] != nil {
						strict = false
					}
				}
				// A witness on a surviving non-coordinator host forces a
				// second quorum assembly for each page.
				witness := h0
				for h := 1; h < len(c.Hosts); h++ {
					if !h0.Detect.Dead(cluster.HostID(h)) {
						witness = c.Hosts[h]
						break
					}
				}
				for _, reader := range []*cluster.Host{h0, witness} {
					for w := 0; w < 3; w++ {
						var pair [2]int32
						if err := reader.DSM.ReadInt32sE(p, pages[w], pair[:]); err != nil {
							// Majority replication tolerates every fault the
							// plans inject: a final read may never fail.
							return fmt.Errorf("host %d: slot %d unreadable after settle: %w", reader.ID, w, err)
						}
						if pair[0] != pair[1] {
							return fmt.Errorf("host %d: slot %d torn after settle: %v", reader.ID, w, pair)
						}
						// +1: a writer killed mid-operation records nothing,
						// but its in-flight write may still have reached
						// enough replicas for a later read to adopt and
						// write back — ABD's interrupted writes linearize,
						// they do not roll back like an MRSW owner's.
						if pair[0] < 0 || pair[0] > last[w]+1 {
							return fmt.Errorf("host %d: slot %d = %d, never written (writer completed %d)", reader.ID, w, pair[0], last[w])
						}
						if strict && pair[0] != rounds {
							return fmt.Errorf("host %d: slot %d = %d, want %d with every host alive", reader.ID, w, pair[0], rounds)
						}
					}
				}
				return nil
			}
			return &Instance{C: c, Trace: tl, Main: main}, nil
		},
	}
}

// switchedWorkload is the slots pattern stretched across a switched
// 3-segment star (two hosts per segment): the writers live on three
// different segments, so every coordinator poll and every recovery
// exchange crosses inter-segment links. On top of the class's fault
// plan, Build severs one of the star's uplinks for a fixed window —
// the switched fabric's native partition, with no host list to
// enumerate — kept shorter than the failure detector's death
// threshold, so the protocol must ride the cut out with retries.
func switchedWorkload() *Workload {
	const rounds = 12
	// One writer per segment (host h lives on segment h/2).
	writers := [3]int{1, 3, 5}
	return &Workload{
		Name:  "switched",
		Desc:  "6 hosts on 3 switched segments, cross-segment writers + polling coordinator (inter-segment link cut)",
		Hosts: 6,
		Build: func(seed int64, plan *netsim.FaultPlan, mut dsm.Mutation) (*Instance, error) {
			topo := netsim.SwitchedStar(3, 2)
			// Sever the uplink to leaf segment 1 or 2, by seed. The
			// 900 ms window stays under the 1200 ms partition bound.
			// Mix plans already layer loss, a partition and a crash;
			// stacking the cut on top pushes a live host's total
			// unreachability past what the failure detector and the
			// retry budget are calibrated for, so those runs keep the
			// class's own faults only.
			if len(plan.Partitions) == 0 || len(plan.Crashes) == 0 {
				plan.LinkCuts = append(plan.LinkCuts, netsim.LinkCut{
					Window: netsim.Window{
						From:  sim.Time(400 * time.Millisecond),
						Until: sim.Time(1300 * time.Millisecond),
					},
					A: 0,
					B: 1 + int(seed&1),
				})
			}
			kinds := []arch.Kind{arch.Sun, arch.Firefly, arch.Firefly, arch.Firefly, arch.Firefly, arch.Firefly}
			c, tl, err := buildChaosCluster(seed, kinds, cluster.Config{Directory: dsm.DirCentral, Topology: topo}, plan, mut)
			if err != nil {
				return nil, err
			}
			main := func(p *sim.Proc, c *cluster.Cluster) error {
				h0 := c.Hosts[0]
				var pages [3]dsm.Addr
				for i := range pages {
					if pages[i], err = h0.DSM.Alloc(p, conv.Int32, chaosPageInts); err != nil {
						return err
					}
				}
				var last [3]int32
				var stopped [3]error
				for w := 0; w < 3; w++ {
					w := w
					host := c.Hosts[writers[w]]
					c.K.Spawn(fmt.Sprintf("seg-writer%d", w), func(wp *sim.Proc) {
						for i := int32(1); i <= rounds; i++ {
							if err := host.DSM.WriteInt32sE(wp, pages[w], []int32{i, i}); err != nil {
								stopped[w] = err
								return
							}
							last[w] = i
							wp.Sleep(2*workPeriod + time.Duration(w)*17*time.Millisecond)
						}
					})
				}
				// Poll across the segments while the writers run; every
				// successful read leaves a replica on segment 0 that
				// recovery can run on.
				for c.K.Now() < sim.Time(activePhase) {
					for w := 0; w < 3; w++ {
						var pair [2]int32
						if err := h0.DSM.ReadInt32sE(p, pages[w], pair[:]); err == nil && pair[0] != pair[1] {
							return fmt.Errorf("poll saw torn slot %d: %v", w, pair)
						}
					}
					p.Sleep(pollPeriod)
				}
				p.Sleep(settlePhase)

				died := anyDead(c)
				strict := !died
				for w := 0; w < 3; w++ {
					if stopped[w] != nil {
						strict = false
					}
				}
				// A witness on a surviving non-coordinator host forces the
				// final reads back across the star.
				witness := h0
				for h := 1; h < len(c.Hosts); h++ {
					if !h0.Detect.Dead(cluster.HostID(h)) {
						witness = c.Hosts[h]
						break
					}
				}
				for _, reader := range []*cluster.Host{h0, witness} {
					for w := 0; w < 3; w++ {
						var pair [2]int32
						err := reader.DSM.ReadInt32sE(p, pages[w], pair[:])
						switch {
						case err == nil:
							if pair[0] != pair[1] {
								return fmt.Errorf("host %d: slot %d torn after settle: %v", reader.ID, w, pair)
							}
							if pair[0] < 0 || pair[0] > last[w] {
								return fmt.Errorf("host %d: slot %d = %d, never written (writer completed %d)", reader.ID, w, pair[0], last[w])
							}
							if strict && pair[0] != rounds {
								return fmt.Errorf("host %d: slot %d = %d, want %d with every host alive", reader.ID, w, pair[0], rounds)
							}
						case tolerableLost(err, died):
							// Sole owner died holding the only copy.
						default:
							return fmt.Errorf("host %d: slot %d unreadable after settle: %w", reader.ID, w, err)
						}
					}
				}
				return nil
			}
			return &Instance{C: c, Trace: tl, Main: main}, nil
		},
	}
}

// slotsWorkload gives each host a private page it stamps with a
// monotone sequence number, mirrored in a second word of the same
// access (so a recovered page is either a complete snapshot or wrong).
// The coordinator polls every page while the writers run — each poll
// leaves a read replica in the page's copyset, which is exactly what
// makes the page recoverable when its owner dies. Final assertions:
// each slot must read back a mirrored pair no newer than the writer's
// last completed write; exact progress when nobody died.
func slotsWorkload() *Workload {
	const rounds = 12
	return &Workload{
		Name:  "slots",
		Desc:  "3 hosts, per-host monotone writers + polling coordinator (recovery rollback bounds)",
		Hosts: 3,
		Build: func(seed int64, plan *netsim.FaultPlan, mut dsm.Mutation) (*Instance, error) {
			c, tl, err := buildChaosCluster(seed, []arch.Kind{arch.Sun, arch.Firefly, arch.Firefly}, cluster.Config{Directory: dsm.DirCentral}, plan, mut)
			if err != nil {
				return nil, err
			}
			main := func(p *sim.Proc, c *cluster.Cluster) error {
				h0 := c.Hosts[0]
				var pages [3]dsm.Addr
				for i := range pages {
					if pages[i], err = h0.DSM.Alloc(p, conv.Int32, chaosPageInts); err != nil {
						return err
					}
				}
				var last [3]int32
				var stopped [3]error
				for w := 0; w < 3; w++ {
					w := w
					host := c.Hosts[w]
					c.K.Spawn(fmt.Sprintf("slot-writer%d", w), func(wp *sim.Proc) {
						for i := int32(1); i <= rounds; i++ {
							if err := host.DSM.WriteInt32sE(wp, pages[w], []int32{i, i}); err != nil {
								stopped[w] = err
								return
							}
							last[w] = i
							// Dwell two poll periods between stamps so the
							// coordinator's replica usually postdates the last
							// write — that replica is what recovery runs on.
							wp.Sleep(2*workPeriod + time.Duration(w)*17*time.Millisecond)
						}
					})
				}
				// Poll while the writers run: transient errors during fault
				// windows are the fabric's business, but every successful
				// read refreshes this host's replica.
				for c.K.Now() < sim.Time(activePhase) {
					for w := 0; w < 3; w++ {
						var pair [2]int32
						if err := h0.DSM.ReadInt32sE(p, pages[w], pair[:]); err == nil && pair[0] != pair[1] {
							return fmt.Errorf("poll saw torn slot %d: %v", w, pair)
						}
					}
					p.Sleep(pollPeriod)
				}
				p.Sleep(settlePhase)

				died := anyDead(c)
				strict := !died
				for w := 0; w < 3; w++ {
					if stopped[w] != nil {
						strict = false
					}
				}
				// The coordinator's own replica could satisfy its read
				// without a fault; a witness on another surviving host has
				// no copy, so its read must go through the manager — the
				// end-to-end proof that pages still *serve* after recovery.
				witness := h0
				for h := 1; h < 3; h++ {
					if !h0.Detect.Dead(cluster.HostID(h)) {
						witness = c.Hosts[h]
						break
					}
				}
				for _, reader := range []*cluster.Host{h0, witness} {
					for w := 0; w < 3; w++ {
						var pair [2]int32
						err := reader.DSM.ReadInt32sE(p, pages[w], pair[:])
						switch {
						case err == nil:
							if pair[0] != pair[1] {
								return fmt.Errorf("host %d: slot %d torn after settle: %v", reader.ID, w, pair)
							}
							if pair[0] < 0 || pair[0] > last[w] {
								return fmt.Errorf("host %d: slot %d = %d, never written (writer completed %d)", reader.ID, w, pair[0], last[w])
							}
							if strict && pair[0] != rounds {
								return fmt.Errorf("host %d: slot %d = %d, want %d with every host alive", reader.ID, w, pair[0], rounds)
							}
						case tolerableLost(err, died):
							// Sole owner died holding the only copy.
						default:
							return fmt.Errorf("host %d: slot %d unreadable after settle: %w", reader.ID, w, err)
						}
					}
				}
				return nil
			}
			return &Instance{C: c, Trace: tl, Main: main}, nil
		},
	}
}

// forwardWorkload runs under the dynamic distributed directory: three
// workers stamp disjoint mirrored pairs of one shared page, so every
// stamp migrates the page's ownership to the writer and the next
// writer's request chases a probable-owner chain. The coordinator
// polls the page (refreshing the replica recovery runs on) while the
// fault plan drops, cuts and crashes around the forwards — a crash can
// land on the owner, on a forwarder mid-chain, or between the
// invalidation round and the handoff. Final assertions mirror
// slotsWorkload's: each pair must read back mirrored and no newer than
// its writer's last completed stamp; exact when nobody died and every
// worker finished.
func forwardWorkload() *Workload {
	const rounds = 12
	return &Workload{
		Name:  "forward",
		Desc:  "4 hosts, dynamic directory: writers migrate one page through probable-owner chains (crash mid-forward)",
		Hosts: 4,
		Build: func(seed int64, plan *netsim.FaultPlan, mut dsm.Mutation) (*Instance, error) {
			c, tl, err := buildChaosCluster(seed, []arch.Kind{arch.Sun, arch.Firefly, arch.Sun, arch.Firefly},
				cluster.Config{Directory: dsm.DirDynamic}, plan, mut)
			if err != nil {
				return nil, err
			}
			main := func(p *sim.Proc, c *cluster.Cluster) error {
				h0 := c.Hosts[0]
				page, err := h0.DSM.Alloc(p, conv.Int32, chaosPageInts)
				if err != nil {
					return err
				}
				slot := func(w int) dsm.Addr { return page + dsm.Addr(8*w) }
				var last [3]int32
				var stopped [3]error
				for w := 0; w < 3; w++ {
					w := w
					host := c.Hosts[w+1]
					c.K.Spawn(fmt.Sprintf("forward-writer%d", w), func(wp *sim.Proc) {
						for i := int32(1); i <= rounds; i++ {
							if err := host.DSM.WriteInt32sE(wp, slot(w), []int32{i, i}); err != nil {
								stopped[w] = err
								return
							}
							last[w] = i
							// Stagger the writers so ownership keeps rotating
							// through all three and the chains stay warm.
							wp.Sleep(workPeriod + time.Duration(w)*37*time.Millisecond)
						}
					})
				}
				for c.K.Now() < sim.Time(activePhase) {
					for w := 0; w < 3; w++ {
						var pair [2]int32
						if err := h0.DSM.ReadInt32sE(p, slot(w), pair[:]); err == nil && pair[0] != pair[1] {
							return fmt.Errorf("poll saw torn pair %d: %v", w, pair)
						}
					}
					p.Sleep(pollPeriod)
				}
				p.Sleep(settlePhase)

				died := anyDead(c)
				strict := !died
				for w := 0; w < 3; w++ {
					if stopped[w] != nil {
						strict = false
					}
				}
				// A witness with no replica proves the page still serves
				// through the (possibly repaired) hint graph after settle.
				witness := h0
				for h := 1; h < 4; h++ {
					if !h0.Detect.Dead(cluster.HostID(h)) {
						witness = c.Hosts[h]
						break
					}
				}
				for _, reader := range []*cluster.Host{h0, witness} {
					for w := 0; w < 3; w++ {
						var pair [2]int32
						err := reader.DSM.ReadInt32sE(p, slot(w), pair[:])
						switch {
						case err == nil:
							if pair[0] != pair[1] {
								return fmt.Errorf("host %d: pair %d torn after settle: %v", reader.ID, w, pair)
							}
							if pair[0] < 0 || pair[0] > last[w] {
								return fmt.Errorf("host %d: pair %d = %d, never written (writer completed %d)", reader.ID, w, pair[0], last[w])
							}
							if strict && pair[0] != rounds {
								return fmt.Errorf("host %d: pair %d = %d, want %d with every host alive", reader.ID, w, pair[0], rounds)
							}
						case tolerableLost(err, died):
							// The owner died holding the only copy.
						default:
							return fmt.Errorf("host %d: pair %d unreadable after settle: %w", reader.ID, w, err)
						}
					}
				}
				return nil
			}
			return &Instance{C: c, Trace: tl, Main: main}, nil
		},
	}
}

// counterWorkload increments one shared counter from every host under
// a distributed semaphore. A worker that hits a fault releases the
// lock if it can and retires; a worker whose host crashes inside the
// critical section takes the lock to its grave, parking the others —
// the coordinator never waits on workers, so that is tolerated, not a
// hang. Final assertions: exact count when nobody died and every
// worker finished; otherwise the counter must not exceed the completed
// increments (recovery may roll it back, never forward).
func counterWorkload() *Workload {
	const rounds = 6
	return &Workload{
		Name:  "counter",
		Desc:  "3 hosts, semaphore-locked shared counter (exact under message faults, bounded under crashes)",
		Hosts: 3,
		Build: func(seed int64, plan *netsim.FaultPlan, mut dsm.Mutation) (*Instance, error) {
			c, tl, err := buildChaosCluster(seed, []arch.Kind{arch.Sun, arch.Firefly, arch.Sun}, cluster.Config{Directory: dsm.DirCentral}, plan, mut)
			if err != nil {
				return nil, err
			}
			c.DefineSemaphore(chaosSemLock, 0, 1)
			main := func(p *sim.Proc, c *cluster.Cluster) error {
				h0 := c.Hosts[0]
				ctr, err := h0.DSM.Alloc(p, conv.Int32, chaosPageInts)
				if err != nil {
					return err
				}
				var incr [3]int32
				var stopped [3]error
				for w := 0; w < 3; w++ {
					w := w
					host := c.Hosts[w]
					c.K.Spawn(fmt.Sprintf("counter%d", w), func(wp *sim.Proc) {
						for i := 0; i < rounds; i++ {
							if err := host.Sync.PE(wp, chaosSemLock); err != nil {
								stopped[w] = err
								return
							}
							v, err := host.DSM.ReadInt32E(wp, ctr)
							if err == nil {
								err = host.DSM.WriteInt32E(wp, ctr, v+1)
							}
							if err != nil {
								stopped[w] = err
								host.Sync.VE(wp, chaosSemLock) // best-effort release before retiring
								return
							}
							incr[w]++
							if err := host.Sync.VE(wp, chaosSemLock); err != nil {
								stopped[w] = err
								return
							}
							wp.Sleep(workPeriod)
						}
					})
				}
				for c.K.Now() < sim.Time(activePhase) {
					h0.DSM.ReadInt32E(p, ctr) // poll to seed replicas; errors are transient
					p.Sleep(pollPeriod)
				}
				p.Sleep(settlePhase)

				died := anyDead(c)
				strict := !died
				var completed int32
				for w := 0; w < 3; w++ {
					completed += incr[w]
					if stopped[w] != nil {
						strict = false
					}
				}
				got, err := h0.DSM.ReadInt32E(p, ctr)
				switch {
				case err == nil:
					if strict && got != 3*rounds {
						return fmt.Errorf("counter = %d, want %d with every host alive", got, 3*rounds)
					}
					if got < 0 || got > completed+1 {
						// +1: a crashed worker may have committed its write
						// locally without living to record it.
						return fmt.Errorf("counter = %d, outside [0, %d]", got, completed+1)
					}
				case tolerableLost(err, died):
				default:
					return fmt.Errorf("counter unreadable after settle: %w", err)
				}
				return nil
			}
			return &Instance{C: c, Trace: tl, Main: main}, nil
		},
	}
}

// handoffWorkload ping-pongs ownership of one page between two hosts
// of different architectures: each increment is a full ownership
// transfer with conversion, so a crash has a wide window to land in
// the middle of a handoff — the exact scenario the manager's
// suspect-transfer reconciliation exists for. Final assertions mirror
// counterWorkload's.
func handoffWorkload() *Workload {
	const rounds = 4
	return &Workload{
		Name:  "handoff",
		Desc:  "3 hosts, strict ownership ping-pong across architectures (crash mid-handoff)",
		Hosts: 3,
		Build: func(seed int64, plan *netsim.FaultPlan, mut dsm.Mutation) (*Instance, error) {
			c, tl, err := buildChaosCluster(seed, []arch.Kind{arch.Sun, arch.Sun, arch.Firefly}, cluster.Config{Directory: dsm.DirCentral}, plan, mut)
			if err != nil {
				return nil, err
			}
			c.DefineSemaphore(chaosSemPing, 0, 1)
			c.DefineSemaphore(chaosSemPong, 0, 0)
			main := func(p *sim.Proc, c *cluster.Cluster) error {
				h0 := c.Hosts[0]
				val, err := h0.DSM.Alloc(p, conv.Int32, chaosPageInts)
				if err != nil {
					return err
				}
				var incr [2]int32
				var stopped [2]error
				sems := [2]uint32{chaosSemPing, chaosSemPong}
				for w := 0; w < 2; w++ {
					w := w
					host := c.Hosts[w+1]
					c.K.Spawn(fmt.Sprintf("handoff%d", w), func(wp *sim.Proc) {
						for i := 0; i < rounds; i++ {
							if err := host.Sync.PE(wp, sems[w]); err != nil {
								stopped[w] = err
								return
							}
							v, err := host.DSM.ReadInt32E(wp, val)
							if err == nil {
								err = host.DSM.WriteInt32E(wp, val, v+1)
							}
							if err != nil {
								stopped[w] = err
								host.Sync.VE(wp, sems[1-w]) // best-effort: let the partner run on
								return
							}
							incr[w]++
							if err := host.Sync.VE(wp, sems[1-w]); err != nil {
								stopped[w] = err
								return
							}
						}
					})
				}
				for c.K.Now() < sim.Time(activePhase) {
					var pair [1]int32
					h0.DSM.ReadInt32sE(p, val, pair[:]) // poll to seed replicas; errors are transient
					p.Sleep(pollPeriod)
				}
				p.Sleep(settlePhase)

				died := anyDead(c)
				strict := !died && stopped[0] == nil && stopped[1] == nil
				completed := incr[0] + incr[1]
				got, err := h0.DSM.ReadInt32E(p, val)
				switch {
				case err == nil:
					if strict && got != 2*rounds {
						return fmt.Errorf("handoff value = %d, want %d with every host alive", got, 2*rounds)
					}
					if got < 0 || got > completed+1 {
						return fmt.Errorf("handoff value = %d, outside [0, %d]", got, completed+1)
					}
				case tolerableLost(err, died):
				default:
					return fmt.Errorf("handoff value unreadable after settle: %w", err)
				}
				return nil
			}
			return &Instance{C: c, Trace: tl, Main: main}, nil
		},
	}
}
