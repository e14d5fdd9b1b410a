package cluster

import (
	"fmt"
	"strings"

	"repro/internal/dsm"
	"repro/internal/sctrace"
	"repro/internal/sim"
)

// Outcome classifies one judged run (see Judge). The constants are in
// precedence order: when several oracles fire, the lowest one is
// reported.
type Outcome int

const (
	// OK means every oracle passed.
	OK Outcome = iota
	// InvariantViolation means the protocol invariant checker tripped
	// during the run or in the teardown audit (stale copy, double
	// writer, owner disagreement, …).
	InvariantViolation
	// SCViolation means the trace oracle rejected the run's accesses:
	// no sequentially consistent witness order explains a read (or, under
	// release consistency, a read saw a value happens-before forbids).
	SCViolation
	// Panic means a simulated process panicked (protocol timeout,
	// unexpected state).
	Panic
	// Deadlock means the event queue drained before main finished.
	Deadlock
	// Livelock means the step budget ran out before main finished
	// (endless retransmission, or a wedged main while heartbeats keep the
	// queue busy).
	Livelock
	// AppError means main returned an error: the workload's own final
	// assertions failed.
	AppError
)

// String names the outcome.
func (o Outcome) String() string {
	switch o {
	case OK:
		return "ok"
	case InvariantViolation:
		return "invariant-violation"
	case SCViolation:
		return "sc-violation"
	case Panic:
		return "panic"
	case Deadlock:
		return "deadlock"
	case Livelock:
		return "livelock"
	case AppError:
		return "app-error"
	default:
		return fmt.Sprintf("Outcome(%d)", int(o))
	}
}

// Verdict is the judgment of one run.
type Verdict struct {
	// Outcome classifies the run; Detail explains a non-OK outcome.
	Outcome Outcome
	Detail  string
	// Steps is the number of kernel events dispatched.
	Steps int
}

// Judge runs main as the simulated process name and dispatches kernel
// events one at a time until main returns, the event queue drains, or
// maxSteps events have run. It then judges the run with every oracle:
// the invariant checker (violations are collected, not raised, and a
// teardown audit of the quiesced cluster runs when main finished
// without a panic), the policy's trace check over Rec, panic capture,
// deadlock and livelock detection, and main's own error. The cluster
// must have been built with InvariantChecks and SCTrace. Judge leaves
// the kernel as the run left it; the caller reads what it needs and
// calls K.Shutdown.
func (c *Cluster) Judge(name string, main func(*sim.Proc, *Cluster) error, maxSteps int) (Verdict, error) {
	if c.Check == nil || c.Rec == nil {
		return Verdict{}, fmt.Errorf("cluster: %s judged without the invariant checker and SC recorder attached", name)
	}
	var invs []dsm.Violation
	c.Check.SetFailHandler(func(v dsm.Violation) { invs = append(invs, v) })

	done := false
	var appErr error
	c.K.Spawn(name, func(p *sim.Proc) {
		appErr = main(p, c)
		done = true
	})
	steps := 0
	panicMsg := ""
	func() {
		defer func() {
			if r := recover(); r != nil {
				panicMsg = fmt.Sprint(r)
			}
		}()
		for !done && steps < maxSteps && c.K.Step() {
			steps++
		}
	}()
	if done && panicMsg == "" {
		// Final audit of the quiesced cluster (skips crashed hosts and
		// in-flight transactions).
		c.Check.CheckAll("teardown")
	}

	v := Verdict{Steps: steps}
	// The trace oracle is the policy's consistency model: the SC
	// witness checker for the sequentially consistent engines, the
	// happens-before checker under lazy release consistency.
	scViols := c.Hosts[0].DSM.TraceCheck(c.Rec.Ops())
	switch {
	case len(invs) > 0:
		v.Outcome = InvariantViolation
		v.Detail = invs[0].String()
		if len(invs) > 1 {
			v.Detail += fmt.Sprintf(" (+%d more)", len(invs)-1)
		}
	case len(scViols) > 0:
		v.Outcome = SCViolation
		v.Detail = strings.TrimSpace(sctrace.Report(scViols, 3))
	case panicMsg != "":
		v.Outcome = Panic
		v.Detail = panicMsg
	case !done && steps >= maxSteps:
		v.Outcome = Livelock
		v.Detail = fmt.Sprintf("step budget of %d exhausted at t=%v", maxSteps, c.K.Now())
	case !done:
		v.Outcome = Deadlock
		v.Detail = fmt.Sprintf("event queue drained; stalled: %v", c.K.Stalled())
	case appErr != nil:
		v.Outcome = AppError
		v.Detail = appErr.Error()
	}
	return v, nil
}
