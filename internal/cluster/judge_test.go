package cluster

import (
	"errors"
	"strings"
	"testing"
	"time"

	"repro/internal/arch"
	"repro/internal/conv"
	"repro/internal/sctrace"
	"repro/internal/sim"
)

// TestJudgeOutcomes drives Judge with synthetic mains that reach each
// non-oracle rung of the outcome ladder, and checks the verdict, its
// detail, and that the ok run's page got the teardown audit.
func TestJudgeOutcomes(t *testing.T) {
	const semNever = 9
	for _, tc := range []struct {
		name     string
		main     func(p *sim.Proc, c *Cluster) error
		maxSteps int
		want     Outcome
		detail   string
	}{
		{
			name: "ok",
			main: func(p *sim.Proc, c *Cluster) error {
				// Heterogeneous traffic for the trace oracle and the
				// teardown audit to judge.
				addr, err := c.Hosts[0].DSM.Alloc(p, conv.Int32, 4)
				if err != nil {
					return err
				}
				if err := c.Hosts[1].DSM.WriteInt32sE(p, addr, []int32{7, -7}); err != nil {
					return err
				}
				got := make([]int32, 2)
				if err := c.Hosts[0].DSM.ReadInt32sE(p, addr, got); err != nil {
					return err
				}
				if got[0] != 7 || got[1] != -7 {
					return errors.New("read back wrong values")
				}
				return nil
			},
			maxSteps: 100_000,
			want:     OK,
		},
		{
			name:     "panic",
			main:     func(p *sim.Proc, c *Cluster) error { panic("boom") },
			maxSteps: 100_000,
			want:     Panic,
			detail:   "boom",
		},
		{
			name: "deadlock",
			main: func(p *sim.Proc, c *Cluster) error {
				c.Hosts[0].Sync.P(p, semNever) // never granted; the queue drains
				return nil
			},
			maxSteps: 100_000,
			want:     Deadlock,
			detail:   "event queue drained",
		},
		{
			name: "livelock",
			main: func(p *sim.Proc, c *Cluster) error {
				for {
					p.Sleep(time.Millisecond)
				}
			},
			maxSteps: 50,
			want:     Livelock,
			detail:   "step budget of 50 exhausted",
		},
		{
			name:     "app-error",
			main:     func(p *sim.Proc, c *Cluster) error { return errors.New("wrong answer") },
			maxSteps: 100_000,
			want:     AppError,
			detail:   "wrong answer",
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c, err := New(Config{
				Hosts:           []HostSpec{{Kind: arch.Sun}, {Kind: arch.Firefly}},
				Seed:            1,
				InvariantChecks: true,
				SCTrace:         sctrace.NewRecorder(),
			})
			if err != nil {
				t.Fatal(err)
			}
			defer c.K.Shutdown()
			c.DefineSemaphore(semNever, 0, 0)
			checksAtReturn := 0
			main := func(p *sim.Proc, c *Cluster) error {
				err := tc.main(p, c)
				checksAtReturn = c.Check.Checks()
				return err
			}
			v, err := c.Judge("judge-main", main, tc.maxSteps)
			if err != nil {
				t.Fatal(err)
			}
			if v.Outcome != tc.want || !strings.Contains(v.Detail, tc.detail) {
				t.Errorf("verdict %s %q, want %s containing %q", v.Outcome, v.Detail, tc.want, tc.detail)
			}
			if v.Steps == 0 || v.Steps > tc.maxSteps {
				t.Errorf("%d steps dispatched, budget %d", v.Steps, tc.maxSteps)
			}
			if tc.want == OK && (len(c.Rec.Ops()) == 0 || c.Check.Checks() == 0) {
				t.Errorf("ok run left the oracles nothing to judge: %d ops, %d checks", len(c.Rec.Ops()), c.Check.Checks())
			}
			if tc.want == OK && c.Check.Checks() <= checksAtReturn {
				t.Error("main returned but no teardown audit ran over its page")
			}
		})
	}
}

// TestJudgeNeedsOracles rejects a cluster built without the invariant
// checker or the recorder: its verdict could only ever be vacuous.
func TestJudgeNeedsOracles(t *testing.T) {
	c, err := New(Config{Hosts: []HostSpec{{Kind: arch.Sun}}, Seed: 1, InvariantChecks: true})
	if err != nil {
		t.Fatal(err)
	}
	defer c.K.Shutdown()
	if _, err := c.Judge("judge-main", func(*sim.Proc, *Cluster) error { return nil }, 10); err == nil {
		t.Fatal("Judge ran without an SC recorder attached")
	}
}
