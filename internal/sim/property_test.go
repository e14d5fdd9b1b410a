package sim

// Model-based property tests: random operation sequences against
// reference models of the primitives.

import (
	"fmt"
	"math/rand"
	"runtime"
	"testing"
	"time"
)

func TestPropertySemaphoreAgainstReferenceModel(t *testing.T) {
	// Random interleavings of P/V across many processes must never let
	// the number of in-critical-section processes exceed the initial
	// count, and total grants must equal initial + V's when demand is
	// unbounded.
	for seed := int64(0); seed < 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		k := NewKernel(seed)
		initial := 1 + rng.Intn(3)
		sem := NewSemaphore(k, initial)
		inside := 0
		maxInside := 0
		grants := 0
		procs := 4 + rng.Intn(5)
		for i := 0; i < procs; i++ {
			delay := time.Duration(rng.Intn(50)) * time.Millisecond
			hold := time.Duration(1+rng.Intn(20)) * time.Millisecond
			k.Spawn("p", func(p *Proc) {
				p.Sleep(delay)
				sem.P(p)
				grants++
				inside++
				if inside > maxInside {
					maxInside = inside
				}
				p.Sleep(hold)
				inside--
				sem.V()
			})
		}
		k.Run()
		if maxInside > initial {
			t.Fatalf("seed %d: %d processes inside with count %d", seed, maxInside, initial)
		}
		if grants != procs {
			t.Fatalf("seed %d: %d grants for %d processes", seed, grants, procs)
		}
		if sem.Count() != initial {
			t.Fatalf("seed %d: final count %d, want %d restored", seed, sem.Count(), initial)
		}
	}
}

func TestPropertyQueueIsFIFOUnderRandomTiming(t *testing.T) {
	for seed := int64(0); seed < 10; seed++ {
		rng := rand.New(rand.NewSource(seed))
		k := NewKernel(seed)
		q := NewQueue(k)
		const items = 30
		var got []int
		k.Spawn("producer", func(p *Proc) {
			for i := 0; i < items; i++ {
				p.Sleep(time.Duration(rng.Intn(5)) * time.Millisecond)
				q.Put(i)
			}
		})
		k.Spawn("consumer", func(p *Proc) {
			for i := 0; i < items; i++ {
				got = append(got, q.Get(p).(int))
			}
		})
		k.Run()
		for i, v := range got {
			if v != i {
				t.Fatalf("seed %d: item %d = %d, FIFO violated", seed, i, v)
			}
		}
	}
}

func TestPropertyResourceNeverOversubscribed(t *testing.T) {
	for seed := int64(0); seed < 10; seed++ {
		rng := rand.New(rand.NewSource(seed))
		k := NewKernel(seed)
		capacity := 1 + rng.Intn(4)
		r := NewResource(k, capacity)
		over := false
		for i := 0; i < 12; i++ {
			delay := time.Duration(rng.Intn(30)) * time.Millisecond
			hold := time.Duration(1+rng.Intn(15)) * time.Millisecond
			k.Spawn("u", func(p *Proc) {
				p.Sleep(delay)
				r.Acquire(p)
				if r.InUse() > capacity {
					over = true
				}
				p.Sleep(hold)
				r.Release()
			})
		}
		k.Run()
		if over {
			t.Fatalf("seed %d: resource oversubscribed beyond %d", seed, capacity)
		}
		if r.InUse() != 0 {
			t.Fatalf("seed %d: %d still in use at end", seed, r.InUse())
		}
	}
}

func TestPropertyVirtualTimeNeverDecreases(t *testing.T) {
	for seed := int64(0); seed < 5; seed++ {
		rng := rand.New(rand.NewSource(seed))
		k := NewKernel(seed)
		last := Time(0)
		violated := false
		check := func(p *Proc) {
			if p.Now() < last {
				violated = true
			}
			last = p.Now()
		}
		sem := NewSemaphore(k, 1)
		for i := 0; i < 10; i++ {
			k.Spawn("p", func(p *Proc) {
				for j := 0; j < 5; j++ {
					p.Sleep(time.Duration(rng.Intn(10)) * time.Millisecond)
					check(p)
					sem.P(p)
					check(p)
					p.Sleep(time.Duration(rng.Intn(3)) * time.Millisecond)
					sem.V()
					check(p)
				}
			})
		}
		k.Run()
		if violated {
			t.Fatalf("seed %d: virtual time went backwards", seed)
		}
	}
}

// handoffWorld is one run of a random program: the shared primitives
// its processes and callbacks use, and the (time, process, action) log
// that two schedules must agree on.
type handoffWorld struct {
	k       *Kernel
	seed    int64
	sem     *Semaphore
	q       *Queue
	bar     *Barrier
	waiters []Waiter
	spawned int
	log     []string
}

func (w *handoffWorld) note(who, format string, args ...any) {
	w.log = append(w.log, fmt.Sprintf("%d %s ", w.k.Now(), who)+fmt.Sprintf(format, args...))
}

// callback builds an event callback that logs and stirs the program: a
// put, a V or a wake of the oldest registered waiter.
func (w *handoffWorld) callback(name string, act int) func() {
	return func() {
		w.note(name, "fires")
		switch act {
		case 0:
			w.q.Put(name)
		case 1:
			w.sem.V()
		case 2:
			if len(w.waiters) > 0 {
				w.k.Wake(w.waiters[0], WakeSignal)
				w.waiters = w.waiters[1:]
			}
		}
	}
}

// spawn starts a process whose every decision comes from its own
// generator, seeded by the program seed and its spawn order, so the
// program is the same whichever goroutine dispatches its events.
func (w *handoffWorld) spawn(depth int) {
	w.spawned++
	id := w.spawned
	rng := rand.New(rand.NewSource(w.seed*1000 + int64(id)))
	w.k.Spawn(fmt.Sprintf("p%d", id), func(p *Proc) {
		name := p.Name()
		w.note(name, "starts")
		defer w.note(name, "exits")
		ms := func(n int) Duration { return Duration(rng.Intn(n)) * time.Millisecond }
		for op := rng.Intn(25); op > 0; op-- {
			switch rng.Intn(12) {
			case 0:
				p.Sleep(ms(4))
				w.note(name, "slept")
			case 1:
				p.Yield()
				w.note(name, "yielded")
			case 2:
				w.waiters = append(w.waiters, p.PrepareWait())
				w.note(name, "park=%d", p.ParkTimeout(ms(6)))
			case 3:
				w.sem.P(p)
				w.note(name, "P")
				p.Sleep(ms(3))
				w.sem.V()
			case 4:
				w.q.Put(name)
			case 5:
				v, ok := w.q.GetTimeout(p, ms(5))
				w.note(name, "get=%v,%v", v, ok)
			case 6:
				w.bar.Arrive(p)
				w.note(name, "passed barrier")
			case 7:
				w.k.After(ms(5), w.callback(name+".after", rng.Intn(3)))
			case 8:
				cb := w.callback(name+".arg", rng.Intn(3))
				w.k.AfterNamedArg("arg", ms(5), func(any) { cb() }, nil)
			case 9:
				if depth < 2 && w.spawned < 12 {
					w.spawn(depth + 1)
				}
			case 10:
				if len(w.waiters) > 0 {
					w.k.Wake(w.waiters[0], WakeSignal)
					w.waiters = w.waiters[1:]
				}
			case 11:
				if rng.Intn(3) == 0 {
					w.note(name, "exits early")
					p.Exit()
				}
			}
		}
	})
}

func newHandoffWorld(seed int64, chooser Chooser) *handoffWorld {
	k := NewKernel(seed)
	k.SetChooser(chooser)
	w := &handoffWorld{k: k, seed: seed, sem: NewSemaphore(k, 1), q: NewQueue(k), bar: NewBarrier(k, 2)}
	procs := 2 + rand.New(rand.NewSource(seed)).Intn(5)
	for i := 0; i < procs; i++ {
		w.spawn(0)
	}
	return w
}

// seededChooser picks among same-instant alternatives at random; it
// checks that choices made on process goroutines replay the reference.
type seededChooser struct{ rng *rand.Rand }

func (c *seededChooser) Choose(_ Time, n int, _ func(int) string) int { return c.rng.Intn(n) }

// TestPropertyHandoffMatchesStepReference runs random programs under
// Run, RunUntil and RunFor — where parked processes carry the loop on
// and hand control to each other directly — and under a plain Step
// loop, where every event goes through the caller. Every variant must
// log the same (time, process, action) sequence and end at the same
// virtual time.
func TestPropertyHandoffMatchesStepReference(t *testing.T) {
	for seed := int64(1); seed <= 60; seed++ {
		for _, withChooser := range []bool{false, true} {
			chooser := func() Chooser {
				if withChooser {
					return &seededChooser{rng: rand.New(rand.NewSource(seed))}
				}
				return nil
			}
			ref := newHandoffWorld(seed, chooser())
			for ref.k.Step() {
			}
			ref.k.Shutdown()
			end := ref.k.Now()
			half := len(ref.log) / 2

			// RunUntil's reference: the same predicate checked before
			// every Step.
			refUntil := newHandoffWorld(seed, chooser())
			for len(refUntil.log) < half && refUntil.k.Step() {
			}
			stopLen, stopAt := len(refUntil.log), refUntil.k.Now()
			refUntil.k.Shutdown()

			variants := []struct {
				name string
				run  func(w *handoffWorld)
			}{
				{"Run", func(w *handoffWorld) { w.k.Run() }},
				{"RunUntil", func(w *handoffWorld) {
					w.k.RunUntil(func() bool { return len(w.log) >= half })
					if len(w.log) != stopLen || w.k.Now() != stopAt {
						t.Errorf("seed %d chooser %v: RunUntil stopped after %d entries at %v, Step reference after %d at %v",
							seed, withChooser, len(w.log), w.k.Now(), stopLen, stopAt)
					}
					w.k.Run()
				}},
				{"RunFor", func(w *handoffWorld) {
					rng := rand.New(rand.NewSource(seed))
					for {
						w.k.RunFor(min(Duration(rng.Intn(4))*time.Millisecond, end.Sub(w.k.Now())))
						if w.k.Now() >= end {
							break
						}
					}
					if !w.k.events.isEmpty() {
						t.Errorf("seed %d chooser %v: %d events left after RunFor reached %v", seed, withChooser, len(w.k.events), end)
					}
				}},
			}
			for _, v := range variants {
				w := newHandoffWorld(seed, chooser())
				v.run(w)
				w.k.Shutdown()
				if w.k.Now() != end {
					t.Errorf("seed %d chooser %v %s: final time %v, Step reference %v", seed, withChooser, v.name, w.k.Now(), end)
				}
				if d := firstDiff(ref.log, w.log); d >= 0 {
					t.Fatalf("seed %d chooser %v %s: log diverges from Step reference at entry %d:\n  step: %s\n  %s: %s",
						seed, withChooser, v.name, d, entry(ref.log, d), v.name, entry(w.log, d))
				}
			}
		}
	}
}

func firstDiff(a, b []string) int {
	for i := 0; i < len(a) || i < len(b); i++ {
		if i >= len(a) || i >= len(b) || a[i] != b[i] {
			return i
		}
	}
	return -1
}

func entry(log []string, i int) string {
	if i < len(log) {
		return log[i]
	}
	return "(end of log)"
}

// TestCallbackPanicOnProcessGoroutineReachesCaller pins the forwarding
// of a panic raised by a callback that a parked process dispatched: the
// caller of Run recovers the original value, and Shutdown still
// reclaims every process goroutine.
func TestCallbackPanicOnProcessGoroutineReachesCaller(t *testing.T) {
	start := settledGoroutines()
	type boom struct{ at Time }
	k := NewKernel(1)
	sem := NewSemaphore(k, 0)
	k.Spawn("blocked", func(p *Proc) { sem.P(p) })
	k.Spawn("sleeper", func(p *Proc) {
		p.Sleep(time.Millisecond)
		// Parking here carries the loop on to the callback below.
		p.Sleep(5 * time.Millisecond)
	})
	k.After(2*time.Millisecond, func() { panic(&boom{at: k.Now()}) })
	got := func() (r any) {
		defer func() { r = recover() }()
		k.Run()
		return nil
	}()
	if b, ok := got.(*boom); !ok || b.at != Time(2*time.Millisecond) {
		t.Fatalf("Run's caller recovered %#v, want the callback's own *boom from 2ms", got)
	}
	k.Shutdown()
	if n := settledGoroutines(); n != start {
		t.Fatalf("%d goroutines after Shutdown, %d before the kernel", n, start)
	}
}

// settledGoroutines counts goroutines once the count has held still for
// 20 ms (or after 2 s): a goroutine whose process has already reported its exit may
// still be unwinding, here or from an earlier test.
func settledGoroutines() int {
	n, still := runtime.NumGoroutine(), 0
	for i := 0; still < 20 && i < 2000; i++ {
		time.Sleep(time.Millisecond)
		if m := runtime.NumGoroutine(); m != n {
			n, still = m, 0
		} else {
			still++
		}
	}
	return n
}

// TestRunUntilStopsWhereDoneFlipsInsideProcess pins RunUntil's stop
// point when its predicate becomes true inside a process that then
// parks — while that process holds the loop and more events, at the
// same instant and later, are queued.
func TestRunUntilStopsWhereDoneFlipsInsideProcess(t *testing.T) {
	build := func() (*Kernel, *[]string, *bool) {
		k := NewKernel(1)
		var log []string
		done := false
		k.Spawn("flipper", func(p *Proc) {
			for i := 0; i < 5; i++ {
				p.Sleep(time.Millisecond)
				log = append(log, fmt.Sprintf("%v flipper %d", p.Now(), i))
				if i == 2 {
					done = true
				}
			}
		})
		k.Spawn("peer", func(p *Proc) {
			for i := 0; i < 8; i++ {
				p.Sleep(time.Millisecond)
				log = append(log, fmt.Sprintf("%v peer %d", p.Now(), i))
			}
		})
		k.After(3*time.Millisecond, func() { log = append(log, "3ms callback") })
		return k, &log, &done
	}
	ref, refLog, refDone := build()
	for !*refDone && ref.Step() {
	}
	k, log, done := build()
	k.RunUntil(func() bool { return *done })
	if k.Now() != ref.Now() || k.Now() != Time(3*time.Millisecond) {
		t.Fatalf("RunUntil stopped at %v, Step reference at %v, want 3ms", k.Now(), ref.Now())
	}
	if d := firstDiff(*refLog, *log); d >= 0 {
		t.Fatalf("RunUntil log %q, Step reference %q", *log, *refLog)
	}
	if k.LivePending() == 0 {
		t.Fatal("no events left queued; the stop point is untested")
	}
	k.Shutdown()
	ref.Shutdown()
}
