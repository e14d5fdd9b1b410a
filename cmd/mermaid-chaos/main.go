// Command mermaid-chaos runs randomized fault-injection campaigns
// against the simulated Mermaid DSM cluster (internal/chaos):
//
//	go run ./cmd/mermaid-chaos -list
//	go run ./cmd/mermaid-chaos -workload=slots -class=crash -seed=1 -runs=10
//	go run ./cmd/mermaid-chaos -workload=counter -class=mix -seed=7 -verify
//	go run ./cmd/mermaid-chaos -replay=chaos1:slots:crash:3
//
// Every run derives its fault schedule (burst loss, duplication,
// corruption, partitions, a host crash) from the seed, so any
// violation's token replays it bit-identically. Exit status: 0 when
// every run passed every oracle, 2 when a violation was found (its
// token is printed), 1 on usage or execution errors.
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/chaos"
	"repro/internal/cluster"
	"repro/internal/dsm"
)

func main() {
	os.Exit(run())
}

func run() int {
	var (
		list     = flag.Bool("list", false, "list workloads and schedule classes, then exit")
		workload = flag.String("workload", "slots", "workload to torment (see -list)")
		class    = flag.String("class", "crash", "fault schedule class: drop, partition, crash, mix")
		seed     = flag.Int64("seed", 1, "base seed; run i uses seed+i")
		runs     = flag.Int("runs", 1, "number of consecutive seeds to run")
		verify   = flag.Bool("verify", false, "run each seed twice and require bit-identical outcomes")
		replay   = flag.String("replay", "", "replay a chaos1:... token and print its fault plan and outcome")
		maxSteps = flag.Int("max-steps", 0, "per-run event budget (0 = default; exceeding it is reported as a livelock)")
		mutation = flag.String("mutation", "", "inject a named DSM protocol bug and require the campaign to catch it (exit 2 if it survives every run)")
	)
	flag.Parse()

	if *list {
		fmt.Println("workloads:")
		for _, w := range chaos.All() {
			fmt.Printf("  %-8s %s\n", w.Name, w.Desc)
		}
		fmt.Println("classes:")
		for _, c := range chaos.Classes() {
			fmt.Printf("  %s\n", c)
		}
		return 0
	}

	opts := chaos.Opts{MaxSteps: *maxSteps}
	if *mutation != "" {
		if *verify || *replay != "" {
			fmt.Fprintln(os.Stderr, "mermaid-chaos: -mutation cannot be combined with -verify or -replay")
			return 1
		}
		found := false
		for _, m := range dsm.Mutations() {
			if m != dsm.MutNone && m.String() == *mutation {
				opts.Mut = m
				found = true
				break
			}
		}
		if !found {
			fmt.Fprintf(os.Stderr, "mermaid-chaos: unknown mutation %q\n", *mutation)
			return 1
		}
	}

	if *replay != "" {
		res, err := chaos.Replay(*replay, opts)
		if err != nil {
			fmt.Fprintln(os.Stderr, "mermaid-chaos:", err)
			return 1
		}
		fmt.Println("fault plan:")
		for _, line := range res.Plan {
			fmt.Println(" ", line)
		}
		fmt.Printf("outcome: %s", res.Outcome)
		if res.Detail != "" {
			fmt.Printf(" — %s", res.Detail)
		}
		fmt.Printf("\n%s\n", res.Fingerprint)
		if res.Outcome != cluster.OK {
			return 2
		}
		return 0
	}

	w, err := chaos.Lookup(*workload)
	if err != nil {
		fmt.Fprintln(os.Stderr, "mermaid-chaos:", err)
		return 1
	}
	cl, err := chaos.ParseClass(*class)
	if err != nil {
		fmt.Fprintln(os.Stderr, "mermaid-chaos:", err)
		return 1
	}

	if *verify {
		bad := 0
		for i := 0; i < *runs; i++ {
			res, err := chaos.Verify(w, cl, *seed+int64(i), opts)
			if err != nil {
				fmt.Fprintln(os.Stderr, "mermaid-chaos:", err)
				return 1
			}
			fmt.Printf("%s %s (verified deterministic)\n", res.Token, res.Outcome)
			if res.Outcome != cluster.OK {
				fmt.Printf("  %s\n  replay: %s\n", res.Detail, res.Token)
				bad++
			}
		}
		if bad > 0 {
			return 2
		}
		return 0
	}

	series, err := chaos.RunSeries(w, cl, *seed, *runs, opts)
	if err != nil {
		fmt.Fprintln(os.Stderr, "mermaid-chaos:", err)
		return 1
	}
	if opts.Mut != dsm.MutNone {
		// Kill semantics: the campaign hunts an injected bug, so at
		// least one run must catch it — a clean sweep means the oracles
		// have a blind spot.
		if len(series.Violations) > 0 {
			fmt.Printf("mutation %s KILLED: caught in %d/%d run(s), first by %s\n",
				opts.Mut, len(series.Violations), *runs, series.Violations[0])
			return 0
		}
		fmt.Printf("mutation %s SURVIVED %d run(s)\n", opts.Mut, *runs)
		return 2
	}
	for _, res := range series.Results {
		fmt.Printf("%s %s", res.Token, res.Outcome)
		if res.PagesRecovered > 0 || res.PagesLost > 0 {
			fmt.Printf(" (recovered=%d lost=%d", res.PagesRecovered, res.PagesLost)
			if res.RecoveryLatency > 0 {
				fmt.Printf(" latency=%v", res.RecoveryLatency)
			}
			fmt.Print(")")
		}
		fmt.Println()
		if res.Outcome != cluster.OK {
			fmt.Printf("  %s\n  replay: %s\n", res.Detail, res.Token)
		}
	}
	fmt.Println(series)
	if len(series.Violations) > 0 {
		return 2
	}
	return 0
}
