package main

import (
	"encoding/json"
	"os"
	"strings"
	"testing"
)

// contract is the metric list of BENCHMARK.json at the repository root.
type contract struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func readContract(t *testing.T) contract {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var c contract
	if err := json.Unmarshal(data, &c); err != nil {
		t.Fatal(err)
	}
	return c
}

// short runs one workload once: one timed run on each of seeds
// simulation seeds.
func short(t *testing.T, name string, seeds int, trace, corrupt bool) (result, string) {
	t.Helper()
	var log strings.Builder
	res, err := run(options{workload: name, seed: 3, seconds: 1e-3, trace: trace,
		out: t.TempDir(), seeds: seeds, corrupt: corrupt}, &log)
	if err != nil {
		t.Fatal(err)
	}
	return res, log.String()
}

// checkMetrics asserts that the result holds exactly the named metrics
// with their units and that the report prints each of them.
func checkMetrics(t *testing.T, res result, log string, want map[string]string) {
	t.Helper()
	if len(res.Metrics) != len(want) {
		t.Errorf("%d metrics, want %d", len(res.Metrics), len(want))
	}
	for name, unit := range want {
		m, ok := res.Metrics[name]
		switch {
		case !ok:
			t.Errorf("metric %s missing", name)
		case m.Unit != unit:
			t.Errorf("metric %s in %q, want %q", name, m.Unit, unit)
		case !strings.Contains(log, name) || !strings.Contains(log, " "+unit+"\n"):
			t.Errorf("metric %s not printed with its unit", name)
		}
	}
}

// TestWorkloadsShort runs every workload of BENCHMARK.json once in each
// mode, twice untraced: every metric prints with its unit, no run fails,
// and the virtual metrics repeat exactly for one seed.
func TestWorkloadsShort(t *testing.T) {
	c := readContract(t)
	endToEnd := map[string]string{}
	for _, m := range c.EndToEnd {
		endToEnd[m.Name] = m.Unit
	}
	perLayer := map[string]string{}
	for _, m := range c.PerLayer {
		perLayer[m.Name] = m.Unit
	}
	if len(c.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json lists %d workloads, the program %d", len(c.Workloads), len(workloads))
	}
	for _, wl := range c.Workloads {
		t.Run(wl.Name, func(t *testing.T) {
			first, log := short(t, wl.Name, 1, false, false)
			checkMetrics(t, first, log, endToEnd)
			second, _ := short(t, wl.Name, 1, false, false)
			for _, res := range []result{first, second} {
				if !res.Correct || res.Failed != 0 || res.Attempted < 3 {
					t.Errorf("correct=%v failed=%d attempted=%d, want every run to pass", res.Correct, res.Failed, res.Attempted)
				}
			}
			for _, k := range []string{"sim_s", "page_transfers", "msgs", "wire_kb"} {
				if a, b := first.Metrics[k].Value, second.Metrics[k].Value; a != b || a == 0 {
					t.Errorf("%s: %v then %v, want equal and non-zero", k, a, b)
				}
			}
			traced, log := short(t, wl.Name, 1, true, false)
			checkMetrics(t, traced, log, perLayer)
			if !traced.Correct {
				t.Errorf("traced run failed: %s", log)
			}
		})
	}
}

// TestCorruptFingerprintFails proves the fingerprint gate: timed runs
// compared with a corrupted oracle fingerprint all count as failures.
// Two seeds let the oracle pass run its two workers at once.
func TestCorruptFingerprintFails(t *testing.T) {
	res, log := short(t, "mm2-rc", 2, false, true)
	if res.Correct || res.Failed != res.Attempted-2 {
		t.Fatalf("correct=%v failed=%d attempted=%d, want every timed run failed:\n%s", res.Correct, res.Failed, res.Attempted, log)
	}
	if !strings.Contains(log, "fingerprint") {
		t.Errorf("report does not name the fingerprint mismatch:\n%s", log)
	}
}
