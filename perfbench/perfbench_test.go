package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"os"
	"runtime"
	"slices"
	"sort"
	"strings"
	"testing"
)

// replay runs one traced round of w under seed and returns its outcomes and
// the per-layer counts that must repeat exactly.
func replay(t *testing.T, w workload, seed int64) ([]outcome, map[string]float64) {
	t.Helper()
	ctx := context.Background()
	tr := newTracer()
	rd, err := w.setup(ctx, seed, tr)
	if err != nil {
		t.Fatalf("%s set-up: %v", w.name, err)
	}
	var outs []outcome
	for i := 0; i < w.steps; i++ {
		tr.beginStep()
		o, err := rd.step(ctx, i, tr)
		tr.endStep(0)
		if err == nil {
			err = rd.check(i, o, tr)
		}
		if err != nil {
			t.Fatalf("%s step %d: %v", w.name, i, err)
		}
		o.solve = 0
		outs = append(outs, o)
	}
	counts := make(map[string]float64)
	for _, name := range []string{"opt.evals", "match.pair_candidates", "match.groups", "match.names",
		"watch.died", "watch.arrived", "watch.drifted", "watch.warm_evals"} {
		if a := tr.accs[name]; a != nil {
			counts[name] = a.sum
		}
	}
	return outs, counts
}

// TestCountsRepeat runs each workload at reduced size twice and at GOMAXPROCS
// 1 and 2: qualities, eval counts, solution sets, candidate-pair counts and
// DeltaReports must repeat exactly.
func TestCountsRepeat(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, name := range workloadNames(workloadsAt(testSize)) {
		w := workloadsAt(testSize)[name]
		t.Run(name, func(t *testing.T) {
			runtime.GOMAXPROCS(2)
			outs, counts := replay(t, w, 7)
			if counts["opt.evals"] == 0 {
				t.Fatalf("no evaluations counted: %v", counts)
			}
			for _, procs := range []int{2, 1} {
				runtime.GOMAXPROCS(procs)
				again, againCounts := replay(t, w, 7)
				for i := range outs {
					if !again[i].same(outs[i]) {
						t.Errorf("GOMAXPROCS %d step %d: %+v, first run %+v", procs, i, again[i], outs[i])
					}
				}
				for k, v := range counts {
					if math.Float64bits(againCounts[k]) != math.Float64bits(v) {
						t.Errorf("GOMAXPROCS %d %s = %v, first run %v", procs, k, againCounts[k], v)
					}
				}
			}
		})
	}
}

// TestMetricsPrinted runs the command on each reduced workload, untraced and
// traced, and checks the result line: every named metric with its unit, and
// no failed step.
func TestMetricsPrinted(t *testing.T) {
	ws := workloadsAt(testSize)
	for _, name := range workloadNames(ws) {
		for _, trace := range []int{0, 1} {
			t.Run(fmt.Sprintf("%s/trace%d", name, trace), func(t *testing.T) {
				var stdout, stderr bytes.Buffer
				args := []string{"--workload", name, "--seed", "3", "--seconds", "0", "--trace", fmt.Sprint(trace)}
				if code := run(args, ws, &stdout, &stderr); code != 0 {
					t.Fatalf("exit %d: %s", code, stderr.String())
				}
				lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
				var out output
				if err := json.Unmarshal([]byte(lines[len(lines)-1]), &out); err != nil {
					t.Fatalf("last line %q: %v", lines[len(lines)-1], err)
				}
				if !out.Correct || out.Failed != 0 || out.Attempted < 1 {
					t.Fatalf("correct=%v attempted=%d failed=%d: %s", out.Correct, out.Attempted, out.Failed, stderr.String())
				}
				want := endToEnd
				if trace == 1 {
					want = perLayer
				}
				if len(out.Metrics) != len(want) {
					t.Errorf("%d metrics, want %d", len(out.Metrics), len(want))
				}
				for _, m := range want {
					got, ok := out.Metrics[m.name]
					switch {
					case !ok:
						t.Errorf("metric %s missing", m.name)
					case got.Unit != m.unit:
						t.Errorf("metric %s unit %q, want %q", m.name, got.Unit, m.unit)
					case trace == 0 && !(got.Value > 0):
						t.Errorf("metric %s = %v, want > 0", m.name, got.Value)
					}
				}
			})
		}
	}
}

// TestTailHasTenBeyond checks that every full-size workload's minimum run
// leaves at least ten steps beyond its tail percentile, and repeats at least
// one round seed.
func TestTailHasTenBeyond(t *testing.T) {
	for name, w := range workloads() {
		n := w.minRounds * w.steps
		if beyond := n - int(math.Ceil(w.tailPct/100*float64(n))); beyond < 10 {
			t.Errorf("%s: %d steps leave %d beyond p%g", name, n, beyond, w.tailPct)
		}
		if w.minRounds <= w.distinct {
			t.Errorf("%s: %d rounds over %d round seeds repeat none", name, w.minRounds, w.distinct)
		}
	}
}

// TestBenchmarkFile checks that BENCHMARK.json names exactly the workloads
// and metrics the command prints.
func TestBenchmarkFile(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	sort.Strings(names)
	if want := workloadNames(workloads()); !slices.Equal(names, want) {
		t.Errorf("BENCHMARK.json workloads %v, command has %v", names, want)
	}
	same := func(kind string, got []struct{ Name, Unit string }, want []struct{ name, unit string }) {
		if len(got) != len(want) {
			t.Errorf("%s: %d metrics in BENCHMARK.json, %d printed", kind, len(got), len(want))
			return
		}
		for i := range want {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s[%d]: %s (%s) in BENCHMARK.json, %s (%s) printed", kind, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	same("end_to_end", spec.EndToEnd, endToEnd)
	same("per_layer", spec.PerLayer, perLayer)
}

// fakeRound returns quality q+i at step i, or an error at step failAt.
type fakeRound struct {
	q      float64
	failAt int
}

func (f fakeRound) step(_ context.Context, i int, tr *tracer) (outcome, error) {
	if i == f.failAt {
		return outcome{}, errors.New("boom")
	}
	return outcome{quality: f.q + float64(i), evals: 1, status: "completed", solve: 1}, nil
}

func (f fakeRound) check(int, outcome, *tracer) error { return nil }

// TestFailuresCounted checks that a step error and a replay that differs
// from the round seed's first run are both counted as failed steps.
func TestFailuresCounted(t *testing.T) {
	setups := 0
	w := workload{name: "fake", steps: 3, distinct: 1, minRounds: 3, tailPct: 50,
		setup: func(_ context.Context, seed int64, _ *tracer) (round, error) {
			setups++
			switch setups {
			case 3: // second timed round: a different result at every step
				return fakeRound{q: 0.5, failAt: -1}, nil
			case 4: // third: an error at step 1
				return fakeRound{failAt: 1}, nil
			}
			return fakeRound{failAt: -1}, nil
		}}
	res, err := measure(w, 1, 0, false, &bytes.Buffer{})
	if err != nil {
		t.Fatal(err)
	}
	if res.attempted != 3+1+2 || res.failed != 2 {
		t.Errorf("attempted %d failed %d, want 6 and 2", res.attempted, res.failed)
	}
	if out := res.output(); out.Correct {
		t.Error("result reads correct despite failed steps")
	}
}

// TestMeasuredSkipsContendedRounds checks which rounds the end-to-end
// metrics come from: the uncontended ones when there are enough, else the
// least contended.
func TestMeasuredSkipsContendedRounds(t *testing.T) {
	steals := func(rs []roundStats) []float64 {
		var out []float64
		for _, r := range rs {
			out = append(out, r.steal)
		}
		return out
	}
	res := &result{minRounds: 2, rounds: []roundStats{{steal: 0.01}, {steal: 0.2}, {steal: 0}, {steal: 0.05}}}
	if got := steals(res.measured()); !slices.Equal(got, []float64{0.01, 0}) {
		t.Errorf("measured steals %v, want the two uncontended rounds", got)
	}
	res.minRounds = 3
	if got := steals(res.measured()); !slices.Equal(got, []float64{0, 0.01, 0.05}) {
		t.Errorf("measured steals %v, want the three least contended rounds", got)
	}
	if s := readCPUStat(); s.total > 0 && s.steal > s.total {
		t.Errorf("/proc/stat read as %+v", s)
	}
}
