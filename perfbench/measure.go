package main

import (
	"cmp"
	"context"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"syscall"
	"time"

	"mube/internal/opt"
	"mube/internal/schema"
)

// size selects a workload's scale: fullSize is the benchmark, testSize the
// reduced version the package tests run.
type size int

const (
	fullSize size = iota
	testSize
)

// workload is one closed-loop benchmark workload. A round builds fresh state
// from a round seed (timed as set-up) and then runs a fixed script of steps,
// each started after the previous one returned and each timed on its own.
//
// A run cycles through `distinct` round seeds derived from the workload seed,
// so that its figures average over that many universes and scripts rather
// than resting on one. A round seed that comes round again replays the same
// script, and its outcomes must equal the first time's exactly.
type workload struct {
	name string
	// steps is the number of timed steps in one round.
	steps int
	// distinct is the number of round seeds a run cycles through.
	distinct int
	// minRounds is the fewest rounds a run makes, however short -seconds
	// is: every round seed once and one again, and enough steps for
	// tailPct.
	minRounds int
	// tailPct is the percentile step_ms.tail reports. It is fixed per
	// workload so that runs of different lengths report the same quantile;
	// minRounds·steps leaves at least ten steps beyond it.
	tailPct float64
	// setup builds a round from a round seed. It is timed as set-up; tr is
	// nil on untraced rounds.
	setup func(ctx context.Context, seed int64, tr *tracer) (round, error)
}

// round is the state one round's steps run against.
type round interface {
	// step runs timed step i. tr is nil on untraced rounds.
	step(ctx context.Context, i int, tr *tracer) (outcome, error)
	// check verifies step i's outcome. It runs outside the step's timing;
	// on traced rounds it also times the single-call layer probes.
	check(i int, o outcome, tr *tracer) error
}

// outcome is what one step returned.
type outcome struct {
	ids     []schema.SourceID // the solution's source set; nil where the API does not expose it
	quality float64
	evals   int
	status  opt.Status
	// solve is the time spent inside the solver call, the denominator of
	// evals_per_s.
	solve time.Duration
	// detail holds the workload's other deterministic results (counts,
	// statuses), compared across rounds.
	detail string
}

// same reports whether two outcomes of the same scripted step agree exactly.
func (o outcome) same(p outcome) bool {
	return math.Float64bits(o.quality) == math.Float64bits(p.quality) &&
		o.evals == p.evals && o.status == p.status && o.detail == p.detail &&
		slices.Equal(o.ids, p.ids)
}

// okStatus reports whether a solve ended normally: its schedule or its
// evaluation budget ran out, not a deadline or a cancellation.
func okStatus(s opt.Status) bool {
	return s == opt.StatusCompleted || s == opt.StatusExhausted
}

// stealLimit is the share of the box's CPU time the hypervisor may take
// during a round before the round counts as contended. On a shared virtual
// machine, other tenants' load shows up as steal time and slows every phase
// by at least its share; it is never the program's doing.
const stealLimit = 0.03

// roundStats is one complete untraced round.
type roundStats struct {
	setup, total float64   // seconds
	stepMS       []float64 // each step's latency
	evals        int
	solveSec     float64
	steal        float64 // share of the box's CPU time stolen during the round
}

// result collects one run.
type result struct {
	tailPct   float64
	minRounds int

	rounds    []roundStats // complete untraced rounds
	traced    []float64    // seconds of all steps of each complete traced round
	meanQ     float64      // mean quality over the first run of every step of every round seed
	attempted int
	failed    int
	made      int     // rounds made, traced or not, complete or not
	tr        *tracer // per-layer accumulator; nil on untraced runs
}

// roundSeed derives round seed k of a run from the workload seed.
func roundSeed(seed int64, k int) int64 { return seed*1000 + int64(k) }

// measure runs w for at least budget and w.minRounds rounds. An untraced run
// also continues, up to a quarter of the budget longer, until it has
// minRounds rounds that were not contended (see stealLimit). With traced set, rounds alternate
// untraced and traced over the same round seed, so trace overhead is measured
// under the same drift and inputs as the figures it is compared with.
func measure(w workload, seed int64, budget time.Duration, traced bool, log io.Writer) (*result, error) {
	ctx := context.Background()
	res := &result{tailPct: w.tailPct, minRounds: w.minRounds}
	if traced {
		res.tr = newTracer()
		// Per-layer means need one round of each kind, not a tail sample.
		res.minRounds = 2
	}
	// refs[k][i] is the first outcome of step i under round seed k.
	refs := make([][]*outcome, w.distinct)
	for k := range refs {
		refs[k] = make([]*outcome, w.steps)
	}
	// Warm-up: one round's set-up and first step, outside all timing, so
	// code paths, lazily built tables and the heap are warm.
	warm, err := w.setup(ctx, roundSeed(seed, 0), nil)
	if err != nil {
		return nil, fmt.Errorf("warm-up set-up: %w", err)
	}
	first, err := warm.step(ctx, 0, nil)
	if err == nil {
		err = warm.check(0, first, nil)
	}
	if err != nil {
		return nil, fmt.Errorf("warm-up step: %w", err)
	}
	warm = nil
	refs[0][0] = &first

	start, clean := time.Now(), 0
	for r := 0; ; r++ {
		if el := time.Since(start); r >= res.minRounds && el >= budget &&
			(traced || clean >= res.minRounds || el >= budget*5/4) {
			break
		}
		k := r % w.distinct
		var tr *tracer
		if traced {
			k = r / 2 % w.distinct
			if r%2 == 1 {
				tr = res.tr
			}
		}
		runtime.GC()
		stat0 := readCPUStat()
		t0 := time.Now()
		rd, err := w.setup(ctx, roundSeed(seed, k), tr)
		if err != nil {
			return nil, fmt.Errorf("round %d set-up: %w", r, err)
		}
		rs := roundStats{setup: time.Since(t0).Seconds()}
		complete := true
		for i := 0; i < w.steps; i++ {
			runtime.GC()
			tr.beginStep()
			t := time.Now()
			o, err := rd.step(ctx, i, tr)
			d := time.Since(t)
			tr.endStep(d)
			res.attempted++
			if err == nil {
				err = rd.check(i, o, tr)
			}
			if ref := refs[k][i]; err == nil && ref != nil && !o.same(*ref) {
				err = fmt.Errorf("outcome differs from round seed %d's first (q %v evals %d %q vs q %v evals %d %q)",
					k, o.quality, o.evals, o.detail, ref.quality, ref.evals, ref.detail)
			}
			if err != nil {
				res.failed++
				fmt.Fprintf(log, "perfbench: %s round %d step %d: %v\n", w.name, r, i, err)
				complete = false
				break
			}
			if refs[k][i] == nil {
				refs[k][i] = &o
			}
			rs.total += d.Seconds()
			rs.stepMS = append(rs.stepMS, float64(d)/1e6)
			rs.evals += o.evals
			rs.solveSec += o.solve.Seconds()
		}
		rs.steal = readCPUStat().stealSince(stat0)
		res.made++
		switch {
		case !complete:
		case tr != nil:
			res.traced = append(res.traced, rs.total)
		default:
			res.rounds = append(res.rounds, rs)
			if rs.steal <= stealLimit {
				clean++
			}
		}
	}
	if len(res.rounds) == 0 || (traced && len(res.traced) == 0) {
		return nil, fmt.Errorf("no round completed (%d of %d steps failed)", res.failed, res.attempted)
	}
	n := 0
	for _, steps := range refs {
		for _, o := range steps {
			if o != nil {
				res.meanQ += o.quality
				n++
			}
		}
	}
	res.meanQ /= float64(n)
	return res, nil
}

// measured returns the rounds the end-to-end metrics come from: every
// uncontended round, or, when fewer than minRounds are, the minRounds least
// contended ones.
func (r *result) measured() []roundStats {
	var clean []roundStats
	for _, rs := range r.rounds {
		if rs.steal <= stealLimit {
			clean = append(clean, rs)
		}
	}
	if len(clean) >= r.minRounds || len(clean) == len(r.rounds) {
		return clean
	}
	least := slices.Clone(r.rounds)
	slices.SortStableFunc(least, func(a, b roundStats) int { return cmp.Compare(a.steal, b.steal) })
	return least[:min(r.minRounds, len(least))]
}

// cpuStat is the box's CPU time from the first line of /proc/stat, in ticks.
type cpuStat struct{ steal, total uint64 }

// readCPUStat reads /proc/stat; the zero cpuStat where it cannot.
func readCPUStat() cpuStat {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return cpuStat{}
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return cpuStat{}
	}
	var s cpuStat
	for i, v := range f[1:9] { // user nice system idle iowait irq softirq steal
		n, err := strconv.ParseUint(v, 10, 64)
		if err != nil {
			return cpuStat{}
		}
		s.total += n
		if i == 7 {
			s.steal = n
		}
	}
	return s
}

// stealSince is the share of the CPU time since s0 that was stolen.
func (s cpuStat) stealSince(s0 cpuStat) float64 {
	if s.total <= s0.total {
		return 0
	}
	return float64(s.steal-s0.steal) / float64(s.total-s0.total)
}

// median is the 50th percentile of xs.
func median(xs []float64) float64 { return percentile(xs, 50) }

// percentile is the nearest-rank p-th percentile of xs: the smallest value
// with at least p% of the sample at or below it.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	k := int(math.Ceil(p/100*float64(len(s)))) - 1
	return s[max(0, min(k, len(s)-1))]
}

// peakRSSMB is the process's peak resident set size.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports kilobytes
}

// metric is one printed value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// output is the result line.
type output struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// endToEnd lists the metrics of an untraced run, with their units.
var endToEnd = []struct{ name, unit string }{
	{"setup_s", "s"},
	{"total_s", "s"},
	{"step_ms.p50", "ms"},
	{"step_ms.tail", "ms"},
	{"evals_per_s", "1/s"},
	{"best_q", "score"},
	{"peak_rss_mb", "MB"},
}

func (r *result) output() output {
	out := output{
		Correct:   r.failed == 0,
		Attempted: r.attempted,
		Failed:    r.failed,
		Metrics:   make(map[string]metric),
	}
	if r.tr != nil {
		var totals []float64
		for _, rs := range r.rounds {
			totals = append(totals, rs.total)
		}
		out.Metrics = r.tr.metrics(median(r.traced) / median(totals))
		return out
	}
	var setups, totals, steps []float64
	evals, solveSec := 0, 0.0
	for _, rs := range r.measured() {
		setups = append(setups, rs.setup)
		totals = append(totals, rs.total)
		steps = append(steps, rs.stepMS...)
		evals += rs.evals
		solveSec += rs.solveSec
	}
	vals := map[string]float64{
		"setup_s":      median(setups),
		"total_s":      median(totals),
		"step_ms.p50":  median(steps),
		"step_ms.tail": percentile(steps, r.tailPct),
		"evals_per_s":  float64(evals) / solveSec,
		"best_q":       r.meanQ,
		"peak_rss_mb":  peakRSSMB(),
	}
	for _, m := range endToEnd {
		out.Metrics[m.name] = metric{vals[m.name], m.unit}
	}
	return out
}

// summary is a human-readable line with the sample counts behind the
// metrics.
func (r *result) summary() string {
	used, steps, worst := r.measured(), 0, 0.0
	for _, rs := range used {
		steps += len(rs.stepMS)
	}
	for _, rs := range r.rounds {
		worst = max(worst, rs.steal)
	}
	return fmt.Sprintf("rounds=%d untraced=%d measured=%d traced=%d steps=%d tail=p%g max_steal=%.3f attempted=%d failed=%d",
		r.made, len(r.rounds), len(used), len(r.traced), steps, r.tailPct, worst, r.attempted, r.failed)
}
