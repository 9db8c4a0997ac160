package main

import (
	"runtime"
	"runtime/metrics"
	"time"

	"mube/internal/match"
	"mube/internal/telemetry"
)

// perLayer lists the metrics of a traced run, with their units. Every
// workload prints every one; a layer a workload does not exercise reads 0.
var perLayer = []struct{ name, unit string }{
	{"synth.generate_ms", "ms"},
	{"match.build_ms", "ms"},
	{"match.names", "count"},
	{"match.sim_pairs", "count"},
	{"match.shard_index_ms", "ms"},
	{"match.pair_candidates", "count"},
	{"match.groups", "count"},
	{"match.score_us", "us"},
	{"match.shard_scores", "count"},
	{"match.shard_rescans", "count"},
	{"qef.score_us", "us"},
	{"opt.solve_ms", "ms"},
	{"opt.evals", "count"},
	{"opt.eval_us", "us"},
	{"session.edit_ms", "ms"},
	{"session.problem_ms", "ms"},
	{"watch.churn_ms", "ms"},
	{"watch.reprobe_ms", "ms"},
	{"watch.resolve_self_ms", "ms"},
	{"watch.solve_ms", "ms"},
	{"watch.died", "count"},
	{"watch.arrived", "count"},
	{"watch.drifted", "count"},
	{"watch.warm_evals", "count"},
	{"proc.alloc_mb", "MB"},
	{"proc.gc_count", "count"},
	{"proc.gc_cpu_frac", "frac"},
	{"proc.heap_inuse_mb", "MB"},
	{"trace.overhead_frac", "frac"},
	{"step.traced_ms", "ms"},
	{"step.unattributed_ms", "ms"},
}

// acc is a running sum; a metric reports its mean per record.
type acc struct {
	sum float64
	n   int
}

// tracer accumulates per-layer metrics over the traced rounds of a run. A
// nil *tracer is an untraced round: every method is a no-op, so untraced
// steps carry no measurement beyond the step clock.
//
// A step's children are the layer calls timed inside it; they are disjoint,
// so a traced step's time is the sum of its children plus
// step.unattributed_ms.
type tracer struct {
	accs map[string]*acc

	children time.Duration // timed children of the current step
	// Process counters at the start of the current step.
	mem0                      runtime.MemStats
	gcCPU0, allCPU0           float64
	pairs0, scores0, rescans0 uint64
	gcCPU, allCPU             float64 // summed over traced steps
	samples                   []metrics.Sample
}

func newTracer() *tracer {
	return &tracer{
		accs: make(map[string]*acc),
		samples: []metrics.Sample{
			{Name: "/cpu/classes/gc/total:cpu-seconds"},
			{Name: "/cpu/classes/total:cpu-seconds"},
		},
	}
}

// add records one value of a metric.
func (t *tracer) add(name string, v float64) {
	if t == nil {
		return
	}
	a := t.accs[name]
	if a == nil {
		a = &acc{}
		t.accs[name] = a
	}
	a.sum += v
	a.n++
}

// start reads the clock for a timed call; the zero time on untraced rounds.
func (t *tracer) start() time.Time {
	if t == nil {
		return time.Time{}
	}
	return time.Now()
}

// since records the time since start under name.
func (t *tracer) since(name string, start time.Time) {
	if t == nil {
		return
	}
	t.addDur(name, time.Since(start))
}

// child records a timed child of the current step.
func (t *tracer) child(name string, start time.Time) {
	if t == nil {
		return
	}
	t.childDur(name, time.Since(start))
}

// childDur records a child of the current step measured elsewhere (a span
// of the program's own recorder).
func (t *tracer) childDur(name string, d time.Duration) {
	if t == nil {
		return
	}
	t.addDur(name, d)
	t.children += d
}

// addDur records a duration in µs or ms, by the metric name's suffix.
func (t *tracer) addDur(name string, d time.Duration) {
	if len(name) > 3 && name[len(name)-3:] == "_us" {
		t.add(name, float64(d)/1e3)
		return
	}
	t.add(name, float64(d)/1e6)
}

func (t *tracer) cpu() (gc, all float64) {
	metrics.Read(t.samples)
	return t.samples[0].Value.Float64(), t.samples[1].Value.Float64()
}

// beginStep snapshots the process counters; called outside the step's timing.
func (t *tracer) beginStep() {
	if t == nil {
		return
	}
	t.children = 0
	runtime.ReadMemStats(&t.mem0)
	t.gcCPU0, t.allCPU0 = t.cpu()
	t.pairs0, t.scores0, t.rescans0 = match.PairCandidates(), match.ShardScores(), match.ShardRescans()
}

// endStep records the step's time and counter deltas; called after the
// step's timing stopped.
func (t *tracer) endStep(d time.Duration) {
	if t == nil {
		return
	}
	t.add("match.pair_candidates", float64(match.PairCandidates()-t.pairs0))
	t.add("match.shard_scores", float64(match.ShardScores()-t.scores0))
	t.add("match.shard_rescans", float64(match.ShardRescans()-t.rescans0))
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	gc, all := t.cpu()
	t.gcCPU += gc - t.gcCPU0
	t.allCPU += all - t.allCPU0
	t.add("proc.alloc_mb", float64(m.TotalAlloc-t.mem0.TotalAlloc)/(1<<20))
	t.add("proc.gc_count", float64(m.NumGC-t.mem0.NumGC))
	t.add("proc.heap_inuse_mb", float64(m.HeapInuse)/(1<<20))
	t.addDur("step.traced_ms", d)
	t.addDur("step.unattributed_ms", d-t.children)
}

// metrics returns every per-layer metric; ratio is the traced over the
// untraced median round time.
func (t *tracer) metrics(ratio float64) map[string]metric {
	mean := func(name string) float64 {
		if a := t.accs[name]; a != nil && a.n > 0 {
			return a.sum / float64(a.n)
		}
		return 0
	}
	sum := func(name string) float64 {
		if a := t.accs[name]; a != nil {
			return a.sum
		}
		return 0
	}
	out := make(map[string]metric, len(perLayer))
	for _, m := range perLayer {
		var v float64
		switch m.name {
		case "opt.eval_us":
			if evals := sum("opt.evals"); evals > 0 {
				v = sum("opt.solve_ms") * 1e3 / evals
			}
		case "proc.gc_cpu_frac":
			if t.allCPU > 0 {
				v = t.gcCPU / t.allCPU
			}
		case "trace.overhead_frac":
			v = ratio - 1
		default:
			v = mean(m.name)
		}
		out[m.name] = metric{v, m.unit}
	}
	return out
}

// wallClock is the wall clock for telemetry recorders the benchmark attaches
// to the program; the program itself only ever receives virtual clocks.
type wallClock struct{}

func (wallClock) Now() time.Time { return time.Now() }

// spanSink sums the wall durations of span end events by span name.
type spanSink struct {
	durs map[string]time.Duration
}

func (s *spanSink) Write(ev telemetry.Event) {
	if ev.IsBegin {
		return
	}
	if v, ok := ev.Attr("dur_ns"); ok {
		if ns, ok := v.(int64); ok {
			s.durs[ev.Name] += time.Duration(ns)
		}
	}
}

// reset clears the sums and returns the previous ones.
func (s *spanSink) reset() map[string]time.Duration {
	d := s.durs
	s.durs = make(map[string]time.Duration)
	return d
}
