package main

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"time"

	"mube"
	"mube/internal/opt"
	"mube/internal/qef"
	"mube/internal/telemetry"
	"mube/internal/watch"
)

// workloads returns the benchmark's workloads at full size.
func workloads() map[string]workload { return workloadsAt(fullSize) }

func workloadsAt(sz size) map[string]workload {
	ws := []workload{
		coldWorkload(coldSizes[sz]),
		interactiveWorkload(interactiveSizes[sz]),
		churnWorkload(churnSizes[sz]),
	}
	m := make(map[string]workload, len(ws))
	for _, w := range ws {
		m[w.name] = w
	}
	return m
}

// paperQEFs are the four main QEFs plus MTTF, weighted as in the paper's
// §7.1 experiments.
func paperQEFs() ([]mube.QEF, mube.Weights) {
	return append(mube.MainQEFs(), mube.CharacteristicQEF{Char: "mttf", Agg: mube.WSum()}), mube.PaperWeights()
}

func paperQuality() (*qef.Quality, error) {
	return qef.NewQuality(paperQEFs())
}

// generate builds a universe through the root package, timing it on traced
// rounds.
func generate(cfg mube.SynthConfig, tr *tracer) (*mube.Universe, error) {
	t := tr.start()
	res, err := mube.GenerateUniverse(cfg)
	if err != nil {
		return nil, err
	}
	tr.since("synth.generate_ms", t)
	return res.Universe, nil
}

// probeMatcher times a standalone matcher build over u on traced rounds, for
// workloads whose own build is buried in set-up.
func probeMatcher(u *mube.Universe, tr *tracer) error {
	if tr == nil {
		return nil
	}
	t := tr.start()
	m, err := mube.NewMatcher(u, mube.MatchConfig{})
	if err != nil {
		return err
	}
	tr.since("match.build_ms", t)
	recordNames(m, tr)
	return nil
}

// recordNames records the size of a matcher's similarity table: its distinct
// names d and the d(d−1)/2 pairs a dense table holds.
func recordNames(m *mube.Matcher, tr *tracer) {
	d := float64(m.SimIDs())
	tr.add("match.names", d)
	tr.add("match.sim_pairs", d*(d-1)/2)
}

// checkSolution verifies a solve's output against p, a problem built
// independently of the solve: a normal status, 1 ≤ |S| ≤ m with sorted
// distinct in-range IDs, every required source present, and a fresh
// opt.Score bit-equal to the reported quality. On traced rounds it also times
// one Matcher.Score of S (match.score_us) and the rest of one opt.Score
// (qef.score_us).
func checkSolution(p *opt.Problem, o outcome, tr *tracer) error {
	if !okStatus(o.status) {
		return fmt.Errorf("status %q", o.status)
	}
	if len(o.ids) == 0 || len(o.ids) > p.MaxSources {
		return fmt.Errorf("|S| = %d, want 1..%d", len(o.ids), p.MaxSources)
	}
	for k, id := range o.ids {
		if int(id) < 0 || int(id) >= p.Universe.Len() || (k > 0 && o.ids[k-1] >= id) {
			return fmt.Errorf("source set %v is not sorted, distinct and in range", o.ids)
		}
	}
	in := make(map[mube.SourceID]bool, len(o.ids))
	for _, id := range o.ids {
		in[id] = true
	}
	for _, id := range p.Constraints.RequiredSources() {
		if !in[id] {
			return fmt.Errorf("required source %d missing from %v", id, o.ids)
		}
	}
	q, err := opt.Score(p, o.ids)
	if err != nil {
		return err
	}
	if math.Float64bits(q) != math.Float64bits(o.quality) {
		return fmt.Errorf("re-scored quality %v != reported %v", q, o.quality)
	}
	if tr != nil {
		score, err := fastest(func() error { _, err := opt.Score(p, o.ids); return err })
		if err != nil {
			return err
		}
		match, err := fastest(func() error { _, _, err := p.Matcher.Score(o.ids, p.Constraints); return err })
		if err != nil {
			return err
		}
		tr.addDur("match.score_us", match)
		tr.addDur("qef.score_us", score-match)
	}
	return nil
}

// fastest times f five times and returns the shortest, so that a one-call
// probe is not dominated by a single preemption.
func fastest(f func() error) (time.Duration, error) {
	best := time.Duration(math.MaxInt64)
	for k := 0; k < 5; k++ {
		t := time.Now()
		if err := f(); err != nil {
			return 0, err
		}
		best = min(best, time.Since(t))
	}
	return best, nil
}

// coldSize shapes cold-50k.
type coldSize struct {
	sources, domains, concepts, sigMaps int
	dataFactor                          float64
	choose, maxIters, patience          int
	maxEvals                            int
	passes                              int
	distinct, minRounds                 int
}

var coldSizes = map[size]coldSize{
	fullSize: {sources: 50_000, domains: 32, concepts: 8, sigMaps: 16, dataFactor: 0.001,
		choose: 64, maxIters: 12, patience: 4, maxEvals: 3000, passes: 3, distinct: 11, minRounds: 12},
	testSize: {sources: 2_000, domains: 8, concepts: 8, sigMaps: 16, dataFactor: 0.001,
		choose: 16, maxIters: 6, patience: 2, maxEvals: 300, passes: 2, distinct: 1, minRounds: 1},
}

// coldWorkload: each step is one cold pass over a pre-generated multi-domain
// universe — a fresh matcher (match.New), the shard index
// (NewSharded(...).SourceGroups()), and a fresh partition+tabu solve at a
// fixed evaluation budget.
func coldWorkload(z coldSize) workload {
	return workload{
		name:      "cold-50k",
		steps:     z.passes,
		distinct:  z.distinct,
		minRounds: z.minRounds,
		tailPct:   70,
		setup: func(ctx context.Context, seed int64, tr *tracer) (round, error) {
			cfg := mube.ScaledSynthConfig(z.dataFactor)
			cfg.NumSources = z.sources
			cfg.Domains = z.domains
			cfg.DomainConcepts = z.concepts
			cfg.Sig = mube.SignatureConfig{NumMaps: z.sigMaps}
			cfg.Seed = seed
			u, err := generate(cfg, tr)
			if err != nil {
				return nil, err
			}
			return &coldRound{z: z, seed: seed, u: u}, nil
		},
	}
}

type coldRound struct {
	z    coldSize
	seed int64
	u    *mube.Universe
	ref  *opt.Problem // the checks' problem, built on the round's first check with a matcher of its own
	q0   float64      // the round's first pass quality
}

func coldProblem(z coldSize, u *mube.Universe, m *mube.Matcher) (*opt.Problem, error) {
	quality, err := paperQuality()
	if err != nil {
		return nil, err
	}
	return &opt.Problem{Universe: u, Matcher: m, Quality: quality, MaxSources: z.choose}, nil
}

func (c *coldRound) step(ctx context.Context, i int, tr *tracer) (outcome, error) {
	t := tr.start()
	m, err := mube.NewMatcher(c.u, mube.MatchConfig{})
	if err != nil {
		return outcome{}, err
	}
	tr.child("match.build_ms", t)
	t = tr.start()
	groups := len(m.NewSharded(mube.Constraints{}).SourceGroups())
	tr.child("match.shard_index_ms", t)
	p, err := coldProblem(c.z, c.u, m)
	if err != nil {
		return outcome{}, err
	}
	solver, err := mube.SolverByName("partition+tabu")
	if err != nil {
		return outcome{}, err
	}
	opts := mube.SolverOptions{Seed: c.seed, MaxIters: c.z.maxIters, Patience: c.z.patience, MaxEvals: c.z.maxEvals}
	s := time.Now()
	sol, err := solver.Solve(ctx, p, opts)
	solve := time.Since(s)
	if err != nil {
		return outcome{}, err
	}
	tr.childDur("opt.solve_ms", solve)
	if tr != nil {
		tr.add("match.groups", float64(groups))
		tr.add("opt.evals", float64(sol.Evals))
		recordNames(m, tr)
	}
	return outcome{ids: sol.IDs, quality: sol.Quality, evals: sol.Evals, status: sol.Status, solve: solve,
		detail: fmt.Sprintf("groups=%d", groups)}, nil
}

func (c *coldRound) check(i int, o outcome, tr *tracer) error {
	if c.ref == nil {
		m, err := mube.NewMatcher(c.u, mube.MatchConfig{})
		if err != nil {
			return err
		}
		if c.ref, err = coldProblem(c.z, c.u, m); err != nil {
			return err
		}
	}
	if i == 0 {
		c.q0 = o.quality
	} else if math.Float64bits(o.quality) != math.Float64bits(c.q0) {
		return fmt.Errorf("pass %d best_q %v != first pass %v", i, o.quality, c.q0)
	}
	return checkSolution(c.ref, o, tr)
}

// interactiveSize shapes interactive-700.
type interactiveSize struct {
	sources    int
	dataFactor float64
	maxSources int
	maxEvals   int
	edits      int
	distinct   int
	minRounds  int
}

var interactiveSizes = map[size]interactiveSize{
	fullSize: {sources: 700, dataFactor: 0.01, maxSources: 20, maxEvals: 1500, edits: 48, distinct: 10, minRounds: 11},
	testSize: {sources: 120, dataFactor: 0.005, maxSources: 10, maxEvals: 300, edits: 12, distinct: 1, minRounds: 1},
}

// interactiveWorkload: the paper's §7.1 universe of BAMM-style sources and a
// session over it. Set-up opens the session and solves once; each step is
// one seeded, scripted user edit followed by a warm-started SolveContext.
func interactiveWorkload(z interactiveSize) workload {
	return workload{
		name:      "interactive-700",
		steps:     z.edits,
		distinct:  z.distinct,
		minRounds: z.minRounds,
		tailPct:   98,
		setup: func(ctx context.Context, seed int64, tr *tracer) (round, error) {
			cfg := mube.ScaledSynthConfig(z.dataFactor)
			cfg.NumSources = z.sources
			cfg.Seed = seed
			u, err := generate(cfg, tr)
			if err != nil {
				return nil, err
			}
			if err := probeMatcher(u, tr); err != nil {
				return nil, err
			}
			qefs, weights := paperQEFs()
			s, err := mube.NewSession(mube.SessionConfig{Universe: u, QEFs: qefs, Weights: weights, MaxSources: z.maxSources,
				SolverOptions: mube.SolverOptions{MaxEvals: z.maxEvals}})
			if err != nil {
				return nil, err
			}
			if _, err := s.SolveContext(ctx); err != nil {
				return nil, err
			}
			return &interactiveRound{s: s, rng: rand.New(rand.NewSource(seed))}, nil
		},
	}
}

type interactiveRound struct {
	s   *mube.Session
	rng *rand.Rand
}

// edit applies scripted edit i. Edit kinds cycle so every seed sees the same
// mix; their arguments come from the round's seeded stream, chosen so that
// the session accepts every edit.
func (r *interactiveRound) edit(i int) (string, error) {
	s, rng := r.s, r.rng
	switch i % 6 {
	case 0:
		// Session.SetWeight rescales the other weights by a sum taken in
		// map order, so its result can differ in the last bit from run to
		// run; the script computes the full weight set in QEF order instead.
		qefs := s.QEFs()
		k := rng.Intn(len(qefs))
		w := 0.1 + 0.4*rng.Float64()
		return fmt.Sprintf("weight %s=%.3f", qefs[k].Name(), w), s.SetWeights(emphasize(qefs, s.Spec().Weights, k, w))
	case 1:
		theta := 0.45 + 0.2*rng.Float64()
		return fmt.Sprintf("theta %.3f", theta), s.SetTheta(theta)
	case 2:
		m := 12 + rng.Intn(17)
		if req := len(s.Spec().Constraints.RequiredSources()); m < req {
			m = req
		}
		return fmt.Sprintf("m %d", m), s.SetMaxSources(m)
	case 3:
		id := mube.SourceID(rng.Intn(s.Universe().Len()))
		return fmt.Sprintf("require %d", id), s.RequireSource(id)
	case 4:
		// Pin a GA of the last solution whose sources, with those already
		// required, still fit in m.
		last := s.Last()
		spec := s.Spec()
		req := spec.Constraints.RequiredSources()
		gas := last.Solution.Schema.GAs
		for _, k := range rng.Perm(len(gas)) {
			need := make(map[mube.SourceID]bool)
			for _, id := range req {
				need[id] = true
			}
			for _, ref := range gas[k].Refs() {
				need[ref.Source] = true
			}
			if len(need) <= spec.MaxSources {
				return fmt.Sprintf("pin ga %d", k), s.PinSolutionGA(last.Index, k)
			}
		}
		return "pin none", nil
	default:
		s.ClearConstraints()
		return "clear", nil
	}
}

// emphasize sets QEF k's weight to w and rescales the others to sum to 1 - w,
// summing in QEF order.
func emphasize(qefs []mube.QEF, cur mube.Weights, k int, w float64) mube.Weights {
	rest := 0.0
	for j, f := range qefs {
		if j != k {
			rest += cur[f.Name()]
		}
	}
	next := make(mube.Weights, len(qefs))
	for j, f := range qefs {
		if j == k {
			next[f.Name()] = w
		} else {
			next[f.Name()] = cur[f.Name()] / rest * (1 - w)
		}
	}
	return next
}

func (r *interactiveRound) step(ctx context.Context, i int, tr *tracer) (outcome, error) {
	t := tr.start()
	what, err := r.edit(i)
	if err != nil {
		return outcome{}, fmt.Errorf("edit %q: %w", what, err)
	}
	tr.child("session.edit_ms", t)
	s := time.Now()
	sol, err := r.s.SolveContext(ctx)
	solve := time.Since(s)
	if err != nil {
		return outcome{}, err
	}
	tr.childDur("opt.solve_ms", solve)
	tr.add("opt.evals", float64(sol.Evals))
	return outcome{ids: sol.IDs, quality: sol.Quality, evals: sol.Evals, status: sol.Status, solve: solve, detail: what}, nil
}

func (r *interactiveRound) check(i int, o outcome, tr *tracer) error {
	t := tr.start()
	p, err := r.s.Problem()
	if err != nil {
		return err
	}
	tr.since("session.problem_ms", t)
	return checkSolution(p, o, tr)
}

// churnSize shapes churn-20k.
type churnSize struct {
	sources, domains, sigMaps int
	dataFactor, churnRate     float64
	epochs                    int
	maxSources                int
	maxIters, patience, evals int
	distinct, minRounds       int
}

var churnSizes = map[size]churnSize{
	fullSize: {sources: 20_000, domains: 8, sigMaps: 64, dataFactor: 0.001, churnRate: 0.10,
		epochs: 8, maxSources: 40, maxIters: 30, patience: 8, evals: 3000, distinct: 8, minRounds: 9},
	testSize: {sources: 1_000, domains: 4, sigMaps: 16, dataFactor: 0.001, churnRate: 0.10,
		epochs: 3, maxSources: 10, maxIters: 8, patience: 3, evals: 300, distinct: 1, minRounds: 1},
}

// churnWorkload: a watch.Loop over a multi-domain universe at a fixed churn
// rate, with delta-pool warm re-solves. Set-up includes the first tick, a
// cold solve with no warm start; each step is one later Loop.Tick.
func churnWorkload(z churnSize) workload {
	return workload{
		name:      "churn-20k",
		steps:     z.epochs,
		distinct:  z.distinct,
		minRounds: z.minRounds,
		tailPct:   85,
		setup: func(ctx context.Context, seed int64, tr *tracer) (round, error) {
			cfg := mube.ScaledSynthConfig(z.dataFactor)
			cfg.NumSources = z.sources
			cfg.Domains = z.domains
			cfg.Sig = mube.SignatureConfig{NumMaps: z.sigMaps}
			cfg.Seed = seed
			u, err := generate(cfg, tr)
			if err != nil {
				return nil, err
			}
			if err := probeMatcher(u, tr); err != nil {
				return nil, err
			}
			arrivals := mube.ScaledSynthConfig(z.dataFactor)
			arrivals.Domains = z.domains
			arrivals.Sig = cfg.Sig
			r := &churnRound{}
			var rec *telemetry.Recorder
			if tr != nil {
				r.sink = &spanSink{}
				r.sink.reset()
				rec = telemetry.NewClocked(r.sink, wallClock{})
			}
			qefs, weights := paperQEFs()
			r.l, err = watch.New(watch.Config{
				Universe:   u,
				Epochs:     z.epochs + 1,
				Seed:       seed,
				ChurnRate:  z.churnRate,
				Arrivals:   arrivals,
				QEFs:       qefs,
				Weights:    weights,
				MaxSources: z.maxSources,
				Solver:     "tabu",
				Options:    mube.SolverOptions{MaxIters: z.maxIters, Patience: z.patience, MaxEvals: z.evals},
				DeltaPool:  true,
				Recorder:   rec,
			})
			if err != nil {
				return nil, err
			}
			rep, err := r.l.Tick(ctx)
			if err != nil {
				return nil, err
			}
			if !okStatus(opt.Status(rep.Status)) {
				return nil, fmt.Errorf("first tick status %q", rep.Status)
			}
			r.sources = rep.Sources
			return r, nil
		},
	}
}

type churnRound struct {
	l       *watch.Loop
	sink    *spanSink // nil on untraced rounds
	sources int       // universe size after the previous tick
	rep     watch.DeltaReport
}

func (r *churnRound) step(ctx context.Context, i int, tr *tracer) (outcome, error) {
	if r.sink != nil {
		r.sink.reset()
	}
	s := time.Now()
	rep, err := r.l.Tick(ctx)
	tick := time.Since(s)
	if err != nil {
		return outcome{}, err
	}
	r.rep = rep
	if tr != nil {
		spans := r.sink.reset()
		solve := spans["solver.run.end"]
		tr.childDur("watch.churn_ms", spans["watch.churn.end"])
		tr.childDur("watch.resolve_self_ms", spans["watch.resolve.end"]-solve)
		tr.childDur("watch.solve_ms", solve)
		tr.addDur("watch.reprobe_ms", spans["watch.reprobe.end"])
		tr.addDur("opt.solve_ms", solve)
		tr.add("opt.evals", float64(rep.WarmEvals))
		tr.add("watch.warm_evals", float64(rep.WarmEvals))
		tr.add("watch.died", float64(rep.Died))
		tr.add("watch.arrived", float64(rep.Arrived))
		tr.add("watch.drifted", float64(rep.Drifted))
	}
	// The loop keeps its solution set private, so the step reports the
	// tick's full DeltaReport for the cross-round comparison instead.
	return outcome{quality: rep.QAfter, evals: rep.WarmEvals, status: opt.Status(rep.Status), solve: tick,
		detail: fmt.Sprintf("%+v", rep)}, nil
}

// check verifies what the watch loop exposes: a normal status, universe
// bookkeeping that adds up, a quality in (0,1], and a warm re-solve that
// never ends below the carried solution re-scored on the churned world.
func (r *churnRound) check(i int, o outcome, tr *tracer) error {
	rep := r.rep
	if !okStatus(o.status) {
		return fmt.Errorf("status %q", o.status)
	}
	if n := r.l.Universe().Len(); rep.Sources != n {
		return fmt.Errorf("report says %d sources, universe has %d", rep.Sources, n)
	}
	if want := r.sources - rep.Died - rep.Dropped + rep.Arrived; rep.Sources != want {
		return fmt.Errorf("%d sources after %d − %d died − %d dropped + %d arrived", rep.Sources, r.sources, rep.Died, rep.Dropped, rep.Arrived)
	}
	r.sources = rep.Sources
	if !(rep.QAfter > 0 && rep.QAfter <= 1) {
		return fmt.Errorf("q_after %v out of (0,1]", rep.QAfter)
	}
	if rep.QAfter < rep.QBefore {
		return fmt.Errorf("warm re-solve q_after %v below carried q_before %v", rep.QAfter, rep.QBefore)
	}
	return nil
}
