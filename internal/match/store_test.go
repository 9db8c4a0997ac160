package match

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"mube/internal/constraint"
	"mube/internal/schema"
	"mube/internal/source"
	"mube/internal/strutil"
)

// namer draws attribute names: one or two words from a small syllable
// alphabet (so many names share grams and many do not), in assorted case and
// separator spellings so distinct raw names collapse onto one normalized
// name.
type namer struct{ r *rand.Rand }

func (n namer) word() string {
	syl := []string{"ti", "tle", "au", "thor", "pri", "ce", "de", "par", "ture", "xy", "lo", "qu", "zeb", "ra", "9"}
	var b strings.Builder
	for k := 1 + n.r.Intn(3); k > 0; k-- {
		b.WriteString(syl[n.r.Intn(len(syl))])
	}
	return b.String()
}

func (n namer) name() string {
	w := n.word()
	if n.r.Intn(2) == 0 {
		w += []string{" ", "_", "-", "  ", "."}[n.r.Intn(5)] + n.word()
	}
	switch n.r.Intn(4) {
	case 0:
		w = strings.ToUpper(w)
	case 1:
		w = "_" + w + " "
	}
	return w
}

// novel returns a name no namer word can spell, tagged by k.
func (n namer) novel(k int) string { return fmt.Sprintf("novel%d %s", k, n.word()) }

func (n namer) schema(width int) []string {
	attrs := make([]string, 1+n.r.Intn(width))
	for i := range attrs {
		attrs[i] = n.name()
	}
	return attrs
}

// TestStoreTableMatchesSim is the store's differential: for the gram
// measures, every packed-table entry of New equals float32(Sim) of its two
// names bit for bit — exact zeros of the pairs the postings never proposed
// included — and the fill scores exactly the gram-sharing pairs.
func TestStoreTableMatchesSim(t *testing.T) {
	measures := []strutil.Similarity{
		strutil.NGramJaccard{N: 2}, strutil.NGramJaccard{N: 3}, strutil.NGramJaccard{N: 4}, strutil.NGramDice{N: 3},
	}
	for seed := int64(1); seed <= 3; seed++ {
		nm := namer{rand.New(rand.NewSource(seed))}
		var schemas [][]string
		for i := 0; i < 40; i++ {
			schemas = append(schemas, nm.schema(5))
		}
		u := universe(t, schemas...)
		for _, sim := range measures {
			before := SimCalls()
			m := MustNew(u, Config{Similarity: sim})
			calls := SimCalls() - before
			names := m.store.names
			d := len(names)
			if d < 50 {
				t.Fatalf("seed %d: only %d distinct names", seed, d)
			}
			sharing, zeros := uint64(0), 0
			for j := 0; j < d; j++ {
				for i := 0; i <= j; i++ {
					want := float32(sim.Sim(names[i], names[j]))
					if i == j {
						want = 1
					}
					got := m.table[tri(i, j)]
					if math.Float32bits(got) != math.Float32bits(want) {
						t.Fatalf("seed %d %s: (%q, %q) table %v, Sim %v", seed, sim.Name(), names[i], names[j], got, want)
					}
					if i == j {
						continue
					}
					if shareGram(names[i], names[j], m.store.gramN) {
						sharing++
					} else {
						zeros++
					}
				}
			}
			if calls != sharing {
				t.Errorf("seed %d %s: %d similarity calls, want the %d gram-sharing pairs", seed, sim.Name(), calls, sharing)
			}
			if zeros == 0 {
				t.Errorf("seed %d %s: universe has no gram-disjoint pair; the test proves nothing about zeros", seed, sim.Name())
			}
		}
	}
}

// shareGram reports whether a and b have an n-gram in common.
func shareGram(a, b string, n int) bool {
	gb := strutil.NGrams(b, n)
	for g := range strutil.NGrams(a, n) {
		if _, ok := gb[g]; ok {
			return true
		}
	}
	return false
}

// storeSnapshot deep-copies what a matcher's store exposes, to prove a
// rebind leaves its receiver untouched.
type storeSnapshot struct {
	raw   map[string]int32
	names []string
	table []float32
	sets  [][]uint32
	post  [][]int32
}

func snapshot(st *nameStore) storeSnapshot {
	s := storeSnapshot{
		raw:   make(map[string]int32, len(st.raw)),
		names: slices.Clone(st.names),
		table: slices.Clone(st.table),
	}
	for k, v := range st.raw {
		s.raw[k] = v
	}
	for _, set := range st.sets {
		s.sets = append(s.sets, slices.Clone(set))
	}
	for _, p := range st.post {
		s.post = append(s.post, slices.Clone(p))
	}
	return s
}

func (s storeSnapshot) check(t *testing.T, round int, st *nameStore) {
	t.Helper()
	same := len(s.raw) == len(st.raw) && slices.Equal(s.names, st.names) &&
		len(s.table) == len(st.table) && len(s.sets) == len(st.sets) && len(s.post) == len(st.post)
	for k, v := range s.raw {
		same = same && st.raw[k] == v
	}
	for i := range s.table {
		same = same && math.Float32bits(s.table[i]) == math.Float32bits(st.table[i])
	}
	for i := range s.sets {
		same = same && slices.Equal(s.sets[i], st.sets[i])
	}
	for i := range s.post {
		same = same && slices.Equal(s.post[i], st.post[i])
	}
	if !same {
		t.Fatalf("round %d: Rebind changed its receiver's store", round)
	}
}

// TestRebindChainMatchesNew runs ten churn rounds — sources die, survivors
// drift to new spellings, arrivals bring novel names — each rebinding the
// previous round's matcher. Every round's matcher must agree with a cold New
// over the same universe on every attribute pair, on Match and on the shard
// index, and no rebind may change its receiver or a sibling rebound from the
// same receiver.
func TestRebindChainMatchesNew(t *testing.T) {
	for _, sim := range []strutil.Similarity{strutil.TriGramJaccard, strutil.NGramDice{N: 3}, strutil.JaroWinklerSim{}} {
		t.Run(sim.Name(), func(t *testing.T) {
			r := rand.New(rand.NewSource(7))
			nm := namer{r}
			var schemas [][]string
			for i := 0; i < 24; i++ {
				schemas = append(schemas, nm.schema(4))
			}
			cfg := Config{Similarity: sim, Theta: 0.4}
			m := MustNew(universe(t, schemas...), cfg)
			novel := 0
			for round := 1; round <= 10; round++ {
				// Drop a few, drift one, add arrivals (one novel name each).
				for k := 0; k < 3; k++ {
					i := r.Intn(len(schemas))
					schemas = append(schemas[:i], schemas[i+1:]...)
				}
				schemas[r.Intn(len(schemas))] = nm.schema(4)
				for k := 0; k < 3; k++ {
					novel++
					schemas = append(schemas, append(nm.schema(3), nm.novel(novel)))
				}
				u := universe(t, schemas...)

				snap := snapshot(m.store)
				warm, err := m.Rebind(u)
				if err != nil {
					t.Fatal(err)
				}
				snap.check(t, round, m.store)
				// A sibling rebind of the same receiver, with names of its
				// own, must not write into memory the first one reads.
				warmSnap := snapshot(warm.store)
				sibling := append(slices.Clone(schemas[:len(schemas)-1]), []string{nm.novel(-round), nm.name()})
				if _, err := m.Rebind(universe(t, sibling...)); err != nil {
					t.Fatal(err)
				}
				warmSnap.check(t, round, warm.store)
				snap.check(t, round, m.store)
				cold := MustNew(u, cfg)
				rebindAgrees(t, round, u, warm, cold)
				shardIndexEqual(t, "rebound", warm.buildShardIndex(), warm.buildShardIndexFlat())
				m = warm
			}
		})
	}
}

// rebindAgrees checks warm against cold on every attribute pair of u and on
// Match over growing prefixes of u, with and without a GA constraint.
func rebindAgrees(t *testing.T, round int, u *source.Universe, warm, cold *Matcher) {
	t.Helper()
	var refs []schema.AttrRef
	for _, id := range u.IDs() {
		for a := 0; a < u.Source(id).Schema.Len(); a++ {
			refs = append(refs, schema.AttrRef{Source: id, Attr: a})
		}
	}
	for _, a := range refs {
		for _, b := range refs {
			pw, pc := warm.PairSim(a, b), cold.PairSim(a, b)
			if math.Float64bits(pw) != math.Float64bits(pc) {
				t.Fatalf("round %d: PairSim(%v, %v) warm %v != cold %v", round, a, b, pw, pc)
			}
		}
	}
	all := u.IDs()
	pin := constraint.Set{GAs: []schema.GA{schema.NewGA(ref(0, 0), ref(1, 0))}}
	for k := 2; k <= len(all); k += 3 {
		for _, cons := range []constraint.Set{{}, pin} {
			rw, err := warm.Match(all[:k], cons)
			if err != nil {
				t.Fatal(err)
			}
			rc, err := cold.Match(all[:k], cons)
			if err != nil {
				t.Fatal(err)
			}
			if rw.OK != rc.OK || math.Float64bits(rw.Quality) != math.Float64bits(rc.Quality) ||
				rw.Schema.String() != rc.Schema.String() {
				t.Fatalf("round %d, %d sources: warm (%v, %v, %v) != cold (%v, %v, %v)",
					round, k, rw.OK, rw.Quality, rw.Schema, rc.OK, rc.Quality, rc.Schema)
			}
		}
	}
}

// TestRebindSimCalls pins the cost of a rebind: none for a universe without
// new names, and for k new names at most the pairs of a new name and a name
// sharing one of its grams — not k·d.
func TestRebindSimCalls(t *testing.T) {
	nm := namer{rand.New(rand.NewSource(3))}
	var schemas [][]string
	for i := 0; i < 60; i++ {
		schemas = append(schemas, nm.schema(5))
	}
	m := MustNew(universe(t, schemas...), Config{})

	// Same names, different sources: no work.
	before := SimCalls()
	same, err := m.Rebind(universe(t, schemas[10:]...))
	if err != nil {
		t.Fatal(err)
	}
	if got := SimCalls() - before; got != 0 {
		t.Fatalf("rebind without new names made %d similarity calls", got)
	}
	if same.store != m.store {
		t.Error("rebind without new names rebuilt the store")
	}

	// Arrivals with novel names.
	for k := 1; k <= 4; k++ {
		schemas = append(schemas, []string{nm.novel(k), nm.name()})
	}
	before = SimCalls()
	grown, err := m.Rebind(universe(t, schemas...))
	if err != nil {
		t.Fatal(err)
	}
	calls := SimCalls() - before
	oldD, d := m.store.len(), grown.store.len()
	names := grown.store.names
	bound := uint64(0)
	for j := oldD; j < d; j++ {
		for i := 0; i < j; i++ {
			if shareGram(names[i], names[j], 3) {
				bound++
			}
		}
	}
	dense := uint64(d*(d-1)/2 - oldD*(oldD-1)/2)
	if calls == 0 || calls != bound {
		t.Fatalf("rebind with %d new names made %d similarity calls, want its %d gram-sharing pairs", d-oldD, calls, bound)
	}
	if calls >= dense {
		t.Fatalf("rebind made %d similarity calls, no fewer than the %d new pairs of a dense fill", calls, dense)
	}
}

// TestWithParamsSharesShardIndex pins the shard-index cache: the index
// depends only on θ and the universe, so a clone at the same θ shares it and
// a clone at another θ builds its own.
func TestWithParamsSharesShardIndex(t *testing.T) {
	u := randomUniverse(t, rand.New(rand.NewSource(1)), 30)
	m := MustNew(u, Config{Theta: 0.45})
	a, err := m.WithParams(0.45, 3, AvgLinkage)
	if err != nil {
		t.Fatal(err)
	}
	b, err := a.WithParams(0.45, 2, MaxLinkage)
	if err != nil {
		t.Fatal(err)
	}
	if a.shardIdx() != m.shardIdx() || b.shardIdx() != m.shardIdx() {
		t.Error("same-θ clones do not share the shard index")
	}
	c, err := b.WithParams(0.6, 2, MaxLinkage)
	if err != nil {
		t.Fatal(err)
	}
	if c.shardIdx() == m.shardIdx() {
		t.Error("a θ change kept the old shard index")
	}
	shardIndexEqual(t, "θ=0.6", *c.shardIdx(), MustNew(u, Config{Theta: 0.6}).buildShardIndexFlat())
}
