package match

import (
	"maps"
	"slices"
	"strings"

	"mube/internal/source"
	"mube/internal/strutil"
)

// nameStore is the matcher's one builder of name similarities: an
// append-only table of the distinct normalized attribute names of a universe
// and their packed similarity table. New builds a store from empty; Rebind
// extends its receiver's store with the names a churned universe introduced.
// Both go through bind, which scores only the new names.
//
// Interning is keyed by the raw spelling, so strutil.Normalize runs once per
// distinct spelling rather than once per attribute occurrence. Names are
// never removed: a name dropped with its source keeps its id, so every
// surviving id — and every similarity already in the table — stays valid
// across rebinds.
//
// For the gram measures (strutil.NGramJaccard and NGramDice, the envelope
// gramSize admits) each name keeps its gram set as sorted gram ids, and a
// gram → name posting index lists every name holding a gram. A pair of names
// sharing no gram has similarity exactly 0 under those measures, so only
// pairs found through the postings are scored: their shared-gram count is
// accumulated from the posting lists and fed through the same formula as
// strutil.JaccardSets/DiceSets, making every entry bit-identical to
// float32(Sim(a, b)). Every other pair keeps the table's zero. Any other
// measure scores every new pair with Sim.
//
// A store is read-only once bind has returned it; bind extends a clone and
// leaves the receiver valid.
type nameStore struct {
	sim   strutil.Similarity
	gramN int  // n-gram size of a gram measure; 0 outside the envelope
	dice  bool // gram measure is NGramDice (else NGramJaccard)

	raw   map[string]int32 // raw attribute name -> name id
	norm  map[string]int32 // normalized name -> name id
	names []string         // normalized names by id

	// table is the packed triangular similarity table over name ids, column
	// by column (see tri): growing the store appends whole columns, so the
	// old table is a prefix of the new one.
	table []float32

	// Gram measures only.
	grams map[string]uint32 // gram -> gram id
	sets  [][]uint32        // name id -> sorted distinct gram ids
	post  [][]int32         // gram id -> ascending name ids holding it
}

// tri returns the index of the pair (i, j), i ≤ j, in a packed triangular
// table stored column by column.
func tri(i, j int) int { return j*(j+1)/2 + i }

// gramSize returns the n-gram size when the similarity measure is gram-set
// based — the envelope in which scoring only gram-sharing pairs, and the
// shard index's inverted postings, are provably sound.
func gramSize(s strutil.Similarity) (int, bool) {
	switch m := s.(type) {
	case strutil.NGramJaccard:
		return m.N, m.N > 0
	case strutil.NGramDice:
		return m.N, m.N > 0
	}
	return 0, false
}

// newNameStore returns an empty store scoring with sim.
func newNameStore(sim strutil.Similarity) *nameStore {
	st := &nameStore{sim: sim, raw: map[string]int32{}, norm: map[string]int32{}}
	if n, ok := gramSize(sim); ok {
		st.gramN = n
		_, st.dice = sim.(strutil.NGramDice)
		st.grams = map[string]uint32{}
	}
	return st
}

// len returns the number of interned names.
func (st *nameStore) len() int { return len(st.names) }

// bind resolves every attribute name of u to a name id. When u holds no name
// the store has not seen, it returns st itself; otherwise it returns a clone
// extended with the new names and their table columns. Either way the rows
// of the returned id table are indexed [source][attr].
func (st *nameStore) bind(u *source.Universe) (*nameStore, [][]int) {
	total := 0
	for _, s := range u.Sources() {
		total += s.Schema.Len()
	}
	flat := make([]int, total)
	nameID := make([][]int, u.Len())
	out := st
	for si, s := range u.Sources() {
		row := flat[:s.Schema.Len():s.Schema.Len()]
		flat = flat[len(row):]
		for ai := range row {
			raw := s.Schema.Name(ai)
			id, ok := out.raw[raw]
			if !ok {
				if out == st {
					out = st.clone()
				}
				id = out.intern(raw)
			}
			row[ai] = int(id)
		}
		nameID[si] = row
	}
	if out != st {
		out.grow(st.len())
	}
	return out, nameID
}

// clone returns a copy of st that can be extended without touching st:
// maps are copied, and every slice is clipped so that an append reallocates
// instead of writing into memory st still reads.
func (st *nameStore) clone() *nameStore {
	c := *st
	c.raw = maps.Clone(st.raw)
	c.norm = maps.Clone(st.norm)
	c.names = slices.Clip(st.names)
	if st.gramN > 0 {
		c.grams = maps.Clone(st.grams)
		c.sets = slices.Clip(st.sets)
		c.post = make([][]int32, len(st.post))
		for g, p := range st.post {
			c.post[g] = slices.Clip(p)
		}
	}
	return &c
}

// intern maps a raw name not yet seen to its name id, adding its normalized
// form (and gram set) when that is new too.
func (st *nameStore) intern(raw string) int32 {
	norm := strutil.Normalize(raw)
	id, ok := st.norm[norm]
	if !ok {
		id = int32(len(st.names))
		st.norm[norm] = id
		st.names = append(st.names, norm)
		if st.gramN > 0 {
			st.sets = append(st.sets, st.gramSet(norm))
		}
	}
	st.raw[raw] = id
	return id
}

// gramSet returns the sorted gram ids of a normalized name, interning grams
// not seen before. The grams are those of strutil.NGrams(norm, gramN); norm
// is already normalized and Normalize is idempotent, so it is not re-run.
func (st *nameStore) gramSet(norm string) []uint32 {
	pad := strings.Repeat("#", st.gramN-1)
	padded := pad + norm + pad
	set := make([]uint32, 0, len(padded))
	for i := 0; i+st.gramN <= len(padded); i++ {
		g := padded[i : i+st.gramN]
		gid, ok := st.grams[g]
		if !ok {
			gid = uint32(len(st.post))
			st.grams[strings.Clone(g)] = gid
			st.post = append(st.post, nil)
		}
		set = append(set, gid)
	}
	slices.Sort(set)
	return slices.Compact(set)
}

// grow extends the table from the first from names to all of them, scoring
// the new columns, and adds the new names to the posting index.
func (st *nameStore) grow(from int) {
	d := st.len()
	table := make([]float32, tri(0, d))
	copy(table, st.table)
	st.table = table
	if st.gramN == 0 {
		for j := from; j < d; j++ {
			col := table[tri(0, j) : tri(j, j)+1]
			for i := 0; i < j; i++ {
				col[i] = float32(st.sim.Sim(st.names[i], st.names[j]))
			}
			col[j] = 1
			simCalls.Add(uint64(j))
		}
		return
	}
	// count[i] accumulates the grams name i shares with the name being
	// added; touched lists the i with count[i] > 0, in first-seen order.
	count := make([]int32, d)
	var touched []int32
	for j := from; j < d; j++ {
		col := table[tri(0, j) : tri(j, j)+1]
		col[j] = 1
		set := st.sets[j]
		touched = touched[:0]
		for _, g := range set {
			// Postings hold only ids < j here: j is appended below.
			for _, i := range st.post[g] {
				if count[i] == 0 {
					touched = append(touched, i)
				}
				count[i]++
			}
		}
		for _, i := range touched {
			col[i] = float32(st.setSim(int(count[i]), len(st.sets[i]), len(set)))
			count[i] = 0
		}
		simCalls.Add(uint64(len(touched)))
		for _, g := range set {
			st.post[g] = append(st.post[g], int32(j))
		}
	}
}

// setSim is strutil.JaccardSets/DiceSets from the intersection size inter of
// two non-empty gram sets of sizes la and lb, with the same float operations.
func (st *nameStore) setSim(inter, la, lb int) float64 {
	if st.dice {
		return 2 * float64(inter) / float64(la+lb)
	}
	return float64(inter) / float64(la+lb-inter)
}
