package match

import (
	"math"
	"testing"

	"mube/internal/strutil"
)

// FuzzGramSim checks the name store's gram scoring against the reference
// measures: for any two names, the store's entry equals
// float32(NGramJaccard{N: 3}.Sim) and float32(NGramDice{N: 3}.Sim) bit for
// bit. It also checks that strutil.Normalize is idempotent, which the store
// relies on when it extracts grams from names it has already normalized.
func FuzzGramSim(f *testing.F) {
	for _, seed := range [][2]string{
		{"title", "book title"},
		{"Author_Name", "author name"},
		{"price", "zebra"},
		{"", ""},
		{"a", ""},
		{"ÄÖ-x", "x"},
		{"###", "#"},
		{"dep  time", "departure.time "},
	} {
		f.Add(seed[0], seed[1])
	}
	f.Fuzz(func(t *testing.T, a, b string) {
		for _, s := range []string{a, b} {
			if n := strutil.Normalize(s); strutil.Normalize(n) != n {
				t.Fatalf("Normalize(%q) = %q is not a fixed point", s, n)
			}
		}
		for _, sim := range []strutil.Similarity{strutil.NGramJaccard{N: 3}, strutil.NGramDice{N: 3}} {
			st := newNameStore(sim)
			ia, ib := int(st.intern(a)), int(st.intern(b))
			st.grow(0)
			got := st.table[tri(min(ia, ib), max(ia, ib))]
			want := float32(sim.Sim(a, b))
			if math.Float32bits(got) != math.Float32bits(want) {
				t.Fatalf("%s(%q, %q): store %v, Sim %v", sim.Name(), a, b, got, want)
			}
		}
	})
}
