package match

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// Inverted-index candidate generation for the shard-index build.
//
// The flat build tests all n(n−1)/2 similarity pairs against θ. That is the
// one remaining quadratic pass on the Internet-scale path — at 10⁶ sources
// even a deduplicated distinct-name table makes it millions of Sim lookups.
// But for the gram-set measures the repo actually clusters with, a pair can
// only reach θ > 0 if its similarity is positive, and:
//
//   - NGramJaccard/NGramDice are positive iff the two names share at least
//     one n-gram (set intersection in the numerator), and float32 conversion
//     maps exact 0 to exact 0;
//   - the hybrid blend (1−w)·nameSim + w·minhashJaccard is positive only if
//     the name component is (shared gram) or the data component is — and the
//     empty-aware OPH estimator is positive only when some occupied slot
//     holds the same minimum in both signatures (a shared (slot,min) band;
//     see minhash.Signature.Slots).
//
// So the θ-reachable pairs are covered by an inverted index: postings per
// n-gram (and, in hybrid mode, per MinHash band). Candidates are generated
// per id from the posting lists, scored against the packed table in parallel
// id blocks, and the surviving edges union-found in block order. Edge order
// cannot change the result — components are sets, and finishShardIndex
// numbers them by first-member order in the ascending id scan — which is
// exactly what the differential tests against the flat build pin.
//
// Measures outside the gram family (Levenshtein, JaroWinkler, custom Funcs)
// have no such zero-certificate, so buildShardIndex falls back to the flat
// loop for them.

// bandKey mixes a (slot, min) pair into one map key. Collisions between
// different bands only add false candidates; the θ test filters them.
func bandKey(slot int, min uint64) uint64 {
	return min ^ (uint64(slot)+1)*0x9E3779B97F4A7C15
}

// collectEdgesIndexed runs the inverted-index candidate build, unioning every
// candidate pair at or above θ into parent. Returns false — with parent
// untouched — when the similarity measure is outside the index's soundness
// envelope and the caller must use the flat loop.
func (m *Matcher) collectEdgesIndexed(parent []int32) bool {
	st := m.store
	if st.gramN == 0 {
		return false
	}
	n := m.n
	if n == 0 {
		return true
	}

	// Posting lists, each ascending by id so the per-id candidate scan below
	// can stop at the first j ≥ i. Name mode: similarity ids are the store's
	// name ids, so its gram postings serve as they are.
	grams := st.post
	if m.cfg.DataWeight > 0 {
		// Hybrid mode: one id per attribute, posted under the store's gram
		// set of the attribute's name. Ids are appended in ascending order.
		grams = make([][]int32, len(st.post))
		for si, s := range m.u.Sources() {
			for ai := 0; ai < s.Schema.Len(); ai++ {
				id := int32(m.simID[si][ai])
				for _, g := range st.sets[st.raw[s.Schema.Name(ai)]] {
					grams[g] = append(grams[g], id)
				}
			}
		}
	}
	var bands map[uint64][]int32
	if m.cfg.DataWeight > 0 {
		bands = make(map[uint64][]int32)
		for si, s := range m.u.Sources() {
			for ai := 0; ai < s.Schema.Len(); ai++ {
				sig := s.AttrSignature(ai)
				if sig == nil {
					continue
				}
				id := int32(m.simID[si][ai])
				sig.Slots(func(slot int, min uint64) bool {
					k := bandKey(slot, min)
					bands[k] = append(bands[k], id)
					return true
				})
			}
		}
	}

	// Per-id posting lists, so the scoring phase never touches the maps.
	// lists[i] holds the posting lists id i appears in.
	lists := make([][][]int32, n)
	appendList := func(post []int32) {
		if len(post) < 2 {
			return // a singleton posting can never produce a pair
		}
		for _, id := range post {
			lists[id] = append(lists[id], post)
		}
	}
	for _, post := range grams {
		appendList(post)
	}
	for _, post := range bands {
		appendList(post)
	}

	// Parallel blocked scoring: split the id range into blocks, score each
	// block's candidates independently (per-worker visited stamps dedupe the
	// posting-list union), then apply the surviving edges in block order.
	// Scheduling affects nothing observable: edges land in per-block slots
	// and the candidate counter is a commutative sum.
	workers := runtime.GOMAXPROCS(0)
	const blockSize = 256
	nBlocks := (n + blockSize - 1) / blockSize
	if workers > nBlocks {
		workers = nBlocks
	}
	edges := make([][]int32, nBlocks) // flattened (j,i) pairs per block
	tested := make([]uint64, nBlocks)
	theta := m.cfg.Theta
	// seen is per worker, not per block: stamps are keyed by the probing id i,
	// which is unique across blocks, so a worker can reuse one array.
	scoreBlock := func(b int, seen []int32) {
		lo, hi := b*blockSize, (b+1)*blockSize
		if hi > n {
			hi = n
		}
		var out []int32
		var count uint64
		for i := lo; i < hi; i++ {
			for _, post := range lists[i] {
				for _, j := range post {
					if int(j) >= i {
						break // sorted: the rest of the list is ≥ i
					}
					if seen[j] == int32(i) {
						continue
					}
					seen[j] = int32(i)
					count++
					// Same comparison the linkage performs: widen to float64.
					if float64(m.table[tri(int(j), i)]) >= theta {
						out = append(out, j, int32(i))
					}
				}
			}
		}
		edges[b] = out
		tested[b] = count
	}
	newSeen := func() []int32 {
		seen := make([]int32, n)
		for i := range seen {
			seen[i] = -1
		}
		return seen
	}
	if workers <= 1 {
		seen := newSeen()
		for b := 0; b < nBlocks; b++ {
			scoreBlock(b, seen)
		}
	} else {
		var cursor atomic.Int64
		var wg sync.WaitGroup
		wg.Add(workers)
		for w := 0; w < workers; w++ {
			go func() {
				defer wg.Done()
				seen := newSeen()
				for {
					b := int(cursor.Add(1)) - 1
					if b >= nBlocks {
						return
					}
					scoreBlock(b, seen)
				}
			}()
		}
		wg.Wait()
	}

	total := uint64(0)
	for b := 0; b < nBlocks; b++ {
		total += tested[b]
		out := edges[b]
		for k := 0; k < len(out); k += 2 {
			ri, rj := ufFind(parent, out[k]), ufFind(parent, out[k+1])
			if ri != rj {
				parent[rj] = ri
			}
		}
	}
	pairCandidates.Add(total)
	return true
}

// SimIDs returns the number of distinct similarity ids the matcher scores
// over (distinct normalized names in name mode, attributes in hybrid mode).
// n·(n−1)/2 over this count is the flat shard-index pair total that
// PairCandidates is measured against.
func (m *Matcher) SimIDs() int { return m.n }
