package main

import (
	"math"
	"math/rand"
	"sort"
	"strconv"
)

// The population models below are fixed: their structure (QUEST
// potential patterns, census clusters) comes from a constant seed, and
// the run's --seed only draws the transactions, the held-out baskets,
// the request streams and the appended batches from them. Two seeds
// therefore give two samples of one population, so a build costs about
// the same on every seed, while no seed repeats another's data.
const populationSeed = 20000

// basketModel is a QUEST-style market-basket population in the T10I4
// regime (Agrawal & Srikant, VLDB 1994): potential patterns of Poisson
// size 4 that reuse part of their predecessor, exponential pattern
// weights, and a per-pattern corruption level that drops items.
type basketModel struct {
	avgLen   int
	patterns [][]int
	corrupt  []float64
	cum      []float64 // cumulative pattern weights
}

func newBasketModel() *basketModel {
	const (
		numItems    = 1000
		numPatterns = 2000
		patternLen  = 4
		correlation = 0.5
	)
	r := rand.New(rand.NewSource(populationSeed))
	m := &basketModel{avgLen: 10}
	m.patterns = make([][]int, numPatterns)
	m.corrupt = make([]float64, numPatterns)
	m.cum = make([]float64, numPatterns)
	total := 0.0
	for p := range m.patterns {
		size := max(1, poisson(r, patternLen))
		seen := map[int]bool{}
		var items []int
		if p > 0 {
			prev := m.patterns[p-1]
			reuse := int(math.Round(math.Min(1, r.ExpFloat64()*correlation) * float64(size)))
			for _, i := range r.Perm(len(prev)) {
				if len(items) >= reuse {
					break
				}
				seen[prev[i]] = true
				items = append(items, prev[i])
			}
		}
		for len(items) < size {
			if it := r.Intn(numItems); !seen[it] {
				seen[it] = true
				items = append(items, it)
			}
		}
		m.patterns[p] = items
		m.corrupt[p] = math.Max(0, math.Min(1, r.NormFloat64()*0.1+0.5))
		total += r.ExpFloat64()
		m.cum[p] = total
	}
	return m
}

// draw samples one transaction: patterns picked by weight, each
// corrupted, until the Poisson target length is reached. Items keep
// the order they were drawn in, so a prefix of a transaction is the
// part of a basket a shopper has already picked.
func (m *basketModel) draw(r *rand.Rand) []int {
	want := max(1, poisson(r, float64(m.avgLen)))
	seen := map[int]bool{}
	var tx []int
	for len(tx) < want {
		p := sort.SearchFloat64s(m.cum, r.Float64()*m.cum[len(m.cum)-1])
		items := append([]int(nil), m.patterns[p]...)
		for len(items) > 0 && r.Float64() < m.corrupt[p] {
			i := r.Intn(len(items))
			items[i] = items[len(items)-1]
			items = items[:len(items)-1]
		}
		if len(items) == 0 {
			continue
		}
		if len(tx)+len(items) > want && len(tx) > 0 && r.Intn(2) == 0 {
			break
		}
		for _, it := range items {
			if !seen[it] {
				seen[it] = true
				tx = append(tx, it)
			}
		}
		if len(tx) >= want {
			break
		}
	}
	return tx
}

// censusModel is a census-style population in the C20 regime: each
// object has one value for each of 20 attributes, half of which are
// fixed by a latent cluster and half of which deviate from the
// cluster's value with some noise. The functional dependencies make
// the data dense and the closed sets far fewer than the frequent ones.
type censusModel struct {
	attrs, values, numDet int
	noise                 float64
	pref                  [][]int   // cluster → attribute → preferred value
	cum                   []float64 // cumulative cluster weights
}

func newCensusModel() *censusModel {
	const clusters = 8
	r := rand.New(rand.NewSource(populationSeed))
	m := &censusModel{attrs: 20, values: 10, numDet: 10, noise: 0.15}
	// Preferred values are skewed towards low ids, as census fields
	// have dominant modal values; cluster weights fall off as 1/(c+1).
	vcum := make([]float64, m.values)
	vt := 0.0
	for v := range vcum {
		vt += 1 / float64((v+1)*(v+1))
		vcum[v] = vt
	}
	m.pref = make([][]int, clusters)
	m.cum = make([]float64, clusters)
	total := 0.0
	for c := range m.pref {
		m.pref[c] = make([]int, m.attrs)
		for a := range m.pref[c] {
			m.pref[c][a] = sort.SearchFloat64s(vcum, r.Float64()*vt)
		}
		total += 1 / float64(c+1)
		m.cum[c] = total
	}
	return m
}

// draw samples one object as its attribute=value items.
func (m *censusModel) draw(r *rand.Rand) []int {
	c := sort.SearchFloat64s(m.cum, r.Float64()*m.cum[len(m.cum)-1])
	row := make([]int, m.attrs)
	for a := range row {
		v := m.pref[c][a]
		if a >= m.numDet && r.Float64() < m.noise {
			v = r.Intn(m.values)
		}
		row[a] = a*m.values + v
	}
	return row
}

func poisson(r *rand.Rand, lambda float64) int {
	l := math.Exp(-lambda)
	k, p := 0, 1.0
	for {
		p *= r.Float64()
		if p <= l {
			return k
		}
		k++
	}
}

// inputs is everything one run feeds the program, drawn from the
// workload's population with the run's seed.
type inputs struct {
	base    [][]int   // the mined transactions, sorted items
	dat     []byte    // base in .dat form
	appends [][][]int // the append schedule's batches, sorted items
	baskets [][]int   // held-out partial baskets for POST /recommend, by Zipf rank
	support [][]int   // itemsets for GET /support
	conf    []confQuery
}

// confQuery is one GET /confidence question.
type confQuery struct{ ant, cons []int }

// genInputs draws a workload's inputs. The confidence queries are
// chosen by scanning the raw transactions (with the checker's own
// index), so that every union stays frequent after the whole append
// schedule and every answer is defined.
func genInputs(w *workload, seed int64) *inputs {
	r := rand.New(rand.NewSource(seed))
	var draw func(*rand.Rand) []int
	if w.census {
		draw = newCensusModel().draw
	} else {
		draw = newBasketModel().draw
	}
	in := &inputs{base: make([][]int, w.numTx)}
	for i := range in.base {
		in.base[i] = sorted(draw(r))
	}
	in.dat = encodeDat(in.base)
	batch := w.numTx / 100
	in.appends = make([][][]int, w.rounds*w.perRound)
	for b := range in.appends {
		in.appends[b] = make([][]int, batch)
		for i := range in.appends[b] {
			in.appends[b][i] = sorted(draw(r))
		}
	}
	in.baskets = make([][]int, basketPool)
	for i := range in.baskets {
		tx := draw(r)
		in.baskets[i] = sorted(tx[:(len(tx)+1)/2])
	}
	in.support = make([][]int, queryPool)
	for i := range in.support {
		tx := draw(r)
		n := 1 + r.Intn(min(3, len(tx)))
		pick := r.Perm(len(tx))[:n]
		items := make([]int, n)
		for j, p := range pick {
			items[j] = tx[p]
		}
		in.support[i] = sorted(items)
	}

	// A question qualifies when its union is frequent in the base data
	// at the threshold of the fully appended data: supports only grow
	// under appends, so every answer stays defined to the end.
	ck := newChecker(in.base)
	need := minSupport(w.minSup, w.numTx+len(in.appends)*batch)
	itemSup := make([]int, len(ck.tids))
	for it := range itemSup {
		itemSup[it] = ck.support([]int{it})
	}
	for tries := 0; len(in.conf) < confPool && tries < 100*confPool; tries++ {
		var tx []int
		for _, it := range draw(r) {
			if it < len(itemSup) && itemSup[it] >= need {
				tx = append(tx, it)
			}
		}
		if len(tx) < 2 {
			continue
		}
		perm := r.Perm(len(tx))
		na := 1 + r.Intn(min(2, len(tx)-1))
		ant := make([]int, na)
		for j := range ant {
			ant[j] = tx[perm[j]]
		}
		cons := []int{tx[perm[na]]}
		if ck.support(union(sorted(ant), cons)) >= need {
			in.conf = append(in.conf, confQuery{ant: sorted(ant), cons: cons})
		}
	}
	return in
}

const (
	basketPool = 6000 // held-out baskets; Zipf-ranked, larger than the warm-up touches
	queryPool  = 2000 // /support questions
	confPool   = 500  // /confidence questions
)

func sorted(items []int) []int {
	out := append([]int(nil), items...)
	sort.Ints(out)
	return out
}

func encodeDat(rows [][]int) []byte {
	var b []byte
	for _, row := range rows {
		for i, x := range row {
			if i > 0 {
				b = append(b, ' ')
			}
			b = strconv.AppendInt(b, int64(x), 10)
		}
		b = append(b, '\n')
	}
	return b
}
