package main

import (
	"fmt"
	"math"
	"math/bits"
)

// checker verifies the program's outputs against scans of the raw
// transactions. It keeps its own vertical index — one tidset, a bitset
// over transaction positions, per item — and shares no code with the
// program's bitset or galois packages, so a fault there cannot hide
// itself by agreeing with the check.
type checker struct {
	rows [][]int    // the transactions, sorted items
	tids [][]uint64 // item → tidset over rows
}

func newChecker(rows [][]int) *checker {
	c := &checker{}
	c.extend(rows)
	return c
}

// extend indexes appended transactions.
func (c *checker) extend(rows [][]int) {
	for _, row := range rows {
		t := len(c.rows)
		c.rows = append(c.rows, row)
		for _, it := range row {
			for len(c.tids) <= it {
				c.tids = append(c.tids, nil)
			}
			for len(c.tids[it]) <= t/64 {
				c.tids[it] = append(c.tids[it], 0)
			}
			c.tids[it][t/64] |= 1 << (t % 64)
		}
	}
}

func (c *checker) n() int { return len(c.rows) }

// minSupport is the absolute threshold of a relative one over the
// indexed transactions.
func (c *checker) minSupport(rel float64) int { return minSupport(rel, c.n()) }

// minSupport is the least count s with s ≥ rel·n.
func minSupport(rel float64, n int) int {
	return max(1, int(math.Ceil(rel*float64(n)-1e-9)))
}

// cover returns the tidset of the transactions that contain every
// item, or nil for the empty itemset (all transactions).
func (c *checker) cover(items []int) []uint64 {
	if len(items) == 0 {
		return nil
	}
	words := (c.n() + 63) / 64
	acc := make([]uint64, words)
	for i := range acc {
		acc[i] = ^uint64(0)
	}
	for _, it := range items {
		if it < 0 || it >= len(c.tids) {
			return make([]uint64, words)
		}
		t := c.tids[it]
		for i := range acc {
			if i < len(t) {
				acc[i] &= t[i]
			} else {
				acc[i] = 0
			}
		}
	}
	return acc
}

// support counts the transactions containing every item.
func (c *checker) support(items []int) int {
	if len(items) == 0 {
		return c.n()
	}
	for _, it := range items {
		if it < 0 || it >= len(c.tids) {
			return 0
		}
	}
	n := 0
	for i := range c.tids[items[0]] {
		w := c.tids[items[0]][i]
		for _, it := range items[1:] {
			if t := c.tids[it]; i < len(t) {
				w &= t[i]
			} else {
				w = 0
			}
		}
		n += bits.OnesCount64(w)
	}
	return n
}

// closure is the intersection of the transactions that contain every
// item, with their count. An itemset no transaction contains has no
// closure in the data; closure reports ok=false for it.
func (c *checker) closure(items []int) (closed []int, support int, ok bool) {
	count := make([]int, len(c.tids))
	visit := func(t int) {
		support++
		for _, it := range c.rows[t] {
			count[it]++
		}
	}
	if len(items) == 0 {
		for t := range c.rows {
			visit(t)
		}
	} else {
		for i, w := range c.cover(items) {
			for w != 0 {
				visit(i*64 + bits.TrailingZeros64(w))
				w &= w - 1
			}
		}
	}
	if support == 0 {
		return nil, 0, false
	}
	for it, n := range count {
		if n == support {
			closed = append(closed, it)
		}
	}
	return closed, support, true
}

// closedSet and rule are the checker's own views of the program's
// outputs, so that the checks can be tested on hand-made faults.
type closedSet struct {
	items   []int
	support int
}

type rule struct {
	ant, cons                    []int
	support, antSupport, consSup int
}

// checkClosed verifies a mined family of frequent closed sets at the
// absolute threshold minSup: each set's support matches a scan, each
// set equals the intersection of the transactions that cover it, and
// the closure of every frequent item is present.
func (c *checker) checkClosed(sets []closedSet, minSup int) error {
	byKey := make(map[string]int, len(sets))
	for _, s := range sets {
		key := fmt.Sprint(s.items)
		if _, dup := byKey[key]; dup {
			return fmt.Errorf("closed set %v listed twice", s.items)
		}
		byKey[key] = s.support
		closed, sup, ok := c.closure(s.items)
		if !ok || sup != s.support {
			return fmt.Errorf("closed set %v: support %d, scan counts %d", s.items, s.support, sup)
		}
		if sup < minSup {
			return fmt.Errorf("closed set %v: support %d below threshold %d", s.items, sup, minSup)
		}
		if !equal(closed, s.items) {
			return fmt.Errorf("set %v is not closed: its covering transactions share %v", s.items, closed)
		}
	}
	for it, t := range c.tids {
		if t == nil || c.support([]int{it}) < minSup {
			continue
		}
		closed, sup, _ := c.closure([]int{it})
		got, ok := byKey[fmt.Sprint(closed)]
		if !ok || got != sup {
			return fmt.Errorf("closure %v of frequent item %d (support %d) is missing", closed, it, sup)
		}
	}
	return nil
}

// checkRule verifies a rule's reported counts against scans.
func (c *checker) checkRule(r rule) error {
	if len(intersect(r.ant, r.cons)) > 0 || len(r.cons) == 0 {
		return fmt.Errorf("rule %v → %v: sides overlap or consequent empty", r.ant, r.cons)
	}
	if sup := c.support(union(r.ant, r.cons)); sup != r.support {
		return fmt.Errorf("rule %v → %v: support %d, scan counts %d", r.ant, r.cons, r.support, sup)
	}
	if sup := c.support(r.ant); sup != r.antSupport {
		return fmt.Errorf("rule %v → %v: antecedent support %d, scan counts %d", r.ant, r.cons, r.antSupport, sup)
	}
	if r.consSup != 0 {
		if sup := c.support(r.cons); sup != r.consSup {
			return fmt.Errorf("rule %v → %v: consequent support %d, scan counts %d", r.ant, r.cons, r.consSup, sup)
		}
	}
	return nil
}

// checkExact verifies that every rule of an exact basis holds with
// confidence 1 in the data.
func (c *checker) checkExact(rules []rule) error {
	for _, r := range rules {
		if err := c.checkRule(r); err != nil {
			return err
		}
		if r.support != r.antSupport {
			return fmt.Errorf("exact rule %v → %v has confidence %d/%d", r.ant, r.cons, r.support, r.antSupport)
		}
	}
	return nil
}

// checkApprox verifies the served approximate rules: counts match
// scans and the confidence reaches minConf.
func (c *checker) checkApprox(rules []rule, minConf float64) error {
	for _, r := range rules {
		if err := c.checkRule(r); err != nil {
			return err
		}
		if float64(r.support) < minConf*float64(r.antSupport)-1e-9 {
			return fmt.Errorf("rule %v → %v: confidence %d/%d below %v", r.ant, r.cons, r.support, r.antSupport, minConf)
		}
	}
	return nil
}

// checkSupportAnswer verifies a /support answer: a frequent itemset's
// count matches a scan; an infrequent one is flagged as such.
func (c *checker) checkSupportAnswer(items []int, support int, frequent bool, minSup int) error {
	sup := c.support(items)
	if frequent != (sup >= minSup) {
		return fmt.Errorf("support of %v: frequent=%v, scan counts %d at threshold %d", items, frequent, sup, minSup)
	}
	if frequent && support != sup {
		return fmt.Errorf("support of %v: answered %d, scan counts %d", items, support, sup)
	}
	return nil
}

// checkConfidenceAnswer verifies a /confidence ratio against scans.
func (c *checker) checkConfidenceAnswer(ant, cons []int, conf float64) error {
	a := c.support(ant)
	u := c.support(union(ant, cons))
	if a == 0 || math.Abs(conf-float64(u)/float64(a)) > 1e-12 {
		return fmt.Errorf("confidence of %v → %v: answered %v, scan gives %d/%d", ant, cons, conf, u, a)
	}
	return nil
}

// checkRecommendAnswer verifies a /recommend answer: at most k rules,
// each applies to the observed basket, adds an item not yet observed,
// has the counts a scan gives and at least the served confidence, and
// the rules come in order of non-increasing lift.
func (c *checker) checkRecommendAnswer(observed []int, k int, rules []rule, minConf float64) error {
	if len(rules) > k {
		return fmt.Errorf("recommend %v: %d rules for k=%d", observed, len(rules), k)
	}
	prev := math.Inf(1)
	for _, r := range rules {
		if !subset(r.ant, observed) {
			return fmt.Errorf("recommend %v: rule %v → %v does not apply", observed, r.ant, r.cons)
		}
		if subset(r.cons, observed) {
			return fmt.Errorf("recommend %v: rule %v → %v adds nothing", observed, r.ant, r.cons)
		}
		if err := c.checkApprox([]rule{r}, minConf); err != nil {
			return fmt.Errorf("recommend %v: %v", observed, err)
		}
		cs := c.support(r.cons)
		lift := float64(r.support) * float64(c.n()) / (float64(r.antSupport) * float64(cs))
		if lift > prev*(1+1e-9) {
			return fmt.Errorf("recommend %v: rule %v → %v with lift %.6g ranked after lift %.6g", observed, r.ant, r.cons, lift, prev)
		}
		prev = lift
	}
	return nil
}

func equal(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// union, intersect and subset take and give sorted item lists.
func union(a, b []int) []int {
	out := make([]int, 0, len(a)+len(b))
	i, j := 0, 0
	for i < len(a) || j < len(b) {
		switch {
		case j == len(b) || (i < len(a) && a[i] < b[j]):
			out = append(out, a[i])
			i++
		case i == len(a) || b[j] < a[i]:
			out = append(out, b[j])
			j++
		default:
			out = append(out, a[i])
			i++
			j++
		}
	}
	return out
}

func intersect(a, b []int) []int {
	var out []int
	for i, j := 0, 0; i < len(a) && j < len(b); {
		switch {
		case a[i] < b[j]:
			i++
		case b[j] < a[i]:
			j++
		default:
			out = append(out, a[i])
			i++
			j++
		}
	}
	return out
}

func subset(a, b []int) bool { return len(intersect(a, b)) == len(a) }

// view returns a checker over the first n indexed transactions: the
// data a snapshot served before the later appends.
func (c *checker) view(n int) *checker {
	v := &checker{rows: c.rows[:n], tids: make([][]uint64, len(c.tids))}
	words := (n + 63) / 64
	for it, t := range c.tids {
		if t == nil {
			continue
		}
		w := append([]uint64(nil), t[:min(len(t), words)]...)
		if n%64 != 0 && len(w) == words {
			w[words-1] &= 1<<(n%64) - 1
		}
		v.tids[it] = w
	}
	return v
}
