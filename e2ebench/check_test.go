package main

import (
	"context"
	"strings"
	"testing"

	"closedrules"
)

// The paper's running example: five transactions over items 1–5.
var example = [][]int{{1, 3, 4}, {2, 3, 5}, {1, 2, 3, 5}, {2, 5}, {1, 2, 3, 5}}

const exampleMinSup = 0.4 // two transactions

// mined runs the program on the example and returns its closed sets,
// its served rules and the service.
func mined(t *testing.T) ([]closedSet, []rule, []rule, *closedrules.QueryService) {
	t.Helper()
	d, err := closedrules.NewDataset(example)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	res, err := closedrules.MineContext(ctx, d, closedrules.WithMinSupport(exampleMinSup))
	if err != nil {
		t.Fatal(err)
	}
	qs, err := closedrules.NewQueryService(res, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	dg, err := qs.BasisRules(ctx, "duquenne-guigues", 0.5)
	if err != nil {
		t.Fatal(err)
	}
	lux, err := qs.BasisRules(ctx, "luxenburger", 0.5)
	if err != nil {
		t.Fatal(err)
	}
	return closedSets(res), rules(dg.Rules), rules(lux.Rules), qs
}

func wantError(t *testing.T, err error, fragment string) {
	t.Helper()
	if err == nil {
		t.Fatalf("fault not caught; want an error mentioning %q", fragment)
	}
	if !strings.Contains(err.Error(), fragment) {
		t.Fatalf("error %q does not mention %q", err, fragment)
	}
}

func TestCheckerAcceptsProgramOutput(t *testing.T) {
	sets, dg, lux, qs := mined(t)
	ck := newChecker(example)
	minSup := ck.minSupport(exampleMinSup)
	if err := ck.checkClosed(sets, minSup); err != nil {
		t.Fatal(err)
	}
	if err := ck.checkExact(dg); err != nil {
		t.Fatal(err)
	}
	if err := ck.checkApprox(lux, 0.5); err != nil {
		t.Fatal(err)
	}
	for _, obs := range [][]int{{1}, {2}, {3}, {2, 3}, {1, 5}} {
		recs, err := qs.Recommend(context.Background(), closedrules.Items(obs...), 3)
		if err != nil {
			t.Fatal(err)
		}
		if err := ck.checkRecommendAnswer(obs, 3, rules(recs), 0.5); err != nil {
			t.Fatal(err)
		}
	}
}

func TestCheckerCatchesCorruptedSupport(t *testing.T) {
	sets, _, lux, _ := mined(t)
	ck := newChecker(example)
	sets[len(sets)-1].support++
	wantError(t, ck.checkClosed(sets, ck.minSupport(exampleMinSup)), "scan counts")

	lux[0].antSupport++
	wantError(t, ck.checkApprox(lux, 0.5), "antecedent support")

	wantError(t, ck.checkSupportAnswer([]int{2, 5}, 3, true, 2), "scan counts 4")
}

func TestCheckerCatchesSetThatIsNotClosed(t *testing.T) {
	sets, _, _, _ := mined(t)
	ck := newChecker(example)
	// {2,5} is closed with support 4; {5} alone has the same cover, so
	// it is not closed. Swap it in with the right support.
	for i, s := range sets {
		if equal(s.items, []int{2, 5}) {
			sets[i].items = []int{5}
		}
	}
	wantError(t, ck.checkClosed(sets, ck.minSupport(exampleMinSup)), "not closed")
}

func TestCheckerCatchesMissingClosure(t *testing.T) {
	sets, _, _, _ := mined(t)
	ck := newChecker(example)
	var kept []closedSet
	for _, s := range sets {
		if !equal(s.items, []int{1, 3}) {
			kept = append(kept, s)
		}
	}
	wantError(t, ck.checkClosed(kept, ck.minSupport(exampleMinSup)), "frequent item 1")
}

func TestCheckerCatchesConfidenceOffByOneTransaction(t *testing.T) {
	ck := newChecker(example)
	// conf({2} → {3}) = supp{2,3}/supp{2} = 3/4.
	if err := ck.checkConfidenceAnswer([]int{2}, []int{3}, 3.0/4); err != nil {
		t.Fatal(err)
	}
	wantError(t, ck.checkConfidenceAnswer([]int{2}, []int{3}, 2.0/4), "scan gives 3/4")
	wantError(t, ck.checkApprox([]rule{{ant: []int{2}, cons: []int{3}, support: 2, antSupport: 4}}, 0.5), "support 2, scan counts 3")
	wantError(t, ck.checkExact([]rule{{ant: []int{2}, cons: []int{3}, support: 3, antSupport: 4}}), "confidence 3/4")
}

func TestCheckerCatchesOutOfOrderRanking(t *testing.T) {
	ck := newChecker(example)
	// Observed {2}: {2} → {5} has lift 5/4, {2} → {3} has lift 15/16.
	hi := rule{ant: []int{2}, cons: []int{5}, support: 4, antSupport: 4, consSup: 4}
	lo := rule{ant: []int{2}, cons: []int{3}, support: 3, antSupport: 4, consSup: 4}
	if err := ck.checkRecommendAnswer([]int{2}, 2, []rule{hi, lo}, 0.5); err != nil {
		t.Fatal(err)
	}
	wantError(t, ck.checkRecommendAnswer([]int{2}, 2, []rule{lo, hi}, 0.5), "ranked after")
	wantError(t, ck.checkRecommendAnswer([]int{2}, 1, []rule{hi, lo}, 0.5), "k=1")
	wantError(t, ck.checkRecommendAnswer([]int{3}, 2, []rule{hi}, 0.5), "does not apply")
	wantError(t, ck.checkRecommendAnswer([]int{2, 5}, 2, []rule{hi}, 0.5), "adds nothing")
}

func TestCheckerViewSeesOnlyEarlierTransactions(t *testing.T) {
	ck := newChecker(example[:3])
	ck.extend(example[3:])
	v := ck.view(3)
	if got := v.support([]int{2, 5}); got != 2 {
		t.Fatalf("support of {2,5} in the first three transactions = %d, want 2", got)
	}
	if got := ck.support([]int{2, 5}); got != 4 {
		t.Fatalf("support of {2,5} in all transactions = %d, want 4", got)
	}
}

func TestQuartilesMatchPythonExclusive(t *testing.T) {
	// statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
	q1, q2, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Fatalf("quartiles = %v %v %v, want 2.75 5.5 8.25", q1, q2, q3)
	}
}
