// Command e2ebench measures the closedrules serving path end to end:
// a data set is built into a snapshot (ReadDat → MineContext →
// NewQueryService), served over HTTP on a loopback listener, queried
// by closed-loop clients, and refreshed by appends to the file a
// refresh.Refresher watches. Every answer it samples and every build
// it makes is checked against scans of the raw transactions.
//
// Run it from the repository root through run.sh, which builds it:
//
//	bash e2ebench/run.sh --workload basket-serve --seed 1 --seconds 20 --trace 0
//	bash e2ebench/run.sh --steady 10 --seconds 20
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. With --trace 0 the metrics
// are the end-to-end ones BENCHMARK.json bounds, and the line before it
// carries the ungated ones; with --trace 1 the run measures half its
// seconds untraced and half traced, prints both sets of end-to-end
// figures side by side, writes the spans under .bench_build/trace/,
// and reports the per-layer metrics. See README.md.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
	"strings"
	"time"

	"closedrules/refresh"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "e2ebench:", err)
		os.Exit(1)
	}
}

// metric is one reported figure.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func run(args []string) error {
	fs := flag.NewFlagSet("e2ebench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload: "+workloadNames())
	seed := fs.Int64("seed", 1, "seed the inputs are drawn with")
	seconds := fs.Float64("seconds", 20, "seconds one run measures")
	trace := fs.Int("trace", 0, "1 measures the per-layer metrics in a traced run")
	steady := fs.Int("steady", 0, "run every workload (or --workload) on this many seeds and print each metric's quartiles")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *seconds <= 0 {
		return fmt.Errorf("--seconds must be positive")
	}
	if *steady > 0 {
		return runSteady(*name, *steady, *seconds, *trace)
	}
	w := lookup(*name)
	if w == nil {
		return fmt.Errorf("unknown workload %q (want %s)", *name, workloadNames())
	}
	// The load is sized for a 2-CPU machine: GOMAXPROCS and the client
	// connections never exceed the CPUs, so the server holds no queue.
	conns := min(2, runtime.NumCPU())
	runtime.GOMAXPROCS(conns)
	ctx, cancel := context.WithTimeout(context.Background(), 170*time.Second)
	defer cancel()

	newPass := func(secs float64, tr *tracer) *pass {
		return &pass{w: w, seed: *seed, seconds: secs, tr: tr, conns: conns,
			workDir: ".bench_build/work"}
	}
	var res result
	switch *trace {
	case 0:
		p := newPass(*seconds, nil)
		if err := p.run(ctx); err != nil {
			return err
		}
		gated, ungated, err := p.endToEnd()
		if err != nil {
			return err
		}
		printMetrics(w, gated, ungated, nil, nil)
		line, err := json.Marshal(ungated)
		if err != nil {
			return err
		}
		fmt.Printf("%s%s\n", ungatedPrefix, line)
		res = p.result(gated)
	case 1:
		plain := newPass(*seconds/2, nil)
		if err := plain.run(ctx); err != nil {
			return err
		}
		traced := newPass(*seconds/2, newTracer())
		if err := traced.run(ctx); err != nil {
			return err
		}
		e2ePlain, ungPlain, err := plain.endToEnd()
		if err != nil {
			return err
		}
		e2eTraced, ungTraced, err := traced.endToEnd()
		if err != nil {
			return err
		}
		printMetrics(w, e2ePlain, ungPlain, e2eTraced, ungTraced)
		path, err := traced.tr.write(".bench_build/trace", fmt.Sprintf("%s-seed%d.json", w.name, *seed))
		if err != nil {
			return err
		}
		fmt.Printf("spans written to %s\n", path)
		layers := traced.perLayer()
		traced.printSplits(ungPlain, plain.refreshStats)
		res = traced.result(layers)
		res.Attempted += plain.ops.attempted
		res.Failed += plain.ops.failed
		res.Correct = res.Correct && plain.ops.wrong == 0
	default:
		return fmt.Errorf("--trace must be 0 or 1")
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

func lookup(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

func workloadNames() string {
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	return strings.Join(names, ", ")
}

func (p *pass) result(m map[string]metric) result {
	for _, msg := range p.ops.first {
		fmt.Fprintln(os.Stderr, "failed:", msg)
	}
	return result{Correct: p.ops.wrong == 0, Attempted: p.ops.attempted, Failed: p.ops.failed, Metrics: m}
}

// ungatedPrefix starts the line of standard output that carries the
// end-to-end metrics BENCHMARK.json does not bound, for --steady.
const ungatedPrefix = "ungated "

// endToEnd computes the metrics a user of the system sees. The gated
// ones are those BENCHMARK.json bounds. The others are wall-clock
// figures over spans of a tenth of a second or more, and the tail
// latency: on a shared host they moved between two sets of runs of one
// commit by more than any allowed bound, so they are printed and not
// gated (README, Steadiness).
func (p *pass) endToEnd() (gated, ungated map[string]metric, err error) {
	if len(p.fresh) == 0 {
		return nil, nil, fmt.Errorf("no append became visible")
	}
	gated = map[string]metric{
		"setup_s":      {median(p.setup), "s"},
		"build_cpu_s":  {median(p.buildCPU), "s"},
		"resident_mb":  {p.residentMB, "MB"},
		"query_p50_ms": {median(p.p50), "ms"},
	}
	ungated = map[string]metric{
		"build_s":   {median(p.build), "s"},
		"query_rps": {median(p.rps), "1/s"},
		"fresh_s":   {median(p.fresh), "s"},
	}
	if len(p.p99) > 0 {
		ungated["query_p99_ms"] = metric{median(p.p99), "ms"}
	}
	return gated, ungated, nil
}

// perLayer computes the per-layer metrics from the traced pass.
func (p *pass) perLayer() map[string]metric {
	t := p.tr
	sec := func(name string) metric { return metric{median(t.durations(name)), "s"} }
	us := func(name string) metric { return metric{median(t.durations(name)) * 1e6, "us"} }
	cnt := func(name string) metric { return metric{median(t.counts[name]), "count"} }
	ratio := 0.0
	if p.hits+p.misses > 0 {
		ratio = float64(p.hits) / float64(p.hits+p.misses)
	}
	return map[string]metric{
		"dataset.parse_s":                 sec("dataset.ReadDat"),
		"miner.mine_s":                    sec("miner.MineContext"),
		"miner.allocs":                    cnt("miner.allocs"),
		"miner.closed_sets":               cnt("miner.closed_sets"),
		"basis.dg_s":                      sec("basis.duquenne-guigues"),
		"basis.dg_rules":                  cnt("basis.dg_rules"),
		"basis.luxenburger_s":             sec("basis.luxenburger"),
		"basis.luxenburger_rules":         cnt("basis.luxenburger_rules"),
		"basis.allocs":                    cnt("basis.allocs"),
		"queryservice.build_s":            sec("queryservice.NewQueryService"),
		"queryservice.recommend_us":       us("queryservice.Recommend"),
		"queryservice.support_us":         us("queryservice.Support"),
		"queryservice.cache_hit_ratio":    {ratio, "ratio"},
		"queryservice.swap_s":             sec("queryservice.Swap"),
		"queryservice.memory_estimate_mb": {p.memEstMB, "MB"},
		"server.handler_us":               us("server.ServeHTTP"),
		"refresh.changed_s":               sec("refresh.Changed"),
		"refresh.deltas_s":                sec("refresh.Deltas"),
		"incremental.update_s":            sec("incremental.UpdateAppend"),
	}
}

// printSplits shows how the traced builds and appends divide among the
// calls they made, beside the untraced figures and the untraced
// Refresher's counters.
func (p *pass) printSplits(plain map[string]metric, refresher refresh.Stats) {
	own, children := p.tr.childSums("build")
	fmt.Printf("traced build: median %.4f s, its calls %.4f s; untraced build_s %.4f s\n",
		median(own), median(children), plain["build_s"].Value)
	own, children = p.tr.childSums("append")
	fmt.Printf("traced append: median fresh %.4f s, its calls %.4f s; untraced fresh_s %.4f s (poll every %v)\n",
		median(own), median(children), plain["fresh_s"].Value, pollInterval)
	for _, n := range []string{"refresh.Changed", "refresh.Deltas", "incremental.UpdateAppend",
		"basis.duquenne-guigues", "basis.luxenburger", "queryservice.Swap"} {
		fmt.Printf("  %-26s median %.4f s over %d calls\n", n, median(p.tr.durations(n)), len(p.tr.durations(n)))
	}
	fmt.Printf("memory: resident %.2f MB, QueryService.MemoryEstimate %.2f MB\n", p.residentMB, p.memEstMB)
	fmt.Printf("untraced refresher: %d incremental swaps, %d fallbacks to a full mine, %d failures\n",
		refresher.IncrementalSuccesses, refresher.IncrementalFallbacks, refresher.Failures)
}

// printMetrics prints every metric by name with its unit, the gated
// ones first, and the traced figures beside the untraced ones when
// there are any.
func printMetrics(w *workload, plain, plainUngated, traced, tracedUngated map[string]metric) {
	fmt.Printf("workload %s\n", w.name)
	show := func(plain, traced map[string]metric, note string) {
		names := make([]string, 0, len(plain))
		for n := range plain {
			names = append(names, n)
		}
		sort.Strings(names)
		for _, n := range names {
			m := plain[n]
			if traced == nil {
				fmt.Printf("  %-14s %12.6g %-4s %s\n", n, m.Value, m.Unit, note)
				continue
			}
			t := traced[n].Value
			fmt.Printf("  %-14s %12.6g %-4s traced %12.6g (%+.1f%%) %s\n", n, m.Value, m.Unit, t, 100*(t-m.Value)/m.Value, note)
		}
	}
	show(plain, traced, "")
	show(plainUngated, tracedUngated, "(not gated)")
}
