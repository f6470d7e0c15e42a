package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math"
	"net"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"sort"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"closedrules"
	"closedrules/refresh"
	"closedrules/server"
)

// workload is one set of inputs and the way a run's seconds are shared
// between its phases. Every workload runs the whole path a user waits
// on — data set → snapshot → queries → refresh — so every metric is
// measured on every workload; the shares decide which part dominates.
type workload struct {
	name    string
	census  bool    // census-style dense data instead of QUEST baskets
	numTx   int     // transactions mined
	minSup  float64 // relative minimum support
	minConf float64 // served approximate-basis confidence
	k       int     // rules asked of POST /recommend
	// The timed part of a run is rounds equal rounds; each round's
	// seconds are shared between repeated cold builds, closed-loop
	// queries on every connection, and perRound appends of 1 % of the
	// data with reads beside them. Round figures are reported as medians.
	rounds, perRound      int
	build, serve, refresh float64
}

var workloads = []*workload{
	{name: "basket-serve", numTx: 10000, minSup: 0.005, minConf: 0.5, k: 5,
		rounds: 10, perRound: 1, build: 0.4, serve: 0.4, refresh: 0.2},
	{name: "census-build", census: true, numTx: 5000, minSup: 0.3, minConf: 0.5, k: 5,
		rounds: 10, perRound: 1, build: 0.65, serve: 0.1, refresh: 0.25},
	{name: "basket-refresh", numTx: 10000, minSup: 0.005, minConf: 0.5, k: 5,
		rounds: 10, perRound: 2, build: 0.25, refresh: 0.75},
}

const (
	setupReps    = 5                     // set-ups per run; setup_s is their median
	pollInterval = 10 * time.Millisecond // the Refresher's poll period
	warmBaskets  = 200                   // Zipf ranks the warm-up recommends for
	warmQueries  = 50                    // /support and /confidence questions in the warm-up
	sampleEvery  = 16                    // one timed answer in this many is checked
	replayCount  = 3000                  // requests in each socketless replay of a traced run
)

// pass is one measured execution of a workload, traced or not.
type pass struct {
	w       *workload
	seed    int64
	seconds float64
	tr      *tracer // nil in the untraced pass
	conns   int
	workDir string

	in     *inputs
	baseCk *checker // over the base transactions every cold build mines
	ck     *checker // over the transactions the served snapshot holds

	ops ops

	setup, build, buildCPU, fresh []float64
	residentMB, memEstMB          float64
	rps, p50, p99                 []float64 // per round
	roundLat                      []time.Duration
	roundSecs                     float64
	hits, misses                  uint64
	refreshStats                  refresh.Stats

	// epoch is 2i while i appends are visible and 2i+1 while append i
	// lands; an answer is checked only if it was the same even number
	// before and after, so the snapshot that gave it is known.
	epoch       atomic.Int64
	samples     []sample
	content     []byte // the watched file's content
	probe, want []int  // per append: the probed item and its grown support
}

// ops counts the operations a run attempted and those that failed;
// wrong answers are failures that also make the run incorrect.
type ops struct {
	mu                       sync.Mutex
	attempted, failed, wrong int
	first                    []string
}

func (o *ops) record(err error, wrong bool) {
	o.mu.Lock()
	defer o.mu.Unlock()
	o.attempted++
	if err == nil {
		return
	}
	o.failed++
	if wrong {
		o.wrong++
	}
	if len(o.first) < 5 {
		o.first = append(o.first, err.Error())
	}
}

func (p *pass) mineOpts() []closedrules.MineOption {
	return []closedrules.MineOption{closedrules.WithMinSupport(p.w.minSup)}
}

// built is one cold build and its cost.
type built struct {
	res        *closedrules.Result
	qs         *closedrules.QueryService
	wall, cpu  float64
	heapBefore float64 // live heap after the GC that precedes the build
}

// coldBuild turns .dat bytes into a serving snapshot: ReadDat →
// MineContext → NewQueryService, after a GC. The traced pass asks for
// both bases before NewQueryService, so that their cost shows as spans
// of their own; NewQueryService then finds them memoized on the Result.
func (p *pass) coldBuild(ctx context.Context, dat []byte, parent int64) (*built, error) {
	runtime.GC()
	b := &built{heapBefore: liveHeap()}
	cpu0 := cpuSeconds()
	t0 := time.Now()
	id, end := p.tr.open("build", parent)
	defer end()

	_, endSpan := p.tr.open("dataset.ReadDat", id)
	d, err := closedrules.ReadDat(bytes.NewReader(dat))
	endSpan()
	if err != nil {
		return nil, fmt.Errorf("ReadDat: %w", err)
	}
	a0 := p.allocs()
	_, endSpan = p.tr.open("miner.MineContext", id)
	res, err := closedrules.MineContext(ctx, d, p.mineOpts()...)
	endSpan()
	if err != nil {
		return nil, fmt.Errorf("MineContext: %w", err)
	}
	if p.tr != nil {
		// Cold builds run with no reader beside them, so the process's
		// allocation counter covers only the calls counted here.
		p.tr.count("miner.allocs", p.allocs()-a0)
		p.tr.count("miner.closed_sets", float64(res.NumClosed()))
		a0 = p.allocs()
		dg, lux, err := p.tracedBases(ctx, res, id)
		if err != nil {
			return nil, err
		}
		p.tr.count("basis.allocs", p.allocs()-a0)
		p.tr.count("basis.dg_rules", float64(dg))
		p.tr.count("basis.luxenburger_rules", float64(lux))
	}
	_, endSpan = p.tr.open("queryservice.NewQueryService", id)
	qs, err := closedrules.NewQueryService(res, p.w.minConf)
	endSpan()
	if err != nil {
		return nil, fmt.Errorf("NewQueryService: %w", err)
	}
	b.wall = time.Since(t0).Seconds()
	b.cpu = cpuSeconds() - cpu0
	b.res, b.qs = res, qs
	return b, nil
}

// tracedBases builds the served basis pair on res, each call a span,
// and returns the number of rules in each.
func (p *pass) tracedBases(ctx context.Context, res *closedrules.Result, parent int64) (dgRules, luxRules int, err error) {
	_, end := p.tr.open("basis.duquenne-guigues", parent)
	dg, err := res.Basis(ctx, "duquenne-guigues")
	end()
	if err != nil {
		return 0, 0, fmt.Errorf("Basis(duquenne-guigues): %w", err)
	}
	_, end = p.tr.open("basis.luxenburger", parent)
	lux, err := res.Basis(ctx, "luxenburger", closedrules.WithMinConfidence(p.w.minConf))
	end()
	if err != nil {
		return 0, 0, fmt.Errorf("Basis(luxenburger): %w", err)
	}
	return dg.Len(), lux.Len(), nil
}

func (p *pass) allocs() float64 {
	if p.tr == nil {
		return 0
	}
	return allocs()
}

// checkBuild verifies a snapshot against scans of the transactions the
// checker holds: its threshold, its closed sets and both served bases.
func (p *pass) checkBuild(ctx context.Context, res *closedrules.Result, qs *closedrules.QueryService, ck *checker) error {
	minSup := ck.minSupport(p.w.minSup)
	if res.MinSupport() != minSup {
		return fmt.Errorf("threshold %d, want %d", res.MinSupport(), minSup)
	}
	if err := ck.checkClosed(closedSets(res), minSup); err != nil {
		return err
	}
	dg, err := qs.BasisRules(ctx, "duquenne-guigues", p.w.minConf)
	if err != nil {
		return err
	}
	if err := ck.checkExact(rules(dg.Rules)); err != nil {
		return err
	}
	lux, err := qs.BasisRules(ctx, "luxenburger", p.w.minConf)
	if err != nil {
		return err
	}
	if err := ck.checkApprox(rules(lux.Rules), p.w.minConf); err != nil {
		return err
	}
	if n := dg.Len() + lux.Len(); qs.NumRules() != n {
		return fmt.Errorf("service serves %d rules, bases hold %d", qs.NumRules(), n)
	}
	return nil
}

func closedSets(res *closedrules.Result) []closedSet {
	all := res.ClosedItemsets()
	out := make([]closedSet, len(all))
	for i, c := range all {
		out[i] = closedSet{items: c.Items, support: c.Support}
	}
	return out
}

func rules(list []closedrules.Rule) []rule {
	out := make([]rule, len(list))
	for i, r := range list {
		out[i] = rule{ant: r.Antecedent, cons: r.Consequent, support: r.Support,
			antSupport: r.AntecedentSupport, consSup: r.ConsequentSupport}
	}
	return out
}

// instance is one running server over one snapshot, with the refresher
// that watches its data file.
type instance struct {
	res    *closedrules.Result
	qs     *closedrules.QueryService
	src    *committedSource
	ref    *refresh.Refresher
	srv    *server.Server
	addr   string
	path   string
	cancel context.CancelFunc
	served chan error
}

// start writes the data file, builds the snapshot from it, and serves
// it on a loopback listener, with a Refresher over a FileSource on the
// file as arserve wires them. The untraced pass starts the Refresher's
// poll loop; the traced pass drives the same calls itself.
func (p *pass) start(ctx context.Context, parent int64) (*instance, *built, error) {
	inst := &instance{path: filepath.Join(p.workDir, fmt.Sprintf("%s-%d-%d.dat", p.w.name, p.seed, os.Getpid()))}
	if err := os.WriteFile(inst.path, p.in.dat, 0o644); err != nil {
		return nil, nil, err
	}
	b, err := p.coldBuild(ctx, p.in.dat, parent)
	if err != nil {
		return nil, nil, err
	}
	inst.res, inst.qs = b.res, b.qs
	_, end := p.tr.open("server.start", parent)
	defer end()
	inst.src = &committedSource{refresh.NewFileSource(inst.path), make(chan struct{}, 1)}
	if _, err := inst.src.Load(ctx); err != nil {
		return nil, nil, err
	}
	inst.src.FileSource.Commit()
	inst.ref, err = refresh.New(inst.qs, refresh.Config{Source: inst.src, Interval: pollInterval, MineOptions: p.mineOpts()})
	if err != nil {
		return nil, nil, err
	}
	inst.srv, err = server.New(inst.qs, server.Config{Refresher: inst.ref})
	if err != nil {
		return nil, nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		inst.srv.Close()
		return nil, nil, err
	}
	inst.addr = ln.Addr().String()
	sctx, cancel := context.WithCancel(ctx)
	inst.cancel = cancel
	inst.served = make(chan error, 1)
	go func() { inst.served <- inst.srv.Serve(sctx, ln) }()
	if p.tr == nil {
		if err := inst.ref.Start(); err != nil {
			inst.close()
			return nil, nil, err
		}
	}
	return inst, b, nil
}

// committedSource is the FileSource the Refresher watches, with one
// addition: every Commit, which the Refresher makes right after a
// successful Swap, is also signalled on committed, so the benchmark
// learns of a swap without polling the server for it.
type committedSource struct {
	*refresh.FileSource
	committed chan struct{}
}

func (s *committedSource) Commit() {
	s.FileSource.Commit()
	select {
	case s.committed <- struct{}{}:
	default:
	}
}

// close stops the refresher and the server and waits for both.
func (inst *instance) close() {
	inst.ref.Stop()
	inst.cancel()
	<-inst.served
	os.Remove(inst.path)
}

// sample is one answer kept for checking, with the number of
// transactions the snapshot that gave it held.
type sample struct {
	req  request
	body []byte
	n    int
}

// warm sends the warm-up requests over every connection and waits for
// the last answer: the most popular baskets and some of each question.
func (p *pass) warm(ctx context.Context, clients []*client, parent int64) ([]sample, error) {
	_, end := p.tr.open("warmup", parent)
	defer end()
	var reqs []request
	for i := 0; i < warmBaskets; i++ {
		reqs = append(reqs, request{kindRecommend, i})
	}
	for i := 0; i < warmQueries; i++ {
		reqs = append(reqs, request{kindSupport, i}, request{kindConfidence, i})
	}
	out := make([][]sample, len(clients))
	errs := make([]error, len(clients))
	var wg sync.WaitGroup
	for ci, c := range clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := ci; i < len(reqs); i += len(clients) {
				body, err := c.do(ctx, reqs[i])
				if err != nil {
					errs[ci] = err
					return
				}
				out[ci] = append(out[ci], sample{reqs[i], bytes.Clone(body), len(p.in.base)})
			}
		}()
	}
	wg.Wait()
	var all []sample
	for _, s := range out {
		all = append(all, s...)
	}
	return all, errors.Join(errs...)
}

// verify checks kept answers against the checker's view of the
// snapshot that gave each of them.
func (p *pass) verify(samples []sample) {
	views := map[int]*checker{}
	for _, s := range samples {
		ck := views[s.n]
		if ck == nil {
			ck = p.ck.view(s.n)
			views[s.n] = ck
		}
		err := verifyAnswer(ck, p.w, p.in, p.w.k, s.req, s.body)
		p.ops.record(err, err != nil)
	}
}

// readerResult is what one closed-loop reader saw.
type readerResult struct {
	lat     []time.Duration
	samples []sample
}

// reader sends the stream's requests back to back until stop closes.
// The latency of a request is kept when timed accepts the epoch it
// started in; a failed request counts as infinitely slow. One answer in
// sampleEvery is kept for checking, if no append landed while it was
// in flight.
func (p *pass) reader(ctx context.Context, c *client, s *stream, stop <-chan struct{}, timed func(epoch int64) bool) readerResult {
	var res readerResult
	for i := 0; ; i++ {
		select {
		case <-stop:
			return res
		default:
		}
		req := s.next()
		e0 := p.epoch.Load()
		_, end := p.tr.open("client."+kindNames[req.kind], 0)
		t0 := time.Now()
		body, err := c.do(ctx, req)
		d := time.Since(t0)
		end()
		if err != nil {
			if ctx.Err() != nil {
				return res
			}
			p.ops.record(err, false)
			if timed(e0) {
				res.lat = append(res.lat, math.MaxInt64)
			}
			continue
		}
		if timed(e0) {
			res.lat = append(res.lat, d)
		}
		if i%sampleEvery == 0 && p.epoch.Load() == e0 && e0%2 == 0 {
			res.samples = append(res.samples, sample{req, bytes.Clone(body), len(p.in.base) + int(e0/2)*len(p.in.appends[0])})
		} else {
			p.ops.record(nil, false)
		}
	}
}

// readers runs one reader per client until stop closes; the function
// it returns waits for them, adds the latencies they kept to the round
// and keeps their answers for checking.
func (p *pass) readers(ctx context.Context, clients []*client, stop <-chan struct{}, firstStream int, timed func(epoch int64) bool) func() {
	results := make([]readerResult, len(clients))
	var wg sync.WaitGroup
	for i, c := range clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			results[i] = p.reader(ctx, c, newStream(p.seed, firstStream+i), stop, timed)
		}()
	}
	return func() {
		wg.Wait()
		for _, r := range results {
			p.roundLat = append(p.roundLat, r.lat...)
			p.samples = append(p.samples, r.samples...)
		}
	}
}

func always(int64) bool { return true }
func never(int64) bool  { return false }

// landing accepts the epochs in which an append is landing.
func landing(epoch int64) bool { return epoch%2 == 1 }

// run executes one pass of the workload: the set-ups, the rounds of
// builds, queries and appends, and the final consistency check.
func (p *pass) run(ctx context.Context) error {
	if err := os.MkdirAll(p.workDir, 0o755); err != nil {
		return err
	}
	var inst *instance
	var clients []*client
	defer func() {
		for _, c := range clients {
			c.close()
		}
		if inst != nil {
			inst.close()
		}
	}()
	for rep := 0; rep < setupReps; rep++ {
		if inst != nil {
			for _, c := range clients {
				c.close()
			}
			inst.close()
			// The old clients hold the previous set-up's inputs; dropped
			// here, they are garbage before the next build's baseline GC,
			// so resident_mb counts only what the new snapshot keeps.
			inst, clients = nil, nil
		}
		runtime.GC()
		sid, end := p.tr.open("setup", 0)
		t0 := time.Now()
		_, endGen := p.tr.open("bench.inputs", sid)
		in := genInputs(p.w, p.seed)
		endGen()
		if p.in != nil && !bytes.Equal(p.in.dat, in.dat) {
			return fmt.Errorf("seed %d drew different data on set-up %d", p.seed, rep)
		}
		p.in = in
		var b *built
		var err error
		inst, b, err = p.start(ctx, sid)
		if err != nil {
			end()
			return fmt.Errorf("set-up: %w", err)
		}
		clients = make([]*client, p.conns)
		for i := range clients {
			clients[i] = newClient(inst.addr, p.in, p.w.k)
		}
		warmSamples, err := p.warm(ctx, clients, sid)
		setup := time.Since(t0).Seconds()
		end()
		if err != nil {
			return fmt.Errorf("warm-up: %w", err)
		}
		p.setup = append(p.setup, setup)
		p.build = append(p.build, b.wall)
		p.buildCPU = append(p.buildCPU, b.cpu)
		if p.ck == nil {
			p.baseCk, p.ck = newChecker(p.in.base), newChecker(p.in.base)
		}
		err = p.checkBuild(ctx, inst.res, inst.qs, p.baseCk)
		p.ops.record(err, err != nil)
		p.verify(warmSamples)
		if rep == setupReps-1 {
			warmSamples = nil
			runtime.GC()
			p.residentMB = (liveHeap() - b.heapBefore) / 1e6
			p.memEstMB = float64(inst.qs.MemoryEstimate()) / 1e6
		}
	}

	p.planAppends()
	round := time.Duration(p.seconds / float64(p.w.rounds) * float64(time.Second))
	st0 := inst.qs.Stats()
	for r := 0; r < p.w.rounds; r++ {
		if d := time.Duration(p.w.build * float64(round)); d > 0 {
			if err := p.buildPhase(ctx, d); err != nil {
				return err
			}
		}
		if d := time.Duration(p.w.serve * float64(round)); d > 0 {
			stop := make(chan struct{})
			t0 := time.Now()
			timer := time.AfterFunc(d, func() { close(stop) })
			p.readers(ctx, clients, stop, 0, always)()
			timer.Stop()
			p.roundSecs += time.Since(t0).Seconds()
		}
		if d := time.Duration(p.w.refresh * float64(round)); d > 0 {
			if err := p.refreshPhase(ctx, inst, clients, d); err != nil {
				return err
			}
		}
		if err := p.endRound(); err != nil {
			return err
		}
	}
	st1 := inst.qs.Stats()
	p.hits, p.misses = st1.CacheHits-st0.CacheHits, st1.CacheMisses-st0.CacheMisses
	p.refreshStats = inst.ref.Stats()
	err := p.finalCheck(ctx, inst)
	p.ops.record(err, err != nil)
	p.verify(p.samples)
	if p.tr != nil {
		return p.replayQueries(ctx, inst.qs.ServedResult())
	}
	return ctx.Err()
}

// endRound turns the round's request latencies into its throughput,
// median and 99th percentile.
func (p *pass) endRound() error {
	lat := p.roundLat
	sort.Slice(lat, func(i, j int) bool { return lat[i] < lat[j] })
	if len(lat) == 0 {
		return fmt.Errorf("no timed requests in a round")
	}
	p.rps = append(p.rps, float64(len(lat))/p.roundSecs)
	p.p50 = append(p.p50, percentile(lat, 50))
	// A 99th percentile needs at least ten samples beyond it.
	if len(lat) >= 1000 {
		p.p99 = append(p.p99, percentile(lat, 99))
	}
	p.roundLat, p.roundSecs = p.roundLat[:0], 0
	return nil
}

// buildPhase repeats cold builds of the base data until d has passed,
// checking each.
func (p *pass) buildPhase(ctx context.Context, d time.Duration) error {
	// A build starts only if at least half of one still fits, so that
	// a round overruns its share by at most half a build.
	deadline := time.Now().Add(d)
	for first := true; first || time.Until(deadline) > time.Duration(median(p.build)*float64(time.Second)/2); first = false {
		if err := ctx.Err(); err != nil {
			return err
		}
		b, err := p.coldBuild(ctx, p.in.dat, 0)
		if err == nil {
			p.build = append(p.build, b.wall)
			p.buildCPU = append(p.buildCPU, b.cpu)
			err = p.checkBuild(ctx, b.res, b.qs, p.baseCk)
			p.ops.record(err, err != nil)
		} else {
			p.ops.record(err, false)
		}
	}
	return nil
}

// planAppends fixes, for each batch of the append schedule, the item
// the freshness probe asks for — the batch's item most frequent in the
// base data — and the support the batch gives it.
func (p *pass) planAppends() {
	p.content = bytes.Clone(p.in.dat)
	grown := map[int]int{}
	for _, batch := range p.in.appends {
		best := -1
		for _, row := range batch {
			for _, it := range row {
				grown[it]++
				if best < 0 || p.ck.support([]int{it}) > p.ck.support([]int{best}) {
					best = it
				}
			}
		}
		p.probe = append(p.probe, best)
		p.want = append(p.want, p.ck.support([]int{best})+grown[best])
	}
}

// refreshPhase lands the round's appends on the watched file, one
// every d/perRound, while the other connections keep reading. Each
// append is timed from the moment the file holds it until a served
// answer reflects it.
func (p *pass) refreshPhase(ctx context.Context, inst *instance, clients []*client, d time.Duration) error {
	prober := clients[len(clients)-1]
	stop := make(chan struct{})
	t0 := time.Now()
	// On a workload without a serve share, the query figures are those
	// of the reads that start while an append is landing, and the time
	// they count is the time appends spend landing. Elsewhere reads
	// beside the appends are checked but not timed.
	timed := never
	if p.w.serve == 0 {
		timed = landing
	}
	wait := p.readers(ctx, clients[:len(clients)-1], stop, len(clients), timed)
	var phaseErr error
	for j := 0; j < p.w.perRound; j++ {
		i := int(p.epoch.Load() / 2)
		batch := p.in.appends[i]
		if err := sleepUntil(ctx, t0.Add(d*time.Duration(j)/time.Duration(p.w.perRound))); err != nil {
			phaseErr = err
			break
		}
		p.epoch.Store(int64(2*i + 1))
		p.content = append(p.content, encodeDat(batch)...)
		if err := replaceFile(inst.path, p.content); err != nil {
			phaseErr = err
			break
		}
		aid, end := p.tr.open("append", 0)
		tw := time.Now()
		err := p.tracedAppend(ctx, inst, aid)
		if err == nil {
			err = awaitSupport(ctx, inst.src.committed, prober, p.probe[i], p.want[i])
		}
		fresh := time.Since(tw).Seconds()
		end()
		p.epoch.Store(int64(2*i + 2))
		if p.w.serve == 0 {
			p.roundSecs += fresh
		}
		p.ck.extend(batch)
		if err == nil {
			p.fresh = append(p.fresh, fresh)
			err = p.checkGrown(ctx, prober, i)
		}
		p.ops.record(err, err != nil && ctx.Err() == nil)
		if err != nil {
			phaseErr = err
			break
		}
	}
	close(stop)
	wait()
	if phaseErr != nil {
		return fmt.Errorf("append schedule: %w", phaseErr)
	}
	return nil
}

// tracedAppend is the traced pass's replay of one refresh cycle: the
// calls the Refresher makes, each a span, with both bases built on the
// updated Result before Swap so that their cost lands in basis spans.
func (p *pass) tracedAppend(ctx context.Context, inst *instance, parent int64) error {
	if p.tr == nil {
		return nil
	}
	_, end := p.tr.open("refresh.Changed", parent)
	changed, err := inst.src.Changed(ctx)
	end()
	if err != nil || !changed {
		return fmt.Errorf("FileSource.Changed = %v, %v after an append", changed, err)
	}
	_, end = p.tr.open("refresh.Deltas", parent)
	delta, ok, err := inst.src.Deltas(ctx)
	end()
	if err != nil || !ok {
		return fmt.Errorf("FileSource.Deltas: append not recognised (%v)", err)
	}
	_, end = p.tr.open("incremental.UpdateAppend", parent)
	res, err := closedrules.UpdateAppend(ctx, inst.qs.ServedResult(), delta, p.mineOpts()...)
	end()
	if err != nil {
		return fmt.Errorf("UpdateAppend: %w", err)
	}
	if _, _, err := p.tracedBases(ctx, res, parent); err != nil {
		return err
	}
	_, end = p.tr.open("queryservice.Swap", parent)
	err = inst.qs.Swap(res)
	end()
	if err != nil {
		return fmt.Errorf("Swap: %w", err)
	}
	inst.src.Commit()
	return nil
}

// awaitSupport waits for the next swap to be committed, then asks for
// an item's support until the answer reaches the count the append
// gives it.
func awaitSupport(ctx context.Context, committed <-chan struct{}, c *client, item, want int) error {
	ctx, cancel := context.WithTimeout(ctx, 60*time.Second)
	defer cancel()
	select {
	case <-committed:
	case <-ctx.Done():
		return fmt.Errorf("append not visible: %w", ctx.Err())
	}
	for {
		a, err := c.support(ctx, []int{item})
		if err != nil {
			return fmt.Errorf("append not visible: %w", err)
		}
		if a.Frequent && a.Support == want {
			return nil
		}
		if a.Support > want {
			return fmt.Errorf("support of %d answered %d, the appended data hold %d", item, a.Support, want)
		}
	}
}

// checkGrown compares sampled served supports with a scan of the grown
// data right after append i became visible.
func (p *pass) checkGrown(ctx context.Context, c *client, i int) error {
	minSup := p.ck.minSupport(p.w.minSup)
	for j := 0; j < 8; j++ {
		items := p.in.support[(8*i+j)%len(p.in.support)]
		a, err := c.support(ctx, items)
		if err != nil {
			return err
		}
		if err := p.ck.checkSupportAnswer(items, a.Support, a.Frequent, minSup); err != nil {
			return fmt.Errorf("after append %d: %w", i, err)
		}
	}
	return nil
}

// finalCheck compares the refreshed snapshot with a cold build of the
// whole file and checks it against scans of all the data.
func (p *pass) finalCheck(ctx context.Context, inst *instance) error {
	served := inst.qs.ServedResult()
	if n := served.Dataset().NumTransactions(); n != p.ck.n() {
		return fmt.Errorf("refreshed snapshot holds %d transactions, the file %d", n, p.ck.n())
	}
	d, err := closedrules.ReadDat(bytes.NewReader(p.content))
	if err != nil {
		return err
	}
	cold, err := closedrules.MineContext(ctx, d, p.mineOpts()...)
	if err != nil {
		return err
	}
	got, want := closedSets(served), closedSets(cold)
	key := func(s []closedSet) map[string]int {
		m := make(map[string]int, len(s))
		for _, c := range s {
			m[fmt.Sprint(c.items)] = c.support
		}
		return m
	}
	gm, wm := key(got), key(want)
	if len(gm) != len(wm) {
		return fmt.Errorf("refreshed snapshot has %d closed sets, a cold build %d", len(gm), len(wm))
	}
	for k, s := range wm {
		if gm[k] != s {
			return fmt.Errorf("closed set %s: refreshed support %d, cold build %d", k, gm[k], s)
		}
	}
	return p.checkBuild(ctx, served, inst.qs, p.ck)
}

// replayQueries times the query layers without a socket, on fresh
// snapshots of res so that the cache warms as it did over HTTP: first
// the QueryService methods called directly, then the server's handler
// through ServeHTTP.
func (p *pass) replayQueries(ctx context.Context, res *closedrules.Result) error {
	s := newStream(p.seed, 1000)
	reqs := make([]request, replayCount)
	for i := range reqs {
		reqs[i] = s.next()
	}
	qs, err := closedrules.NewQueryService(res, p.w.minConf)
	if err != nil {
		return err
	}
	for _, req := range reqs {
		var err error
		switch req.kind {
		case kindRecommend:
			items := closedrules.Items(p.in.baskets[req.idx]...)
			_, end := p.tr.open("queryservice.Recommend", 0)
			_, err = qs.Recommend(ctx, items, p.w.k)
			end()
		case kindSupport:
			items := closedrules.Items(p.in.support[req.idx]...)
			_, end := p.tr.open("queryservice.Support", 0)
			_, _, err = qs.Support(ctx, items)
			end()
		default:
			q := p.in.conf[req.idx]
			ant, cons := closedrules.Items(q.ant...), closedrules.Items(q.cons...)
			_, end := p.tr.open("queryservice.Confidence", 0)
			_, err = qs.Confidence(ctx, ant, cons)
			end()
		}
		p.ops.record(err, false)
	}

	qs, err = closedrules.NewQueryService(res, p.w.minConf)
	if err != nil {
		return err
	}
	srv, err := server.New(qs, server.Config{})
	if err != nil {
		return err
	}
	defer srv.Close()
	h := srv.Handler()
	c := newClient("replay.invalid", p.in, p.w.k)
	for _, req := range reqs {
		hr, err := c.httpRequest(ctx, req)
		if err != nil {
			return err
		}
		rec := httptest.NewRecorder()
		_, end := p.tr.open("server.ServeHTTP", 0)
		h.ServeHTTP(rec, hr)
		end()
		if rec.Code != 200 {
			err = fmt.Errorf("replayed %s: status %d", kindNames[req.kind], rec.Code)
		}
		p.ops.record(err, false)
	}
	return nil
}

// replaceFile lands new content atomically, as a log shipper that
// renames a finished file into place does: the watcher never reads a
// half-written batch.
func replaceFile(path string, content []byte) error {
	tmp := path + ".tmp"
	if err := os.WriteFile(tmp, content, 0o644); err != nil {
		return err
	}
	return os.Rename(tmp, path)
}

func sleepUntil(ctx context.Context, t time.Time) error {
	d := time.Until(t)
	if d <= 0 {
		return ctx.Err()
	}
	timer := time.NewTimer(d)
	defer timer.Stop()
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-timer.C:
		return nil
	}
}

// liveHeap is the heap the last GC found live, in bytes.
func liveHeap() float64 {
	s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	metrics.Read(s)
	return float64(s[0].Value.Uint64())
}

// cpuSeconds is the CPU time the process has used, user and system.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return math.NaN()
	}
	return float64(ru.Utime.Nano()+ru.Stime.Nano()) / 1e9
}

// median and quartiles follow Python's statistics.quantiles(n=4), the
// "exclusive" method.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n < 2 {
		return math.NaN(), median(s), math.NaN()
	}
	q := func(i int) float64 {
		j := i * (n + 1) / 4
		delta := i*(n+1) - j*4
		lo := s[max(j-1, 0)]
		hi := s[min(j, n-1)]
		return (lo*float64(4-delta) + hi*float64(delta)) / 4
	}
	return q(1), q(2), q(3)
}

// percentile returns the p-th percentile (nearest rank) of sorted
// durations, in milliseconds.
func percentile(sorted []time.Duration, p float64) float64 {
	i := int(math.Ceil(p/100*float64(len(sorted)))) - 1
	return float64(sorted[max(i, 0)]) / 1e6
}
