package main

import (
	"fmt"
	"math"
	"runtime"
	"runtime/metrics"
	"sort"
	"strings"
	"syscall"
	"time"

	"repro/internal/core"
	"repro/internal/netdist"
	"repro/internal/relation"
	"repro/internal/serve"
)

// lateLimitMS is the generator lateness (p99) above which a traced run
// is marked suspect: the machine, not the system, shaped its latencies.
const lateLimitMS = 5.0

// setupReps is how many times a run builds the system to time set-up;
// the median is reported and the last one is measured.
const setupReps = 5

type namedValue struct {
	name, unit string
	value      float64
}

type runResult struct {
	metrics           []namedValue
	attempted, failed int
	errors, notes     []string
	// layers holds the traced run's recorded calls (nil otherwise), and
	// window the nominal rung they are read over.
	layers *layers
	window phase
}

func (r *runResult) add(name, unit string, v float64) {
	r.metrics = append(r.metrics, namedValue{name, unit, v})
}

func (r *runResult) check(what string, err error) {
	if err != nil {
		r.errors = append(r.errors, what+": "+err.Error())
	}
}

func (r *runResult) count(ps ...phase) {
	for _, p := range ps {
		r.attempted += len(p.samples)
		r.failed += p.failures()
	}
}

func newConns(w *workload, seed int64) []*conn {
	cs := make([]*conn, conns)
	for c := range cs {
		cs[c] = &conn{gen: w.newGen(seed, c)}
	}
	return cs
}

// timedSetup builds the system reps times and returns the last one and
// the median set-up time in seconds.
func timedSetup(w *workload, seed int64, lay *layers, reps int) (*env, float64, error) {
	var times []float64
	var e *env
	for i := 0; i < reps; i++ {
		if e != nil {
			e.close()
		}
		runtime.GC()
		start := time.Now()
		var err error
		if e, err = setup(w, seed, lay); err != nil {
			return nil, 0, err
		}
		times = append(times, time.Since(start).Seconds())
	}
	sort.Float64s(times)
	return e, quantile(times, 0.5), nil
}

// endToEnd is the --trace 0 run: set-up, an unmeasured closed-loop
// warm-up that fills caches and compiles plans, a closed-loop capacity
// phase, then the open-loop ladder; 10% / 35% / 40% / 7.5% / 7.5% of d.
// Capacity and latencies are medians over windows of the phase.
func endToEnd(w *workload, seed int64, d time.Duration) (*runResult, error) {
	e, setupS, err := timedSetup(w, seed, nil, setupReps)
	if err != nil {
		return nil, err
	}
	cs := newConns(w, seed)
	warmup := e.closedLoop(cs, d/10)
	runtime.GC()
	capacity := e.closedLoop(cs, d*35/100)
	rungs := make([]phase, len(w.rates))
	for i, rate := range w.rates {
		runtime.GC()
		share := d * 75 / 1000
		if i == 0 {
			share = d * 4 / 10
		}
		rungs[i] = e.openLoop(cs, rate, share)
	}
	r := &runResult{}
	r.count(append([]phase{warmup, capacity}, rungs...)...)
	nominal := rungs[0]
	maxOK := 0.0
	for i, p := range rungs {
		if p.meets(w.limitMS, conns) {
			maxOK = w.rates[i]
		}
		r.notes = append(r.notes, fmt.Sprintf("rung %.0f req/s: %d sent, %d unsent, p50 %.3f ms, p95 %.3f ms, meets %.0f ms: %v",
			w.rates[i], len(p.samples), p.unsent, p.latency(-1, 0.5), p.latency(-1, 0.95), w.limitMS, p.meets(w.limitMS, conns)))
	}
	capSeconds := capacity.end.Sub(capacity.start).Seconds()
	var perWindow []string
	for _, win := range capacity.windows(statWindows) {
		perWindow = append(perWindow, fmt.Sprintf("%.0f", float64(win.verdicts())/win.end.Sub(win.start).Seconds()))
	}
	r.notes = append(r.notes, "capacity windows, verdicts/s: "+strings.Join(perWindow, " "))
	r.notes = append(r.notes, fmt.Sprintf("capacity: %.0f req/s, %.0f verdicts/s", float64(len(capacity.samples))/capSeconds, float64(capacity.verdicts())/capSeconds))
	r.add("setup_s", "s", setupS)
	r.add("capacity_verdicts_s", "1/s", capacity.windowMedian(len(capacity.samples), 1, func(p phase) float64 {
		return float64(p.verdicts()) / p.end.Sub(p.start).Seconds()
	}))
	r.add("p50_ms", "ms", nominal.latency(-1, 0.5))
	r.add("p95_ms", "ms", nominal.latency(-1, 0.95))
	for k := 0; k < kindCount; k++ {
		r.add(kindNames[k]+"_p50_ms", "ms", nominal.latency(k, 0.5))
	}
	r.add("max_ok_rate_ops_s", "1/s", maxOK)
	r.add("ok_frac", "frac", 1-float64(r.failed)/float64(max(r.attempted, 1)))
	r.notes = append(r.notes, fmt.Sprintf("nominal rung: %d requests, %d beyond p95", len(nominal.samples), len(nominal.samples)/20))

	// Verify before reading the live heap: the request logs and timings
	// are not referenced after this point, so the heap measures the
	// system rather than the load generator.
	r.check("verdicts", verify(w, seed, cs))
	want, err := expectedState(w, seed, cs)
	if err != nil {
		e.close()
		return nil, err
	}
	r.add("live_heap_mb", "MB", liveHeap()/(1<<20))
	e.close()
	r.check("final state", checkFinal(e, want))
	return r, nil
}

// traced is the --trace 1 run. An undecorated system and a decorated
// one are built on the same seed; both run a closed-loop phase (a
// quarter of d each; their ratio is the tracing overhead), then the
// decorated one runs the nominal open-loop rung (half of d), over
// which every per-layer metric is read. Fidelity: the two systems must
// give identical verdicts request for request, run the same apply arm,
// and the layer self times must add up to the client-observed total.
func traced(w *workload, seed int64, d time.Duration) (*runResult, error) {
	r := &runResult{}
	plain, _, err := timedSetup(w, seed, nil, 1)
	if err != nil {
		return nil, err
	}
	plainConns := newConns(w, seed)
	runtime.GC()
	plainCap := plain.closedLoop(plainConns, d/4)
	plainWorkers := plain.srv.Stats().ApplyWorkers
	plain.close()
	r.check("undecorated verdicts", verify(w, seed, plainConns))
	r.check("undecorated final state", finalFromLogs(plain, seed, plainConns))

	lay := &layers{}
	e, _, err := timedSetup(w, seed, lay, 1)
	if err != nil {
		return nil, err
	}
	cs := newConns(w, seed)
	runtime.GC()
	decCap := e.closedLoop(cs, d/4)
	runtime.GC()
	lay.queueMax.Store(0)
	lay.inflightMax.Store(0)
	before := snapshot(e)
	nominal := e.openLoop(cs, w.rates[0], d/2)
	after := snapshot(e)
	r.layers, r.window = lay, phase{start: nominal.start, end: nominal.end}
	workers := e.srv.Stats().ApplyWorkers
	e.close()
	r.count(plainCap, decCap, nominal)
	r.check("decorated verdicts", verify(w, seed, cs))
	r.check("decorated final state", finalFromLogs(e, seed, cs))
	r.check("fidelity: verdict sequences", sameVerdicts(plainConns, cs))
	if workers != plainWorkers {
		r.check("fidelity: apply workers", fmt.Errorf("decorated %d, undecorated %d", workers, plainWorkers))
	}

	capRate := func(p phase) float64 { return float64(p.verdicts()) / p.end.Sub(p.start).Seconds() }
	verdicts := float64(max(nominal.verdicts(), 1))
	ops := float64(max(len(nominal.samples), 1))

	// Client-observed time per request, from send to answer, and each
	// layer's busy time (sum of its call durations) inside the window.
	clientUS := 0.0
	for _, s := range nominal.samples {
		clientUS += float64(s.done.Sub(s.sent)) / float64(time.Microsecond)
	}
	handler, handlerUS := durations(lay.handler.within(nominal.start, nominal.end))
	backend, backendUS := durations(lay.backend.within(nominal.start, nominal.end))
	rpcs := lay.transport.within(nominal.start, nominal.end)
	rpc, rpcUS := durations(rpcs)
	self := map[string]float64{
		"sdk":     clientUS - handlerUS,
		"serve":   handlerUS - backendUS,
		"core":    backendUS - rpcUS,
		"netdist": rpcUS,
	}
	sum := 0.0
	for layer, v := range self {
		if v < 0 {
			r.check("fidelity: telescoping", fmt.Errorf("layer %s self time %.0f µs is negative", layer, v))
		}
		sum += math.Max(v, 0)
	}
	if clientUS > 0 && math.Abs(sum-clientUS) > 0.05*clientUS {
		r.check("fidelity: telescoping", fmt.Errorf("layer self times sum to %.0f µs, client total %.0f µs", sum, clientUS))
	}
	r.notes = append(r.notes, fmt.Sprintf("layer budget over %d requests, µs per request: sdk %.1f, serve %.1f, core %.1f, netdist %.1f (client total %.1f)",
		len(nominal.samples), self["sdk"]/ops, self["serve"]/ops, self["core"]/ops, self["netdist"]/ops, clientUS/ops))

	late, wait := nominal.lateness()
	if p99 := quantile(late, 0.99); p99 > lateLimitMS {
		r.notes = append(r.notes, fmt.Sprintf("suspect run: the load generator ran %.1f ms late at p99 (limit %.0f ms)", p99, lateLimitMS))
	}
	r.add("loadgen.late_p99_ms", "ms", quantile(late, 0.99))
	r.add("loadgen.conn_wait_p50_ms", "ms", quantile(wait, 0.5))
	r.add("loadgen.trace_overhead_frac", "frac", 1-capRate(decCap)/capRate(plainCap))
	r.add("sdk.self_us_per_op", "us", self["sdk"]/ops)

	r.add("serve.handler_p50_us", "us", quantile(handler, 0.5))
	r.add("serve.handler_p95_us", "us", quantile(handler, 0.95))
	r.add("serve.self_us_per_op", "us", self["serve"]/ops)
	r.add("serve.queue_depth_max", "count", float64(lay.queueMax.Load()))
	r.add("serve.rejected", "count", float64(sumMap(after.srv.Rejections)-sumMap(before.srv.Rejections)))

	tasks := float64(after.srv.SchedTasks - before.srv.SchedTasks)
	stalls := float64(after.srv.SchedConflictStalls - before.srv.SchedConflictStalls)
	r.add("sched.tasks", "count", tasks)
	r.add("sched.conflict_stalls", "count", stalls)
	r.add("sched.stall_frac", "frac", ratio(stalls, tasks))
	r.add("sched.inflight_max", "count", float64(lay.inflightMax.Load()))

	ck := diffStats(after.chk, before.chk)
	r.add("core.decide_p50_us", "us", quantile(backend, 0.5))
	r.add("core.decide_p95_us", "us", quantile(backend, 0.95))
	r.add("core.self_us_per_verdict", "us", self["core"]/verdicts)
	for p := core.PhaseUnaffected; p <= core.PhaseResidual; p++ {
		r.add("core.phase."+p.String()+"_frac", "frac", ratio(float64(ck.ByPhase[p]), float64(ck.Decisions)))
	}
	r.add("core.violated_frac", "frac", ratio(float64(ck.Rejected), float64(ck.Updates)))
	r.add("core.decision_cache_hit_rate", "frac", ratio(float64(ck.CacheHits), float64(ck.CacheHits+ck.CacheMisses)))
	r.add("residual.hit_rate", "frac", ratio(float64(ck.ResidualHits), float64(ck.ResidualHits+ck.ResidualMisses)))
	r.add("residual.compiled_per_verdict", "count", float64(ck.ResidualCompiled)/verdicts)
	r.add("eval.plan_hit_rate", "frac", ratio(float64(ck.PlanHits), float64(ck.PlanHits+ck.PlanMisses)))
	r.add("eval.global_per_verdict", "count", float64(ck.ByPhase[core.PhaseGlobal])/verdicts)

	r.add("store.reads_per_verdict", "count", float64(after.reads-before.reads)/verdicts)
	r.add("relation.index_probes_per_verdict", "count", float64(after.probes-before.probes)/verdicts)
	r.add("relation.index_builds", "count", float64(after.builds-before.builds))

	byOp := map[string]float64{}
	for _, c := range rpcs {
		byOp[c.op]++
	}
	co := diffCoord(after.co, before.co)
	r.add("netdist.rpc_per_verdict", "count", float64(len(rpcs))/verdicts)
	r.add("netdist.rpc_p50_us", "us", zeroNaN(quantile(rpc, 0.5)))
	r.add("netdist.rpc_p95_us", "us", zeroNaN(quantile(rpc, 0.95)))
	r.add("netdist.rpc_us_per_verdict", "us", rpcUS/verdicts)
	for _, op := range []string{netdist.OpScan, netdist.OpFetch, netdist.OpEval, netdist.OpApply} {
		r.add("netdist.rpc."+op+"_per_verdict", "count", byOp[op]/verdicts)
	}
	r.add("netdist.wire_tuples_per_verdict", "count", float64(co.WireTuples)/verdicts)
	r.add("netdist.bytes_per_verdict", "bytes", (after.bytes-before.bytes)/verdicts)
	r.add("netdist.site_us_per_verdict", "us", (after.siteSeconds-before.siteSeconds)*1e6/verdicts)
	if e.co != nil {
		r.add("netdist.decided_locally_frac", "frac", ratio(float64(co.DecidedLocally), float64(co.Updates)))
	} else {
		r.add("netdist.decided_locally_frac", "frac", 1)
	}
	r.add("netdist.shard_routed", "count", float64(co.ShardRouted))
	r.add("netdist.shard_scatter", "count", float64(co.ShardScatter))
	r.add("netdist.key_fetches", "count", float64(co.KeyFetches))
	r.add("netdist.retries", "count", float64(co.Retries))

	r.add("go.cpu_us_per_verdict", "us", float64(after.cpu-before.cpu)/float64(time.Microsecond)/verdicts)
	r.add("go.alloc_kb_per_verdict", "KB", (after.allocBytes-before.allocBytes)/1024/verdicts)
	r.add("go.gc_per_1k_verdicts", "count", (after.gcCycles-before.gcCycles)*1000/verdicts)
	r.add("go.gc_pause_p99_us", "us", pauseQuantile(before.pauses, after.pauses, 0.99)*1e6)
	return r, nil
}

func finalFromLogs(e *env, seed int64, cs []*conn) error {
	want, err := expectedState(e.w, seed, cs)
	if err != nil {
		return err
	}
	return checkFinal(e, want)
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func zeroNaN(v float64) float64 {
	if math.IsNaN(v) {
		return 0
	}
	return v
}

func sumMap(m map[string]int64) int64 {
	var s int64
	for _, v := range m {
		s += v
	}
	return s
}

// counters is a snapshot of every public counter the traced run reads.
type counters struct {
	srv                  serve.Stats
	chk                  core.Stats
	co                   netdist.Stats
	reads                int64
	probes, builds       int64
	bytes, siteSeconds   float64
	cpu                  time.Duration
	allocBytes, gcCycles float64
	pauses               *metrics.Float64Histogram
}

func snapshot(e *env) counters {
	c := counters{srv: e.srv.Stats(), chk: e.chk.Stats(), probes: relation.IndexProbes(), builds: relation.IndexBuilds()}
	if e.co != nil {
		c.co = e.co.Stats()
	}
	for _, s := range e.stores() {
		c.reads += s.TotalReads()
	}
	for key, v := range e.reg.Snapshot() {
		switch {
		case key == "cc_coord_bytes_sent_total" || key == "cc_coord_bytes_recv_total":
			c.bytes += float64(v.(int64))
		case strings.HasPrefix(key, "cc_site_request_seconds"):
			c.siteSeconds += v.(map[string]any)["sum"].(float64)
		}
	}
	var ru syscall.Rusage
	if syscall.Getrusage(syscall.RUSAGE_SELF, &ru) == nil {
		c.cpu = time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
	}
	samples := []metrics.Sample{
		{Name: "/gc/heap/allocs:bytes"},
		{Name: "/gc/cycles/total:gc-cycles"},
		{Name: "/sched/pauses/total/gc:seconds"},
	}
	metrics.Read(samples)
	c.allocBytes = float64(samples[0].Value.Uint64())
	c.gcCycles = float64(samples[1].Value.Uint64())
	c.pauses = samples[2].Value.Float64Histogram()
	return c
}

// pauseQuantile reads quantile q of the GC pauses between two
// histogram snapshots (the upper bound of the bucket it falls in; 0
// without pauses).
func pauseQuantile(before, after *metrics.Float64Histogram, q float64) float64 {
	var total uint64
	delta := make([]uint64, len(after.Counts))
	for i := range after.Counts {
		delta[i] = after.Counts[i] - before.Counts[i]
		total += delta[i]
	}
	if total == 0 {
		return 0
	}
	var acc uint64
	for i, n := range delta {
		acc += n
		if float64(acc) >= q*float64(total) {
			if ub := after.Buckets[i+1]; !math.IsInf(ub, 1) {
				return ub
			}
			return after.Buckets[i]
		}
	}
	return 0
}

// liveHeap forces two collections — the second empties the sync.Pool
// victim caches the first leaves — and reads the live heap.
func liveHeap() float64 {
	runtime.GC()
	runtime.GC()
	s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	metrics.Read(s)
	return float64(s[0].Value.Uint64())
}

func diffStats(a, b core.Stats) core.Stats {
	d := core.Stats{
		Updates: a.Updates - b.Updates, Rejected: a.Rejected - b.Rejected, Decisions: a.Decisions - b.Decisions,
		CacheHits: a.CacheHits - b.CacheHits, CacheMisses: a.CacheMisses - b.CacheMisses,
		PlanHits: a.PlanHits - b.PlanHits, PlanMisses: a.PlanMisses - b.PlanMisses,
		ResidualHits: a.ResidualHits - b.ResidualHits, ResidualMisses: a.ResidualMisses - b.ResidualMisses,
		ResidualCompiled: a.ResidualCompiled - b.ResidualCompiled,
		ByPhase:          map[core.Phase]int{},
	}
	for p, n := range a.ByPhase {
		d.ByPhase[p] = n - b.ByPhase[p]
	}
	return d
}

func diffCoord(a, b netdist.Stats) netdist.Stats {
	return netdist.Stats{
		Updates: a.Updates - b.Updates, DecidedLocally: a.DecidedLocally - b.DecidedLocally,
		Retries: a.Retries - b.Retries, WireTuples: a.WireTuples - b.WireTuples,
		ShardRouted: a.ShardRouted - b.ShardRouted, ShardScatter: a.ShardScatter - b.ShardScatter,
		KeyFetches: a.KeyFetches - b.KeyFetches,
	}
}
