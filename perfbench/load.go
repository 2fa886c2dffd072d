package main

import (
	"errors"
	"math"
	"sort"
	"sync"
	"time"

	"repro/internal/serve/sdk"
)

// statWindows is how many windows a phase's statistics are read over.
const statWindows = 5

// conn is one client connection's request stream. Its generator and
// log persist across phases, so a seed fixes the whole sequence of
// requests each connection sends. The log keeps only the answers: the
// requests are regenerated from the seed and the answers (replay), so
// the benchmark's own memory stays small and does not drive the garbage
// collector of the server it shares a process with.
type conn struct {
	gen      generator
	verdicts []verdict     // one per request sent, in order
	errs     map[int]error // by request index, for requests that failed
}

// sample is one request's timing. In the closed loop sched == sent; in
// the open loop sched is when the request was due.
type sample struct {
	conn, kind        int
	updates           int
	sched, sent, done time.Time
	failed            bool
}

// phase is the outcome of one load phase.
type phase struct {
	start, end time.Time
	samples    []sample
	// unsent counts open-loop requests that were due before the deadline
	// but never sent.
	unsent int
}

// do sends one request on connection c and returns its verdict.
func (e *env) do(c int, r request) (verdict, error) {
	cl := e.clients[c]
	switch r.kind {
	case kindCheck:
		d, err := cl.Check(r.updates[0])
		if err != nil || !d.OK() {
			return 0, err
		}
		return 1, nil
	case kindApply:
		d, err := cl.Apply(r.updates[0])
		if err != nil {
			return 0, err
		}
		if d.Applied != d.OK() {
			return 0, errors.New("apply answered applied != ok")
		}
		if d.Applied {
			return 1, nil
		}
		return 0, nil
	}
	res, err := cl.Batch(r.updates, true)
	if err != nil {
		return 0, err
	}
	if res.Applied == len(r.updates) {
		return -1, nil
	}
	return verdict(res.FailedAt), nil
}

// send runs one request on connection c, logs it and feeds the verdict
// back to the generator.
func (e *env) send(c int, cn *conn, r request) (failed bool) {
	v, err := e.do(c, r)
	cn.verdicts = append(cn.verdicts, v)
	if err != nil {
		if cn.errs == nil {
			cn.errs = map[int]error{}
		}
		cn.errs[len(cn.verdicts)-1] = err
		return true
	}
	cn.gen.done(r, v)
	return false
}

// closedLoop runs one client per connection, each sending its next
// request as soon as the previous one is answered, for d.
func (e *env) closedLoop(cs []*conn, d time.Duration) phase {
	p := phase{start: time.Now()}
	deadline := p.start.Add(d)
	per := make([][]sample, len(cs))
	var wg sync.WaitGroup
	for c := range cs {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for time.Now().Before(deadline) {
				r := cs[c].gen.next()
				s := sample{conn: c, kind: r.kind, updates: len(r.updates), sent: time.Now()}
				s.failed = e.send(c, cs[c], r)
				s.sched, s.done = s.sent, time.Now()
				per[c] = append(per[c], s)
			}
		}(c)
	}
	wg.Wait()
	p.end = time.Now()
	for _, s := range per {
		p.samples = append(p.samples, s...)
	}
	return p
}

// openLoop offers rate requests/s for d, split evenly over the
// connections on a fixed schedule (the connections offset by half an
// interval). Each connection sends its requests in order; one that
// falls due while the previous is still out waits for it, and its
// latency still counts from when it was due. At the deadline the
// connection stops, and requests due but not yet sent are counted as
// unsent.
func (e *env) openLoop(cs []*conn, rate float64, d time.Duration) phase {
	p := phase{start: time.Now()}
	deadline := p.start.Add(d)
	interval := time.Duration(float64(time.Second) * float64(len(cs)) / rate)
	per := make([][]sample, len(cs))
	unsent := make([]int, len(cs))
	var wg sync.WaitGroup
	for c := range cs {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			due := p.start.Add(interval * time.Duration(c) / time.Duration(len(cs)))
			for ; due.Before(deadline); due = due.Add(interval) {
				now := time.Now()
				if !now.Before(deadline) {
					unsent[c] = int(deadline.Sub(due)/interval) + 1
					return
				}
				if wait := due.Sub(now); wait > 0 {
					time.Sleep(wait)
				}
				r := cs[c].gen.next()
				s := sample{conn: c, kind: r.kind, updates: len(r.updates), sched: due, sent: time.Now()}
				s.failed = e.send(c, cs[c], r)
				s.done = time.Now()
				per[c] = append(per[c], s)
			}
		}(c)
	}
	wg.Wait()
	p.end = time.Now()
	for c, s := range per {
		p.samples = append(p.samples, s...)
		p.unsent += unsent[c]
	}
	return p
}

// windows splits the phase into n equal spans by when each request was
// due; unsent requests stay with the whole phase.
func (p phase) windows(n int) []phase {
	out := make([]phase, n)
	span := p.end.Sub(p.start) / time.Duration(n)
	for i := range out {
		out[i].start = p.start.Add(span * time.Duration(i))
		out[i].end = out[i].start.Add(span)
	}
	for _, s := range p.samples {
		i := min(max(int(s.sched.Sub(p.start)/span), 0), n-1)
		out[i].samples = append(out[i].samples, s)
	}
	return out
}

// windowMedian is the median of f over the phase's windows: a burst of
// interference on the shared machine moves one window, not the result.
// The phase is cut into as many windows, up to statWindows, as leave
// each at least minPerWindow of the requests it counts (n of them);
// with fewer, f reads the whole phase.
func (p phase) windowMedian(n, minPerWindow int, f func(phase) float64) float64 {
	k := min(statWindows, n/minPerWindow)
	if k <= 1 {
		return f(p)
	}
	var vs []float64
	for _, w := range p.windows(k) {
		vs = append(vs, f(w))
	}
	sort.Float64s(vs)
	return quantile(vs, 0.5)
}

// p95Window is the fewest requests a window needs for its p95 to have
// ten beyond it.
const p95Window = 200

// latency is the median over windows of latency quantile q, for one
// request kind (or all with kind < 0).
func (p phase) latency(kind int, q float64) float64 {
	n := len(p.latencies(kind))
	return p.windowMedian(n, p95Window, func(w phase) float64 { return quantile(w.latencies(kind), q) })
}

// latencies returns the phase's latencies in ms from when each request
// was due, for one kind (or all with kind < 0); failed and unsent
// requests count as +Inf, missing every limit.
func (p phase) latencies(kind int) []float64 {
	var out []float64
	for _, s := range p.samples {
		if kind >= 0 && s.kind != kind {
			continue
		}
		if s.failed {
			out = append(out, math.Inf(1))
			continue
		}
		out = append(out, ms(s.done.Sub(s.sched)))
	}
	if kind < 0 {
		for i := 0; i < p.unsent; i++ {
			out = append(out, math.Inf(1))
		}
	}
	sort.Float64s(out)
	return out
}

// verdicts counts the updates decided in the phase (a batch counts each
// of its updates).
func (p phase) verdicts() int {
	n := 0
	for _, s := range p.samples {
		if !s.failed {
			n += s.updates
		}
	}
	return n
}

func (p phase) failures() int {
	n := 0
	for _, s := range p.samples {
		if s.failed {
			n++
		}
	}
	return n
}

// meets reports whether an open-loop rung kept its p95 within limit ms
// with no growing backlog: at the deadline at most one request per
// connection, or 1% of the rung's requests, was left unsent.
func (p phase) meets(limit float64, nconns int) bool {
	n := len(p.samples) + p.unsent
	return n > 0 && p.latency(-1, 0.95) <= limit && p.unsent <= max(nconns, n/100)
}

// lateness returns, per sent request, how late it went out after it
// could have (due and its connection free), and how long it waited for
// its connection's previous request, in ms.
func (p phase) lateness() (late, connWait []float64) {
	prevDone := map[int]time.Time{}
	for _, s := range p.samples {
		ready, wait := s.sched, 0.0
		if prev := prevDone[s.conn]; prev.After(ready) {
			wait, ready = ms(prev.Sub(ready)), prev
		}
		late = append(late, math.Max(0, ms(s.sent.Sub(ready))))
		connWait = append(connWait, wait)
		prevDone[s.conn] = s.done
	}
	sort.Float64s(late)
	sort.Float64s(connWait)
	return late, connWait
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// quantile reads q from sorted samples by linear interpolation.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	pos := q * float64(len(sorted)-1)
	i := int(pos)
	if i+1 >= len(sorted) {
		return sorted[len(sorted)-1]
	}
	frac := pos - float64(i)
	switch {
	case frac == 0:
		return sorted[i]
	case math.IsInf(sorted[i+1], 1):
		return sorted[i+1]
	}
	return sorted[i] + frac*(sorted[i+1]-sorted[i])
}

// busy reports whether err is a load-shedding rejection that left the
// server's state untouched (429 or 503 from the HTTP arm).
func busy(err error) bool {
	if _, ok := sdk.IsBusy(err); ok {
		return true
	}
	var he *sdk.HTTPError
	return errors.As(err, &he) && he.Status == 503
}
