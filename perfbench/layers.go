package main

import (
	"bufio"
	"encoding/json"
	"net/http"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/netdist"
	"repro/internal/obs"
	"repro/internal/sched"
	"repro/internal/serve"
	"repro/internal/store"
)

// layers records the traced run: it wraps the public seams of each
// layer — the HTTP handler, the serve.Backend, the netdist.Transport —
// and times every call from outside. Calls are kept in memory and
// written out when the run ends.
type layers struct {
	handler, backend, transport recorder
	// queue and inflight are the server's request-queue and scheduler
	// in-flight gauges, sampled at every handler entry and exit and every
	// backend call.
	queue, inflight       *obs.Gauge
	queueMax, inflightMax atomic.Int64
}

// watch attaches the gauges of the system's registry.
func (l *layers) watch(reg *obs.Registry) {
	l.queue = reg.Gauge("cc_serve_queue_depth", "Requests currently queued for the decision worker.")
	l.inflight = reg.GaugeVec("cc_sched_inflight", "Admitted, not yet finished scheduler tasks.", "layer").With("serve")
}

func (l *layers) sample() {
	storeMax(&l.queueMax, l.queue.Value())
	storeMax(&l.inflightMax, l.inflight.Value())
}

// call is one timed call into a layer.
type call struct {
	start, end time.Time
	op         string
}

type recorder struct {
	mu    sync.Mutex
	calls []call
}

func (r *recorder) add(start time.Time, op string) {
	end := time.Now()
	r.mu.Lock()
	r.calls = append(r.calls, call{start: start, end: end, op: op})
	r.mu.Unlock()
}

// within returns the calls that started in [from, to).
func (r *recorder) within(from, to time.Time) []call {
	r.mu.Lock()
	defer r.mu.Unlock()
	var out []call
	for _, c := range r.calls {
		if !c.start.Before(from) && c.start.Before(to) {
			out = append(out, c)
		}
	}
	return out
}

func storeMax(m *atomic.Int64, v int64) {
	for {
		cur := m.Load()
		if v <= cur || m.CompareAndSwap(cur, v) {
			return
		}
	}
}

// wrapHandler wraps the server's HTTP handler.
func (l *layers) wrapHandler(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		l.sample()
		h.ServeHTTP(w, r)
		l.sample()
		l.handler.add(start, r.URL.Path)
	})
}

// wrapBackend wraps a serve.Backend, forwarding the optional refinements the
// server looks for (FootprintBackend keeps the pipelined apply arm on,
// ShardStatser the shard counters) exactly when the inner backend has
// them.
func (l *layers) wrapBackend(b serve.Backend) serve.Backend {
	tb := &tracedBackend{inner: b, l: l}
	fb, ok := b.(serve.FootprintBackend)
	if !ok {
		return tb
	}
	tf := &tracedFootprint{tracedBackend: tb, fp: fb}
	if sh, ok := b.(serve.ShardStatser); ok {
		return &tracedSharded{tracedFootprint: tf, sh: sh}
	}
	return tf
}

type tracedBackend struct {
	inner serve.Backend
	l     *layers
}

// enter samples the gauges and returns the call's start time.
func (b *tracedBackend) enter() time.Time {
	b.l.sample()
	return time.Now()
}

func (b *tracedBackend) Check(u store.Update) (core.Report, error) {
	defer b.l.backend.add(b.enter(), "check")
	return b.inner.Check(u)
}

func (b *tracedBackend) Apply(u store.Update) (core.Report, error) {
	defer b.l.backend.add(b.enter(), "apply")
	return b.inner.Apply(u)
}

func (b *tracedBackend) ApplyBatch(us []store.Update) (core.BatchReport, error) {
	defer b.l.backend.add(b.enter(), "batch")
	return b.inner.ApplyBatch(us)
}

func (b *tracedBackend) Stats() core.Stats { return b.inner.Stats() }

type tracedFootprint struct {
	*tracedBackend
	fp serve.FootprintBackend
}

func (b *tracedFootprint) Footprints() *sched.Index  { return b.fp.Footprints() }
func (b *tracedFootprint) ConcurrentApplySafe() bool { return b.fp.ConcurrentApplySafe() }

type tracedSharded struct {
	*tracedFootprint
	sh serve.ShardStatser
}

func (b *tracedSharded) ShardStats() (routed, scatter, replicaReads int) { return b.sh.ShardStats() }

// wrapTransport wraps the coordinator's transport.
func (l *layers) wrapTransport(t netdist.Transport) netdist.Transport {
	return &tracedTransport{inner: t, rec: &l.transport}
}

type tracedTransport struct {
	inner netdist.Transport
	rec   *recorder
}

func (t *tracedTransport) RoundTrip(site string, req *netdist.Request, timeout time.Duration) (*netdist.Response, error) {
	defer t.rec.add(time.Now(), req.Type)
	return t.inner.RoundTrip(site, req, timeout)
}

func (t *tracedTransport) Close() error { return t.inner.Close() }

// durations returns the calls' durations in µs, sorted, and their sum.
func durations(cs []call) ([]float64, float64) {
	out := make([]float64, len(cs))
	sum := 0.0
	for i, c := range cs {
		out[i] = float64(c.end.Sub(c.start)) / float64(time.Microsecond)
		sum += out[i]
	}
	sort.Float64s(out)
	return out, sum
}

// write saves the calls that started in [from, to) as JSON lines —
// layer, operation, start (µs after from) and duration (µs) — to path.
func (l *layers) write(path string, from, to time.Time) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for _, layer := range []struct {
		name string
		rec  *recorder
	}{{"handler", &l.handler}, {"backend", &l.backend}, {"transport", &l.transport}} {
		for _, c := range layer.rec.within(from, to) {
			line := struct {
				Layer   string  `json:"layer"`
				Op      string  `json:"op"`
				StartUS float64 `json:"start_us"`
				DurUS   float64 `json:"dur_us"`
			}{layer.name, c.op, float64(c.start.Sub(from)) / 1e3, float64(c.end.Sub(c.start)) / 1e3}
			if err := enc.Encode(line); err != nil {
				f.Close()
				return err
			}
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
