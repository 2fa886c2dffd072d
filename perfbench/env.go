package main

import (
	"context"
	"fmt"
	"math/rand"
	"net"
	"net/http"
	"sort"
	"time"

	"repro/internal/ast"
	"repro/internal/core"
	"repro/internal/netdist"
	"repro/internal/obs"
	"repro/internal/parser"
	"repro/internal/relation"
	"repro/internal/serve"
	"repro/internal/serve/sdk"
	"repro/internal/store"
)

// env is one running system under test: the decision server on a real
// loopback listener, its backend, any remote sites, and one SDK client
// per connection.
type env struct {
	w       *workload
	reg     *obs.Registry
	srv     *serve.Server
	httpSrv *http.Server
	chk     *core.Checker
	co      *netdist.Coordinator // nil without remote placement
	tr      netdist.Transport    // the coordinator's transport
	local   *store.Store
	sites   []*site
	clients []*sdk.SDK
	layers  *layers // nil on an undecorated run
	served  chan struct{}
}

// site is one in-process netdist site on its own TCP listener.
type site struct {
	addr string
	db   *store.Store
	ln   net.Listener
	done chan struct{}
}

// setup builds the system the way ccserved ships it by default — metrics
// registry on, spans head-sampled at 0.1 into a 512-trace store,
// decision log off — renders the seed's facts as .dl text, parses and
// loads them, compiles the constraints, syncs the coordinator's mirror
// and answers one check over HTTP. With lay non-nil the server's
// handler, backend and transport are wrapped by its recorders.
func setup(w *workload, seed int64, lay *layers) (*env, error) {
	e := &env{w: w, reg: obs.NewRegistry(), layers: lay, served: make(chan struct{})}
	if lay != nil {
		lay.watch(e.reg)
	}
	texts := w.facts(rand.New(rand.NewSource(seed)))
	progs := make([]*ast.Program, len(texts))
	for i, src := range texts {
		p, err := parser.ParseProgram(src)
		if err != nil {
			return nil, fmt.Errorf("facts: %w", err)
		}
		progs[i] = p
	}
	e.local = store.New()
	if err := e.local.LoadFacts(progs[0]); err != nil {
		return nil, err
	}
	spans := obs.NewSpanTracer("ccserved", obs.NewTraceStore(512), 0.1)
	bridge := obs.NewSpanBridge(spans)
	opts := core.Options{Metrics: e.reg, Tracer: bridge}
	var backend serve.Backend
	if pl := w.placement; pl != nil {
		opts.LocalRelations = pl.local
		place, err := e.startSites(pl, progs[1:])
		if err != nil {
			e.close()
			return nil, err
		}
		e.tr = delayTransport{inner: netdist.NewTCPTransport(), delay: time.Duration(pl.delayMicros) * time.Microsecond}
		if lay != nil {
			e.tr = lay.wrapTransport(e.tr)
		}
		e.co, err = netdist.NewPlaced(e.local, place, e.tr, netdist.Options{
			Checker:      opts,
			Timeout:      2 * time.Second,
			ApplyWorkers: w.applyWorkers,
			Metrics:      e.reg,
			Spans:        bridge,
		})
		if err != nil {
			e.close()
			return nil, err
		}
		e.chk = e.co.Checker
		backend = netdist.ServeBackend{Co: e.co}
	} else {
		e.chk = core.New(e.local, opts)
		backend = e.chk
	}
	names := make([]string, 0, len(w.constraints))
	for name := range w.constraints {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		if err := e.chk.AddConstraintSource(name, w.constraints[name]); err != nil {
			e.close()
			return nil, fmt.Errorf("constraint %s: %w", name, err)
		}
	}
	if lay != nil {
		backend = lay.wrapBackend(backend)
	}
	e.srv = serve.New(backend, serve.Config{
		ApplyWorkers: w.applyWorkers,
		Metrics:      e.reg,
		Spans:        spans,
		SpanBridge:   bridge,
	})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		e.close()
		return nil, err
	}
	var h http.Handler = e.srv.Handler("ccserved", nil, nil)
	if lay != nil {
		h = lay.wrapHandler(h)
	}
	e.httpSrv = &http.Server{Handler: h}
	go func() {
		defer close(e.served)
		_ = e.httpSrv.Serve(ln) // returns ErrServerClosed on close
	}()
	url := "http://" + ln.Addr().String()
	for c := 0; c < conns; c++ {
		cl, err := sdk.New(sdk.Config{
			URL: url,
			HTTPClient: &http.Client{
				Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1},
				Timeout:   30 * time.Second,
			},
			ClientID: fmt.Sprintf("conn%d", c),
		})
		if err != nil {
			e.close()
			return nil, err
		}
		e.clients = append(e.clients, cl)
	}
	// The first request: a check that no constraint cares about.
	if _, err := e.clients[0].Check(store.Ins("probe", relation.Ints(0))); err != nil {
		e.close()
		return nil, fmt.Errorf("first request: %w", err)
	}
	return e, nil
}

// startSites starts the remote sites and loads their facts: the sharded
// relation split over pl.shards sites by the placement's hash, the whole
// relation on the last site. progs holds the sharded relation's facts,
// then the whole relation's.
func (e *env) startSites(pl *remotePlacement, progs []*ast.Program) (netdist.Placement, error) {
	for i := 0; i <= pl.shards; i++ {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		s := &site{addr: ln.Addr().String(), db: store.New(), ln: ln, done: make(chan struct{})}
		rels := []string{pl.sharded}
		if i == pl.wholeSiteIdx {
			rels = []string{pl.whole}
		}
		srv := netdist.NewServer(s.db, rels)
		srv.Instrument(e.reg)
		go func() {
			defer close(s.done)
			_ = srv.Serve(ln) // returns nil once the listener closes
		}()
		e.sites = append(e.sites, s)
	}
	rp := netdist.RelPlacement{KeyCol: 0}
	for i := 0; i < pl.shards; i++ {
		rp.Shards = append(rp.Shards, netdist.ShardSpec{Leader: e.sites[i].addr})
	}
	place := netdist.Placement{
		pl.sharded: rp,
		pl.whole:   {Shards: []netdist.ShardSpec{{Leader: e.sites[pl.wholeSiteIdx].addr}}},
	}
	for _, r := range progs[0].Rules {
		t, err := relation.TermsToTuple(r.Head.Args)
		if err != nil {
			return nil, err
		}
		if _, err := e.sites[place.ShardOf(pl.sharded, t[0])].db.Insert(pl.sharded, t); err != nil {
			return nil, err
		}
	}
	if err := e.sites[pl.wholeSiteIdx].db.LoadFacts(progs[1]); err != nil {
		return nil, err
	}
	return place, nil
}

// close stops the server, drains it, closes the coordinator's transport
// and the sites, and waits for every serving goroutine it started.
func (e *env) close() {
	if e.httpSrv != nil {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		_ = e.httpSrv.Shutdown(ctx) // in-flight requests are ours and already answered
		cancel()
		<-e.served
	}
	for _, cl := range e.clients {
		cl.Close()
	}
	if e.srv != nil {
		e.srv.Close()
	}
	if e.tr != nil {
		_ = e.tr.Close() // closes idle connections only; nothing is in flight
	}
	for _, s := range e.sites {
		s.ln.Close()
		<-s.done
	}
}

// stores returns every store of the system: the checker's own, then the
// sites'.
func (e *env) stores() []*store.Store {
	out := []*store.Store{e.local}
	for _, s := range e.sites {
		out = append(out, s.db)
	}
	return out
}

// delayTransport adds a fixed delay to every round trip, standing in for
// the network distance between coordinator and sites.
type delayTransport struct {
	inner netdist.Transport
	delay time.Duration
}

func (d delayTransport) RoundTrip(site string, req *netdist.Request, timeout time.Duration) (*netdist.Response, error) {
	time.Sleep(d.delay)
	return d.inner.RoundTrip(site, req, timeout)
}

func (d delayTransport) Close() error { return d.inner.Close() }
