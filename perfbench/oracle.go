package main

import (
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"sync"

	"repro/internal/ast"
	"repro/internal/eval"
	"repro/internal/parser"
	"repro/internal/store"
)

// oracle decides requests by full evaluation: it applies the update to
// its own store and evaluates every constraint over the whole database
// — no phases, residuals or caches, and a fresh evaluation plan per
// call. It shares no state with the system under test.
type oracle struct {
	db    *store.Store
	progs []*ast.Program
	opts  eval.Options
	// direct, when set, decides violation instead of eval (see
	// workload.violated).
	direct func(*store.Store) (bool, error)
}

// initialDB renders and loads the seed's facts into one store holding
// every relation, wherever the system under test places it.
func initialDB(w *workload, seed int64) (*store.Store, error) {
	db := store.New()
	for _, src := range w.facts(rand.New(rand.NewSource(seed))) {
		p, err := parser.ParseProgram(src)
		if err != nil {
			return nil, err
		}
		if err := db.LoadFacts(p); err != nil {
			return nil, err
		}
	}
	return db, nil
}

func constraintProgs(w *workload) ([]*ast.Program, error) {
	var out []*ast.Program
	for name, src := range w.constraints {
		p, err := parser.ParseProgram(src)
		if err != nil {
			return nil, fmt.Errorf("constraint %s: %w", name, err)
		}
		out = append(out, p)
	}
	return out, nil
}

// violated reports whether any constraint fails on the oracle's store.
func (o *oracle) violated() (bool, error) {
	if o.direct != nil {
		return o.direct(o.db)
	}
	for _, p := range o.progs {
		res, err := eval.EvalWith(p, o.db, o.opts)
		if err != nil {
			return false, err
		}
		if res.Holds(ast.PanicPred) {
			return true, nil
		}
	}
	return false, nil
}

// apply performs u and reports whether the store changed.
func (o *oracle) apply(u store.Update) (bool, error) {
	if u.Insert {
		return o.db.Insert(u.Relation, u.Tuple)
	}
	return o.db.Delete(u.Relation, u.Tuple), nil
}

func (o *oracle) undo(u store.Update, changed bool) error {
	if !changed {
		return nil
	}
	_, err := o.apply(invert(u))
	return err
}

// decide returns the verdict the request must get, leaving the oracle's
// store as the request leaves the system's: a check never changes it, a
// rejected apply or batch is rolled back.
func (o *oracle) decide(r request) (verdict, error) {
	var applied []store.Update
	var changed []bool
	rollback := func() error {
		for i := len(applied) - 1; i >= 0; i-- {
			if err := o.undo(applied[i], changed[i]); err != nil {
				return err
			}
		}
		return nil
	}
	for i, u := range r.updates {
		ch, err := o.apply(u)
		if err != nil {
			return 0, err
		}
		applied, changed = append(applied, u), append(changed, ch)
		bad, err := o.violated()
		if err != nil {
			return 0, err
		}
		switch {
		case bad && r.kind == kindBatch:
			return verdict(i), rollback()
		case bad:
			return 0, rollback()
		}
	}
	switch r.kind {
	case kindBatch:
		return -1, nil
	case kindCheck:
		return 1, rollback()
	}
	return 1, nil
}

// replay regenerates connection c's requests from the seed and the
// logged answers — the generator is deterministic given both — and
// calls visit with each request, its verdict and its error.
func replay(w *workload, seed int64, c int, cn *conn, visit func(i int, r request, v verdict, err error) error) error {
	g := w.newGen(seed, c)
	for i, v := range cn.verdicts {
		r := g.next()
		err := cn.errs[i]
		if verr := visit(i, r, v, err); verr != nil {
			return verr
		}
		if err == nil {
			g.done(r, v)
		}
	}
	return nil
}

// verify replays every connection's requests through its own oracle
// (one goroutine per connection) and returns the first mismatches. A
// request that failed with anything but a load-shedding rejection
// leaves the system's state unknown, which is itself an error.
func verify(w *workload, seed int64, cs []*conn) error {
	progs, err := constraintProgs(w)
	if err != nil {
		return err
	}
	errs := make([]error, len(cs))
	var wg sync.WaitGroup
	for c := range cs {
		db, err := initialDB(w, seed)
		if err != nil {
			return err
		}
		wg.Add(1)
		go func(c int, o *oracle) {
			defer wg.Done()
			errs[c] = replay(w, seed, c, cs[c], func(i int, r request, v verdict, err error) error {
				if err != nil {
					if busy(err) {
						return nil
					}
					return fmt.Errorf("conn %d request %d (%s): %v", c, i, r, err)
				}
				want, err := o.decide(r)
				if err != nil {
					return fmt.Errorf("oracle: %w", err)
				}
				if want != v {
					return fmt.Errorf("conn %d request %d (%s): verdict %d, full evaluation says %d", c, i, r, v, want)
				}
				return nil
			})
		}(c, &oracle{db: db, progs: progs, direct: w.violated})
	}
	wg.Wait()
	return errors.Join(errs...)
}

// expectedState is the initial database with every connection's
// admitted writes applied in order; connections write disjoint keys, so
// the order between them does not matter.
func expectedState(w *workload, seed int64, cs []*conn) (*store.Store, error) {
	db, err := initialDB(w, seed)
	if err != nil {
		return nil, err
	}
	for c, cn := range cs {
		err := replay(w, seed, c, cn, func(_ int, r request, v verdict, err error) error {
			if err != nil || r.kind == kindCheck || v == 0 || (r.kind == kindBatch && v != -1) {
				return nil
			}
			for _, u := range r.updates {
				if err := u.Apply(db); err != nil {
					return err
				}
			}
			return nil
		})
		if err != nil {
			return nil, err
		}
	}
	return db, nil
}

// facts returns the sorted facts of the named relations across stores
// (all relations when names is empty).
func facts(names []string, stores ...*store.Store) []string {
	var out []string
	for _, s := range stores {
		for _, line := range strings.Split(s.Dump(), "\n") {
			if line == "" {
				continue
			}
			if len(names) > 0 && !hasPred(line, names) {
				continue
			}
			out = append(out, line)
		}
	}
	sort.Strings(out)
	return out
}

func hasPred(fact string, names []string) bool {
	for _, n := range names {
		if strings.HasPrefix(fact, n+"(") {
			return true
		}
	}
	return false
}

func sameFacts(a, b []string) (bool, string) {
	for i := 0; i < len(a) || i < len(b); i++ {
		switch {
		case i >= len(a):
			return false, "missing " + b[i]
		case i >= len(b):
			return false, "unexpected " + a[i]
		case a[i] != b[i]:
			return false, fmt.Sprintf("%s vs %s", a[i], b[i])
		}
	}
	return true, ""
}

// checkFinal checks the system's final state: it equals want (the
// initial database plus every admitted write, expectedState), satisfies every constraint, and —
// with remote placement — the coordinator's mirror equals the merged
// site stores.
func checkFinal(e *env, want *store.Store) error {
	var got []string
	if pl := e.w.placement; pl != nil {
		got = facts(pl.local, e.local)
		sites := make([]*store.Store, len(e.sites))
		for i, s := range e.sites {
			sites[i] = s.db
		}
		remote := []string{pl.sharded, pl.whole}
		if ok, diff := sameFacts(facts(remote, e.local), facts(remote, sites...)); !ok {
			return fmt.Errorf("coordinator mirror differs from the sites: %s", diff)
		}
		got = append(got, facts(remote, sites...)...)
		sort.Strings(got)
	} else {
		got = facts(nil, e.local)
	}
	if ok, diff := sameFacts(got, facts(nil, want)); !ok {
		return fmt.Errorf("final state differs from the admitted writes: %s", diff)
	}
	progs, err := constraintProgs(e.w)
	if err != nil {
		return err
	}
	// The final state is checked once, so it can afford the brute-force
	// evaluator: textual join order, scans, no hash indexes.
	bad, err := (&oracle{db: want, progs: progs, opts: eval.Options{DisableIndexes: true}}).violated()
	if err != nil {
		return err
	}
	if bad {
		return errors.New("final state violates a constraint")
	}
	return nil
}

// sameVerdicts compares two runs' per-connection answers over their
// common prefix; with the seed they determine the requests too.
func sameVerdicts(a, b []*conn) error {
	for c := range a {
		n := min(len(a[c].verdicts), len(b[c].verdicts))
		for i := 0; i < n; i++ {
			ea, eb := a[c].errs[i], b[c].errs[i]
			if a[c].verdicts[i] != b[c].verdicts[i] || (ea == nil) != (eb == nil) {
				return fmt.Errorf("conn %d request %d: verdict %d (error %v) vs %d (error %v)", c, i, a[c].verdicts[i], ea, b[c].verdicts[i], eb)
			}
		}
	}
	return nil
}
