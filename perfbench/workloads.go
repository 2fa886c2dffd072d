package main

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"

	"repro/internal/ast"
	"repro/internal/relation"
	"repro/internal/store"
)

// conns is the number of client connections (and key partitions): one
// per CPU of the 2-core reference machine, never more.
const conns = 2

// workload is one traffic mix against one server configuration.
type workload struct {
	name string
	// rates are the open-loop ladder's offered loads in requests/s: ¼×,
	// ½× and 2× of the closed-loop capacity measured at the commit that
	// introduced the benchmark, on the reference machine. The first rung
	// is the nominal one, where the latency metrics are read: at ¼× a
	// request's latency is mostly its service, while at ½× and above it
	// is mostly waiting behind the connection's previous request, which
	// swings with the speed of a shared machine. A rung at 1× passes or
	// fails with that speed, so the ladder has none.
	rates [3]float64
	// limitMS is the p95 latency limit a rung must meet to count for
	// max_ok_rate_ops_s.
	limitMS float64
	// applyWorkers is the server's -apply-workers setting.
	applyWorkers int
	// constraints are the constraint programs, by name.
	constraints map[string]string
	// placement describes where relations live; nil keeps every relation
	// local to a single checker.
	placement *remotePlacement
	// facts renders the initial database as .dl text, one program per
	// store: index 0 is the checker's (or coordinator's) own store, the
	// rest are the remote sites' in placement order.
	facts func(rng *rand.Rand) []string
	// newGen builds connection c's request generator.
	newGen func(seed int64, c int) generator
	// violated, when set, replaces eval as the per-request oracle: a
	// direct evaluation of the constraints over the whole database, for
	// workloads whose request volume is too large to evaluate through
	// eval request by request.
	violated func(db *store.Store) (bool, error)
}

// remotePlacement is the ref-remote layout: some relations local at the
// coordinator, one hash-sharded over several sites, one whole on a site
// of its own.
type remotePlacement struct {
	local        []string
	sharded      string
	shards       int
	whole        string
	delayMicros  int
	wholeSiteIdx int
}

var workloads = []*workload{
	{
		name:         "d1-serve",
		rates:        [3]float64{2100, 4200, 16800},
		limitMS:      20,
		applyWorkers: 1,
		constraints: map[string]string{
			"fi": "panic :- l(X,Y) & r(Z) & X <= Z & Z <= Y.",
		},
		facts:    d1Facts,
		newGen:   newD1Gen,
		violated: d1Violated,
	},
	{
		name:         "emp-recursive",
		rates:        [3]float64{62, 125, 500},
		limitMS:      20,
		applyWorkers: 1,
		constraints: map[string]string{
			"known-dept": "panic :- emp(E,D,S) & not dept(D) & S < 100.",
			"range": `panic :- emp(E,D,S) & salRange(D,Low,High) & S < Low.
panic :- emp(E,D,S) & salRange(D,Low,High) & S > High.`,
			"no-self-boss": `panic :- boss(E,E).
boss(E,M) :- emp(E,D,S) & manager(D,M).
boss(E,F) :- boss(E,G) & boss(G,F).`,
		},
		facts:  empFacts,
		newGen: newEmpGen,
	},
	{
		name:         "ref-remote",
		rates:        [3]float64{20, 40, 160},
		limitMS:      80,
		applyWorkers: 8,
		constraints: map[string]string{
			"referential": "panic :- emp(E,D,S) & not dept(D).",
			"range-low":   "panic :- emp(E,D,S) & salRange(D,Low,High) & S < Low.",
			"range-high":  "panic :- emp(E,D,S) & salRange(D,Low,High) & S > High.",
		},
		placement: &remotePlacement{
			local:        []string{"emp"},
			sharded:      "dept",
			shards:       4,
			whole:        "salRange",
			delayMicros:  300,
			wholeSiteIdx: 4,
		},
		facts:  refFacts,
		newGen: newRefGen,
	},
}

func workloadByName(name string) (*workload, error) {
	var names []string
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
		names = append(names, w.name)
	}
	return nil, fmt.Errorf("unknown workload %q (have %s)", name, strings.Join(names, ", "))
}

// factWriter renders facts in the parser's syntax.
type factWriter struct{ sb strings.Builder }

func (f *factWriter) add(pred string, t relation.Tuple) {
	f.sb.WriteString(ast.Fact(ast.Atom{Pred: pred, Args: t.Terms()}).String())
	f.sb.WriteByte('\n')
}

func (f *factWriter) String() string { return f.sb.String() }

// --- d1-serve --------------------------------------------------------

const (
	d1Intervals = 200
	d1Keys      = 50
	d1Batch     = 8
)

// d1Facts is the D1 forbidden-interval database: 200 intervals of width
// ≤ 20 over [0, 200) in l, and 50 keys far above them in r.
func d1Facts(rng *rand.Rand) []string {
	var f factWriter
	for i := 0; i < d1Intervals; i++ {
		lo := rng.Int63n(200)
		f.add("l", relation.Ints(lo, lo+1+rng.Int63n(20)))
	}
	for i := int64(0); i < d1Keys; i++ {
		f.add("r", relation.Ints(10_000+i))
	}
	return []string{f.String()}
}

// d1Violated evaluates the D1 constraint over the whole database
// directly: it is violated when some r key lies inside some l interval.
func d1Violated(db *store.Store) (bool, error) {
	var keys []int64
	for _, t := range db.Tuples("r") {
		z, err := intOf(t[0])
		if err != nil {
			return false, err
		}
		keys = append(keys, z)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	for _, t := range db.Tuples("l") {
		lo, err := intOf(t[0])
		if err != nil {
			return false, err
		}
		hi, err := intOf(t[1])
		if err != nil {
			return false, err
		}
		if i := sort.Search(len(keys), func(i int) bool { return keys[i] >= lo }); i < len(keys) && keys[i] <= hi {
			return true, nil
		}
	}
	return false, nil
}

func intOf(v ast.Value) (int64, error) {
	if v.Kind != ast.NumberValue || !v.Num.IsInt() || !v.Num.Num().IsInt64() {
		return 0, fmt.Errorf("d1: %v is not an int64", v)
	}
	return v.Num.Num().Int64(), nil
}

// --- emp-recursive ---------------------------------------------------

const (
	empDepts     = 20
	empEmployees = 1000
	// empMaxHires bounds each connection's live hires (a hire past it
	// becomes a fire), so the database stays the same size through a run.
	empMaxHires = 20
)

func empDeptName(d int) string { return fmt.Sprintf("dept%02d", d) }

func empLow(d int) int64 { return int64(10 * (d + 1)) }

// empPartition lists connection c's departments in chain order.
func empPartition(c int) []int {
	var ds []int
	for d := c; d < empDepts; d += conns {
		ds = append(ds, d)
	}
	return ds
}

// empFacts builds the employees database: 20 departments with salary
// ranges, 1000 employees spread evenly over them (employee i in
// department i mod 20, at a random salary in range), and managers: in
// each connection's partition the first department is managed by an
// employee of the second, every other department by an outsider, so no
// one is their own boss. The shape is the same for every seed, so the
// seed varies the values and the request stream, not the work.
func empFacts(rng *rand.Rand) []string {
	var f factWriter
	members := make([][]string, empDepts)
	for d := 0; d < empDepts; d++ {
		f.add("dept", relation.Strs(empDeptName(d)))
		f.add("salRange", relation.TupleOf(ast.Str(empDeptName(d)), ast.Int(empLow(d)), ast.Int(empLow(d)+50)))
	}
	for i := 0; i < empEmployees; i++ {
		d := i % empDepts
		name := fmt.Sprintf("e%d", i)
		members[d] = append(members[d], name)
		f.add("emp", relation.TupleOf(ast.Str(name), ast.Str(empDeptName(d)), ast.Int(empLow(d)+rng.Int63n(51))))
	}
	for c := 0; c < conns; c++ {
		part := empPartition(c)
		for k, d := range part {
			boss := fmt.Sprintf("outsider%d", c)
			if k == 0 {
				boss = members[part[1]][0]
			}
			f.add("manager", relation.Strs(empDeptName(d), boss))
		}
	}
	return []string{f.String()}
}

// --- ref-remote ------------------------------------------------------

const (
	refDepts     = 2000
	refEmployees = 10
	// refMaxHires bounds each connection's live hires: the local test
	// behind every hire grows with the emp relation, so an unbounded
	// population would slow the run down as it goes.
	refMaxHires = 5
)

func refDeptName(d int) string { return fmt.Sprintf("dept%04d", d) }

func refLow(d int) int64 { return int64(10 + d%50) }

// refFacts builds the remote referential database: emp at the
// coordinator (10 employees spread over the departments, at random
// salaries in range), dept hash-sharded over four sites, salRange whole
// on a fifth. The shard of each dept tuple is decided by the placement, so
// the dept facts are returned whole in slot 1 and split at set-up.
func refFacts(rng *rand.Rand) []string {
	var emp, dept, sal factWriter
	for d := 0; d < refDepts; d++ {
		dept.add("dept", relation.Strs(refDeptName(d)))
		sal.add("salRange", relation.TupleOf(ast.Str(refDeptName(d)), ast.Int(refLow(d)), ast.Int(refLow(d)+50)))
	}
	for i := 0; i < refEmployees; i++ {
		d := i * (refDepts / refEmployees)
		emp.add("emp", relation.TupleOf(ast.Str(fmt.Sprintf("e%d", i)), ast.Str(refDeptName(d)), ast.Int(refLow(d)+rng.Int63n(51))))
	}
	return []string{emp.String(), dept.String(), sal.String()}
}

// --- requests --------------------------------------------------------

// Request kinds, in the order the per-kind metrics report them.
const (
	kindCheck = iota
	kindApply
	kindBatch
	kindCount
)

var kindNames = [kindCount]string{"check", "apply", "batch"}

// request is one API call: a check or apply of one update, or an atomic
// batch.
type request struct {
	kind    int
	updates []store.Update
}

func (r request) String() string {
	parts := make([]string, len(r.updates))
	for i, u := range r.updates {
		parts[i] = u.String()
	}
	return kindNames[r.kind] + " " + strings.Join(parts, " ")
}

// verdict is the server's answer to a request in comparable form: for a
// check or apply, 1 admitted / 0 rejected; for an atomic batch, the
// index of the update that rolled it back, or -1 when all applied.
type verdict int32

// generator produces one connection's request stream. The stream is a
// deterministic function of the seed, the connection and the verdicts
// fed back, and it touches only the connection's own key partition, so
// its verdicts do not depend on how connections interleave.
type generator interface {
	next() request
	done(request, verdict)
}

// mix draws a request kind from weights.
func mix(rng *rand.Rand, check, apply, batch int) int {
	n := rng.Intn(check + apply + batch)
	switch {
	case n < check:
		return kindCheck
	case n < check+apply:
		return kindApply
	}
	return kindBatch
}

func invert(u store.Update) store.Update {
	return store.Update{Insert: !u.Insert, Relation: u.Relation, Tuple: u.Tuple}
}

// d1Gen is ccload's D1 mix: checks probe the contended band [0, 220)
// (real violations), applies and batches write r keys in the
// connection's own band far above every interval and undo themselves
// on the next turn, so the store stays bounded.
type d1Gen struct {
	rng          *rand.Rand
	base, key    int64
	pendingApply []store.Update
	pendingBatch []store.Update
}

func newD1Gen(seed int64, c int) generator {
	return &d1Gen{rng: rand.New(rand.NewSource(seed*1000 + int64(c))), base: 1_000_000_000 + int64(c)*100_000_000}
}

func (g *d1Gen) next() request {
	switch mix(g.rng, 70, 25, 5) {
	case kindCheck:
		if g.rng.Intn(2) == 0 {
			lo := g.rng.Int63n(200)
			return request{kindCheck, []store.Update{store.Ins("l", relation.Ints(lo, lo+1+g.rng.Int63n(20)))}}
		}
		return request{kindCheck, []store.Update{store.Ins("r", relation.Ints(g.rng.Int63n(200)))}}
	case kindApply:
		if n := len(g.pendingApply); n > 0 {
			u := invert(g.pendingApply[n-1])
			return request{kindApply, []store.Update{u}}
		}
		g.key++
		return request{kindApply, []store.Update{store.Ins("r", relation.Ints(g.base+g.key))}}
	}
	if len(g.pendingBatch) > 0 {
		us := make([]store.Update, len(g.pendingBatch))
		for i, u := range g.pendingBatch {
			us[len(us)-1-i] = invert(u)
		}
		return request{kindBatch, us}
	}
	us := make([]store.Update, d1Batch)
	for i := range us {
		g.key++
		us[i] = store.Ins("r", relation.Ints(g.base+g.key))
	}
	return request{kindBatch, us}
}

func (g *d1Gen) done(r request, v verdict) {
	switch r.kind {
	case kindApply:
		if r.updates[0].Insert {
			if v == 1 {
				g.pendingApply = append(g.pendingApply, r.updates[0])
			}
		} else {
			g.pendingApply = g.pendingApply[:len(g.pendingApply)-1]
		}
	case kindBatch:
		if r.updates[0].Insert && v == -1 {
			g.pendingBatch = r.updates
		} else {
			g.pendingBatch = nil
		}
	}
}

// empGen drives the employees workload inside one partition: checked
// and applied hires (10% violating: a ghost department or a salary
// above range), fires of the connection's own hires, manager inserts
// that make an employee of the first department the manager of the
// second — closing a boss cycle, rejected — and atomic batches that
// open a department and hire.
type empGen struct {
	rng      *rand.Rand
	c        int
	part     []int
	firstEmp string
	hires    []relation.Tuple
	newDepts []string
	n        int
}

func newEmpGen(seed int64, c int) generator {
	part := empPartition(c)
	// Employee i < empDepts works in department i (empFacts).
	return &empGen{
		rng:      rand.New(rand.NewSource(seed*1000 + int64(c))),
		c:        c,
		part:     part,
		firstEmp: fmt.Sprintf("e%d", part[0]),
	}
}

func (g *empGen) hire() store.Update {
	g.n++
	name := fmt.Sprintf("h%d_%d", g.c, g.n)
	if len(g.newDepts) > 0 && g.rng.Intn(5) == 0 {
		return store.Ins("emp", relation.TupleOf(ast.Str(name), ast.Str(g.newDepts[g.rng.Intn(len(g.newDepts))]), ast.Int(50)))
	}
	d := g.part[g.rng.Intn(len(g.part))]
	dept, sal := empDeptName(d), empLow(d)+g.rng.Int63n(51)
	if g.rng.Intn(10) == 0 {
		if g.rng.Intn(2) == 0 {
			dept = fmt.Sprintf("ghost%d", g.c)
		} else {
			sal += 1000
		}
	}
	return store.Ins("emp", relation.TupleOf(ast.Str(name), ast.Str(dept), ast.Int(sal)))
}

func (g *empGen) next() request {
	switch mix(g.rng, 30, 60, 10) {
	case kindCheck:
		return request{kindCheck, []store.Update{g.hire()}}
	case kindBatch:
		g.n++
		dept := fmt.Sprintf("new%d_%d", g.c, g.n)
		return request{kindBatch, []store.Update{store.Ins("dept", relation.Strs(dept)), g.hire()}}
	}
	// Hires outnumber fires until the cap, so the database keeps its size.
	// Most applies are manager inserts that close a boss cycle: they reach
	// global evaluation and are rejected, so the apply median sits inside
	// one kind of decision rather than between the slow and the fast ones.
	switch p := g.rng.Intn(20); {
	case p < 8 && len(g.hires) < empMaxHires && (p < 5 || len(g.hires) == 0):
		return request{kindApply, []store.Update{g.hire()}}
	case p < 8:
		return request{kindApply, []store.Update{store.Del("emp", g.hires[g.rng.Intn(len(g.hires))])}}
	}
	return request{kindApply, []store.Update{store.Ins("manager", relation.Strs(empDeptName(g.part[1]), g.firstEmp))}}
}

func (g *empGen) done(r request, v verdict) {
	if r.kind == kindCheck {
		return
	}
	if r.kind == kindBatch {
		if v == -1 {
			g.newDepts = append(g.newDepts, r.updates[0].Tuple[0].Str)
			g.hires = append(g.hires, r.updates[1].Tuple)
		}
		return
	}
	u := r.updates[0]
	switch {
	case v != 1:
	case u.Relation == "emp" && u.Insert:
		g.hires = append(g.hires, u.Tuple)
	case u.Relation == "emp":
		g.hires = removeTuple(g.hires, u.Tuple)
	}
}

func removeTuple(ts []relation.Tuple, t relation.Tuple) []relation.Tuple {
	for i := range ts {
		if ts[i].Equal(t) {
			return append(ts[:i], ts[i+1:]...)
		}
	}
	return ts
}

// refGen drives ref-remote inside one partition: checked hires (10%
// violating), applied hires, and atomic batches that open a department
// — +dept on its shard and +salRange on the range site, both remote
// writes — and fire the connection's oldest hire. Applies fire only at
// the hire cap, so three in four are hires and the apply median sits
// among the hires rather than between them and the much faster fires.
type refGen struct {
	rng      *rand.Rand
	c        int
	hires    []relation.Tuple
	newDepts []string
	n        int
}

func newRefGen(seed int64, c int) generator {
	return &refGen{rng: rand.New(rand.NewSource(seed*1000 + int64(c))), c: c}
}

func (g *refGen) hire() store.Update {
	g.n++
	name := fmt.Sprintf("h%d_%d", g.c, g.n)
	var dept string
	var low int64
	if len(g.newDepts) > 0 && g.rng.Intn(4) == 0 {
		dept, low = g.newDepts[g.rng.Intn(len(g.newDepts))], 20
	} else {
		d := g.rng.Intn(refDepts)
		dept, low = refDeptName(d), refLow(d)
	}
	sal := low + g.rng.Int63n(51)
	if g.rng.Intn(10) == 0 {
		if g.rng.Intn(2) == 0 {
			dept = fmt.Sprintf("ghost%d", g.c)
		} else {
			sal += 1000
		}
	}
	return store.Ins("emp", relation.TupleOf(ast.Str(name), ast.Str(dept), ast.Int(sal)))
}

func (g *refGen) next() request {
	switch mix(g.rng, 40, 40, 20) {
	case kindCheck:
		return request{kindCheck, []store.Update{g.hire()}}
	case kindBatch:
		g.n++
		dept := fmt.Sprintf("new%d_%d", g.c, g.n)
		us := []store.Update{
			store.Ins("dept", relation.Strs(dept)),
			store.Ins("salRange", relation.TupleOf(ast.Str(dept), ast.Int(20), ast.Int(70))),
		}
		if len(g.hires) > 0 {
			us = append(us, store.Del("emp", g.hires[0]))
		}
		return request{kindBatch, us}
	}
	if len(g.hires) >= refMaxHires {
		return request{kindApply, []store.Update{store.Del("emp", g.hires[0])}}
	}
	return request{kindApply, []store.Update{g.hire()}}
}

func (g *refGen) done(r request, v verdict) {
	switch {
	case r.kind == kindBatch && v == -1:
		g.newDepts = append(g.newDepts, r.updates[0].Tuple[0].Str)
		if len(r.updates) > 2 {
			g.hires = removeTuple(g.hires, r.updates[2].Tuple)
		}
	case r.kind == kindApply && v == 1 && r.updates[0].Insert:
		g.hires = append(g.hires, r.updates[0].Tuple)
	case r.kind == kindApply && v == 1:
		g.hires = removeTuple(g.hires, r.updates[0].Tuple)
	}
}
