// plan.go is the detection planner: it compiles a decomposable
// composite condition (condition.Analyze) into an indexed window join.
// Single-role clauses run once per entity at insertion time, two-role
// temporal and spatial clauses probe the role windows through the
// time-sorted and grid indexes, and remaining clauses are verified as
// soon as their roles are bound — near-output-sensitive cost instead of
// the naive cross product, with byte-identical emissions (modulo
// MaxBindings truncation points).
package detect

import (
	"cmp"
	"fmt"
	"slices"
	"strings"

	"github.com/stcps/stcps/internal/condition"
	"github.com/stcps/stcps/internal/event"
	"github.com/stcps/stcps/internal/spatial"
)

// joinClause is one multi-role conjunct, verified during the join as
// soon as every role in its mask is bound.
type joinClause struct {
	verify *condition.Compiled
	mask   uint64
}

// tprobe is a temporal link with its roles resolved to slots.
type tprobe struct {
	link         *condition.TemporalLink
	slotL, slotR int
}

// sprobe is a spatial link with its roles resolved to slots.
type sprobe struct {
	link         *condition.SpatialLink
	slotL, slotR int
}

// joinState is the per-offer working state of a join, reused across
// offers to keep the hot loop allocation-free: satisfied bindings are
// copied into slabs that the next join overwrites, so the bindings a
// join returns are valid until the detector's next join.
type joinState struct {
	ents      []event.Entity // aliases Detector.evalEnts
	bind      []*entry       // slot -> the window entry bound there
	fixed     entry          // the offered entity, when its window entry is already gone
	order     []int
	rem       []int
	probe     [][]uint64 // join depth -> grid probe candidates
	bound     uint64
	probedN   uint64
	pruned    uint64
	evalErrs  uint64
	truncated bool

	// One run per satisfied binding; results slices them.
	entSlab  []event.Entity // slots per binding
	idSlab   []string       // slots per binding
	seqSlab  []uint64       // slots per binding
	confSlab []float64      // spec roles per binding
	results  []boundSet
}

// plan is a compiled evaluation plan for one punctual detector.
type plan struct {
	filters  [][]*condition.Compiled // slot -> insertion-time filters
	gates    []*condition.Compiled   // role-free clauses
	clauses  []joinClause
	temporal []tprobe
	spatial  []sprobe
	desc     string
	st       joinState
}

// buildPlan compiles the spec's condition into a plan, or records why
// the detector stays on the enumerate path.
func (d *Detector) buildPlan() {
	switch {
	case d.spec.Mode != ModePunctual:
		d.planNote = "interval mode"
		return
	case d.spec.Planner == PlannerOff:
		d.planNote = "planner off"
		return
	case d.slots.Len() != len(d.spec.Roles):
		d.planNote = "duplicate role names"
		return
	case d.slots.Len() > 64:
		d.planNote = "more than 64 roles"
		return
	}
	an := condition.Analyze(d.spec.Cond)
	if !an.Indexable() {
		d.planNote = "condition does not decompose (top-level or/not)"
		return
	}
	p := &plan{filters: make([][]*condition.Compiled, d.slots.Len())}
	for _, cl := range an.Clauses {
		cc, err := condition.Compile(cl.Expr, d.slots)
		if err != nil {
			// New compiled the whole condition, and a conjunct is a
			// subtree of it: only a compiler bug gets here.
			panic(fmt.Sprintf("detect: conjunct %s of a compiled condition does not compile: %v", cl.Expr, err))
		}
		if cl.Kind == condition.KindFilter {
			if len(cl.Roles) == 0 {
				p.gates = append(p.gates, cc)
				continue
			}
			slot, _ := d.slots.Slot(cl.Roles[0])
			p.filters[slot] = append(p.filters[slot], cc)
			continue
		}
		var mask uint64
		for _, role := range cl.Roles {
			slot, _ := d.slots.Slot(role)
			mask |= 1 << uint(slot)
		}
		p.clauses = append(p.clauses, joinClause{verify: cc, mask: mask})
		switch cl.Kind {
		case condition.KindTemporal:
			sl, _ := d.slots.Slot(cl.Temporal.LRole)
			sr, _ := d.slots.Slot(cl.Temporal.RRole)
			p.temporal = append(p.temporal, tprobe{link: cl.Temporal, slotL: sl, slotR: sr})
		case condition.KindSpatial:
			sl, _ := d.slots.Slot(cl.Spatial.LRole)
			sr, _ := d.slots.Slot(cl.Spatial.RRole)
			p.spatial = append(p.spatial, sprobe{link: cl.Spatial, slotL: sl, slotR: sr})
		}
	}
	// Wire the window indexes the probes will use.
	for _, tp := range p.temporal {
		d.bufs[tp.slotL].indexed = true
		d.bufs[tp.slotR].indexed = true
	}
	for _, sp := range p.spatial {
		for _, s := range [2]int{sp.slotL, sp.slotR} {
			if d.bufs[s].grid != nil {
				continue
			}
			cell := sp.link.Radius
			if cell <= 0 {
				cell = 1
			}
			if g, err := spatial.NewGrid(cell); err == nil {
				rb := d.bufs[s]
				rb.grid, rb.locOf = g, rb.locAt
			}
		}
	}
	p.desc = planDesc(d, an)
	d.plan = p
}

// planDesc renders the plan for logs and the stats API.
func planDesc(d *Detector, an condition.Analysis) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "planned join [%s]", strings.Join(d.slots.Names(), " "))
	for _, cl := range an.Clauses {
		fmt.Fprintf(&sb, "; %s{%s}", cl.Kind, cl.Expr)
	}
	var idx []string
	for s, name := range d.slots.Names() {
		rb := d.bufs[s]
		switch {
		case rb.indexed && rb.grid != nil:
			idx = append(idx, name+":time+grid")
		case rb.indexed:
			idx = append(idx, name+":time")
		case rb.grid != nil:
			idx = append(idx, name+":grid")
		}
	}
	if len(idx) > 0 {
		fmt.Fprintf(&sb, "; indexes{%s}", strings.Join(idx, " "))
	}
	return sb.String()
}

// PlanDesc describes the compiled evaluation plan: the indexed join, the
// interval state machine, or the enumerate fallback with its reason.
func (d *Detector) PlanDesc() string {
	if d.plan != nil {
		return d.plan.desc
	}
	if d.spec.Mode == ModeInterval {
		return "interval state machine (compiled latest-binding eval)"
	}
	note := d.planNote
	if note == "" {
		note = "no plan"
	}
	return "enumerate fallback (" + note + ")"
}

// passesFilters evaluates a role's insertion-time filters against one
// entity. Errors count as eval errors and fail the entity.
func (p *plan) passesFilters(d *Detector, slot int, ent event.Entity) bool {
	fs := p.filters[slot]
	if len(fs) == 0 {
		return true
	}
	ents := d.evalEnts
	for i := range ents {
		ents[i] = nil
	}
	ents[slot] = ent
	pass := true
	for _, f := range fs {
		ok, err := f.Eval(ents)
		if err != nil {
			d.evalErrors.Add(1)
			pass = false
			break
		}
		if !ok {
			pass = false
			break
		}
	}
	ents[slot] = nil
	return pass
}

// join runs the indexed window join with the new entity fixed at
// fixedRole and returns the satisfied bindings, ordered exactly as the
// naive enumeration would have produced them (per-role arrival order,
// first spec role slowest).
func (p *plan) join(d *Detector, fixedRole string, ent event.Entity, conf float64) []boundSet {
	for _, g := range p.gates {
		ok, err := g.Eval(nil)
		if err != nil {
			d.evalErrors.Add(1)
			return nil
		}
		if !ok {
			return nil
		}
	}
	fixedSlot, _ := d.slots.Slot(fixedRole)
	rb := d.bufs[fixedSlot]
	// The fixed entity was just inserted; it is the buffer's last entry
	// unless age pruning evicted it again (the naive path still binds it
	// in that case, so re-check its filters directly).
	fixedSeq := rb.nextSeq - 1
	st := p.state(d)
	fixed := &st.fixed
	if n := len(rb.entries); n > 0 && rb.entries[n-1].seq == fixedSeq {
		fixed = &rb.entries[n-1]
	} else {
		st.fixed = entry{ent: ent, conf: conf, seq: fixedSeq, pass: p.passesFilters(d, fixedSlot, ent)}
	}
	if !fixed.pass {
		d.pruned.Add(1)
		return nil
	}
	st.ents[fixedSlot] = ent
	st.bind[fixedSlot] = fixed
	st.bound = 1 << uint(fixedSlot)
	p.orderRoles(d, st, fixedSlot)
	p.step(d, st, 1)
	st.ents[fixedSlot] = nil

	d.probed.Add(st.probedN)
	d.pruned.Add(st.pruned)
	d.evalErrors.Add(st.evalErrs)
	if st.truncated {
		d.truncations.Add(1)
	}
	if len(st.results) > 1 {
		roleSlots := d.roleSlot
		//stcps:ignore hotpath non-escaping comparison closure; sorts only multi-binding emission rounds
		slices.SortFunc(st.results, func(a, b boundSet) int {
			for _, s := range roleSlots {
				if a.seqs[s] != b.seqs[s] {
					return cmp.Compare(a.seqs[s], b.seqs[s])
				}
			}
			return 0
		})
	}
	return st.results
}

// state resets the reusable join state. The slabs are cleared, not just
// truncated, so the bindings of one join do not pin their entities (and
// the wire buffers zero-copy views alias) until a later join happens to
// overwrite them.
func (p *plan) state(d *Detector) *joinState {
	st := &p.st
	if st.ents == nil {
		st.ents = d.evalEnts
		st.bind = make([]*entry, d.slots.Len())    //stcps:ignore hotpath one-time lazy init
		st.probe = make([][]uint64, d.slots.Len()) //stcps:ignore hotpath one-time lazy init
	}
	clear(st.ents)
	clear(st.entSlab)
	clear(st.idSlab)
	clear(st.results)
	st.entSlab, st.idSlab = st.entSlab[:0], st.idSlab[:0]
	st.seqSlab, st.confSlab = st.seqSlab[:0], st.confSlab[:0]
	st.results = st.results[:0]
	st.fixed = entry{}
	st.bound = 0
	st.probedN, st.pruned, st.evalErrs = 0, 0, 0
	st.truncated = false
	return st
}

// orderRoles picks the join order: the fixed role first, then greedily
// the role with an index probe against the already-ordered set (ties and
// unconstrained roles by smallest passing window) — the selectivity
// heuristic.
func (p *plan) orderRoles(d *Detector, st *joinState, fixedSlot int) {
	st.order = append(st.order[:0], fixedSlot)
	st.rem = st.rem[:0]
	for s := range d.bufs {
		if s != fixedSlot {
			st.rem = append(st.rem, s)
		}
	}
	mask := uint64(1) << uint(fixedSlot)
	for len(st.rem) > 0 {
		best, bestConn, bestCount := -1, false, 0
		for i, s := range st.rem {
			conn := p.connectedTo(s, mask)
			cnt := d.bufs[s].passing
			if best < 0 || (conn && !bestConn) || (conn == bestConn && cnt < bestCount) {
				best, bestConn, bestCount = i, conn, cnt
			}
		}
		s := st.rem[best]
		st.order = append(st.order, s)
		mask |= 1 << uint(s)
		st.rem = append(st.rem[:best], st.rem[best+1:]...)
	}
}

// connectedTo reports whether a slot has a temporal or spatial link into
// the bound set.
func (p *plan) connectedTo(s int, bound uint64) bool {
	for i := range p.temporal {
		tp := &p.temporal[i]
		if (tp.slotL == s && bound&(1<<uint(tp.slotR)) != 0) ||
			(tp.slotR == s && bound&(1<<uint(tp.slotL)) != 0) {
			return true
		}
	}
	for i := range p.spatial {
		sp := &p.spatial[i]
		if (sp.slotL == s && bound&(1<<uint(sp.slotR)) != 0) ||
			(sp.slotR == s && bound&(1<<uint(sp.slotL)) != 0) {
			return true
		}
	}
	return false
}

// step extends the partial binding with candidates for the next role in
// join order, probing the cheapest applicable window index.
func (p *plan) step(d *Detector, st *joinState, depth int) {
	if st.truncated {
		return
	}
	if depth == len(st.order) {
		// A satisfied binding: every slot is bound (the planner requires
		// one slot per role). Only now are the entity ids needed. The
		// binding's slices are the slabs' new tails; a slab that grows
		// later leaves them on its old array, intact.
		n, nc := len(st.entSlab), len(st.confSlab)
		st.entSlab = append(st.entSlab, st.ents...)
		for _, e := range st.bind {
			st.idSlab = append(st.idSlab, e.entityID())
			st.seqSlab = append(st.seqSlab, e.seq)
		}
		for _, s := range d.roleSlot {
			st.confSlab = append(st.confSlab, st.bind[s].conf)
		}
		st.results = append(st.results, boundSet{
			ents: st.entSlab[n:], ids: st.idSlab[n:], seqs: st.seqSlab[n:], confs: st.confSlab[nc:], verified: true,
		})
		return
	}
	s := st.order[depth]
	rb := d.bufs[s]
	total := len(rb.entries)
	if total == 0 {
		return
	}

	// Intersect start bounds from every temporal link into the bound set.
	var bounds condition.Bounds
	haveBounds := false
	for i := range p.temporal {
		tp := &p.temporal[i]
		var other int
		switch {
		case tp.slotL == s && st.bound&(1<<uint(tp.slotR)) != 0:
			other = tp.slotR
		case tp.slotR == s && st.bound&(1<<uint(tp.slotL)) != 0:
			other = tp.slotL
		default:
			continue
		}
		b := tp.link.StartBounds(d.slots.Names()[s], st.ents[other].OccTime())
		bounds = bounds.Intersect(b)
		haveBounds = haveBounds || b.HasLo || b.HasHi
	}
	if bounds.Empty() {
		st.pruned += uint64(total)
		return
	}

	timeLo, timeHi := 0, 0
	timeProbe := false
	if rb.indexed && haveBounds {
		timeLo, timeHi = rb.timeRange(bounds)
		timeProbe = true
	}
	gridProbe := false
	if rb.grid != nil {
		for i := range p.spatial {
			sp := &p.spatial[i]
			var other int
			switch {
			case sp.slotL == s && st.bound&(1<<uint(sp.slotR)) != 0:
				other = sp.slotR
			case sp.slotR == s && st.bound&(1<<uint(sp.slotL)) != 0:
				other = sp.slotL
			default:
				continue
			}
			region, ok := probeRegion(st.ents[other].OccLoc(), sp.link.Radius)
			if !ok {
				continue
			}
			if timeProbe && timeHi-timeLo <= rb.grid.EstimateRegion(region) {
				break // the time range is already at least as selective
			}
			st.probe[depth] = rb.grid.QueryRegion(st.probe[depth][:0], region, rb.locOf)
			gridProbe = true
			timeProbe = false
			break
		}
	}

	examined := 0
	switch {
	case gridProbe:
		for _, seq := range st.probe[depth] {
			idx := rb.entryIndex(seq)
			if idx < 0 {
				continue
			}
			examined++
			p.tryCandidate(d, st, depth, s, &rb.entries[idx])
			if st.truncated {
				break
			}
		}
	case timeProbe:
		for i := timeLo; i < timeHi; i++ {
			idx := rb.entryIndex(rb.timeIdx[i].seq)
			if idx < 0 {
				continue
			}
			examined++
			p.tryCandidate(d, st, depth, s, &rb.entries[idx])
			if st.truncated {
				break
			}
		}
	default:
		for i := range rb.entries {
			e := &rb.entries[i]
			if !e.pass {
				continue
			}
			examined++
			p.tryCandidate(d, st, depth, s, e)
			if st.truncated {
				break
			}
		}
	}
	if total > examined {
		st.pruned += uint64(total - examined)
	}
}

// tryCandidate binds one candidate entity, verifies every clause that
// just became fully bound, and recurses on success.
func (p *plan) tryCandidate(d *Detector, st *joinState, depth, s int, e *entry) {
	st.probedN++
	if st.probedN > uint64(d.spec.MaxBindings) {
		st.truncated = true
		return
	}
	bit := uint64(1) << uint(s)
	st.ents[s] = e.ent
	st.bind[s] = e
	st.bound |= bit
	ok := true
	for i := range p.clauses {
		jc := &p.clauses[i]
		if jc.mask&bit == 0 || jc.mask&^st.bound != 0 {
			continue
		}
		v, err := jc.verify.Eval(st.ents)
		if err != nil {
			st.evalErrs++
			ok = false
			break
		}
		if !v {
			ok = false
			break
		}
	}
	if ok {
		p.step(d, st, depth+1)
	}
	st.bound &^= bit
	st.ents[s] = nil
}

// probeRegion returns the grid query region covering every location
// within radius of loc: the location's bounding box inflated by the
// radius (plus a hair, so boundary candidates survive float fuzz).
// Candidates are still verified exactly against the clause.
func probeRegion(loc spatial.Location, radius float64) (spatial.Location, bool) {
	if radius < 0 {
		radius = 0
	}
	minX, minY, maxX, maxY := loc.Bounds()
	r := radius + 1e-3
	region, err := spatial.RectLocation(minX-r, minY-r, maxX+r, maxY+r)
	return region, err == nil
}
