package detect

import (
	"fmt"
	"sort"
	"sync/atomic"

	"github.com/stcps/stcps/internal/condition"
	"github.com/stcps/stcps/internal/event"
	"github.com/stcps/stcps/internal/spatial"
	"github.com/stcps/stcps/internal/timemodel"
)

// entry is a buffered input entity with its carried confidence, its
// arrival sequence within the role buffer, and whether it passed the
// role's insertion-time filters (always true without a plan).
type entry struct {
	ent  event.Entity
	conf float64
	seq  uint64
	pass bool
	id   string // ent.EntityID(), rendered by entityID on first use
}

// entityID returns the entity's id, rendering it at most once per window
// entry: a binding's dedup key and an instance's Inputs both need it,
// once per satisfied binding the entry takes part in.
func (e *entry) entityID() string {
	if e.id == "" {
		e.id = e.ent.EntityID()
	}
	return e.id
}

// timeKey is one time-index slot: a buffered entry keyed by its
// occurrence start.
type timeKey struct {
	start timemodel.Tick
	seq   uint64
}

// roleBuf is one role's retention window. minEnd is a lower bound on the
// earliest occurrence end among the entries: age pruning can be skipped
// whenever now-minEnd is within MaxAge, because then no entry can have
// expired. Window evictions leave minEnd stale (still a valid lower
// bound); each real prune scan recomputes it exactly.
//
// Under a plan the buffer additionally maintains the planner's window
// indexes over the entries that passed the role's insertion-time
// filters: a time-sorted index (when the role is the target of a
// temporal probe) and a spatial grid (when it is the target of a
// spatial probe).
type roleBuf struct {
	entries []entry
	minEnd  timemodel.Tick
	nextSeq uint64

	slot    int
	passing int       // entries with pass == true
	indexed bool      // maintain timeIdx
	timeIdx []timeKey // passing entries sorted by (start, seq)
	grid    *spatial.Grid
	locOf   func(seq uint64) spatial.Location // the grid's resolver, rb.locAt
}

// prune evicts age-expired entries and recomputes the exact minEnd.
func (rb *roleBuf) prune(now, maxAge timemodel.Tick) {
	keep := rb.entries[:0]
	first := true
	var min timemodel.Tick
	for i := range rb.entries {
		e := &rb.entries[i]
		end := e.ent.OccTime().End()
		if now-end <= maxAge {
			if first || end < min {
				min = end
				first = false
			}
			keep = append(keep, *e)
		} else {
			rb.unindex(e)
		}
	}
	clear(rb.entries[len(keep):]) // release the evicted entities
	rb.entries = keep
	rb.minEnd = min
}

// index registers a passing entry in the planner indexes.
func (rb *roleBuf) index(e *entry) {
	if !e.pass {
		return
	}
	rb.passing++
	if rb.indexed {
		rb.timeIdxInsert(e.ent.OccTime().Start(), e.seq)
	}
	if rb.grid != nil {
		rb.grid.Insert(e.seq, e.ent.OccLoc())
	}
}

// unindex removes an evicted entry from the planner indexes.
func (rb *roleBuf) unindex(e *entry) {
	if !e.pass {
		return
	}
	rb.passing--
	if rb.indexed {
		rb.timeIdxRemove(e.ent.OccTime().Start(), e.seq)
	}
	if rb.grid != nil {
		rb.grid.Remove(e.seq, e.ent.OccLoc())
	}
}

// locAt resolves a grid key, an indexed entry's arrival seq, to the
// entry's occurrence location.
func (rb *roleBuf) locAt(seq uint64) spatial.Location {
	return rb.entries[rb.entryIndex(seq)].ent.OccLoc()
}

// timeIdxSearch returns the first index whose key is >= (start, seq).
func (rb *roleBuf) timeIdxSearch(start timemodel.Tick, seq uint64) int {
	//stcps:ignore hotpath non-escaping sort.Search closure
	return sort.Search(len(rb.timeIdx), func(i int) bool {
		k := rb.timeIdx[i]
		return k.start > start || (k.start == start && k.seq >= seq)
	})
}

func (rb *roleBuf) timeIdxInsert(start timemodel.Tick, seq uint64) {
	i := rb.timeIdxSearch(start, seq)
	rb.timeIdx = append(rb.timeIdx, timeKey{})
	copy(rb.timeIdx[i+1:], rb.timeIdx[i:])
	rb.timeIdx[i] = timeKey{start: start, seq: seq}
}

func (rb *roleBuf) timeIdxRemove(start timemodel.Tick, seq uint64) {
	i := rb.timeIdxSearch(start, seq)
	if i < len(rb.timeIdx) && rb.timeIdx[i].seq == seq {
		rb.timeIdx = append(rb.timeIdx[:i], rb.timeIdx[i+1:]...)
	}
}

// timeRange returns the timeIdx index range [lo, hi) whose starts fall
// within the bounds.
func (rb *roleBuf) timeRange(b condition.Bounds) (int, int) {
	lo := 0
	if b.HasLo {
		lo = rb.timeIdxSearch(b.Lo, 0)
	}
	hi := len(rb.timeIdx)
	if b.HasHi {
		//stcps:ignore hotpath non-escaping sort.Search closure
		hi = sort.Search(len(rb.timeIdx), func(i int) bool {
			return rb.timeIdx[i].start > b.Hi
		})
	}
	if hi < lo {
		hi = lo
	}
	return lo, hi
}

// entryIndex finds the position of an entry by its arrival seq (entries
// are sorted by seq: evictions preserve arrival order). Returns -1 when
// the entry is gone.
func (rb *roleBuf) entryIndex(seq uint64) int {
	//stcps:ignore hotpath non-escaping sort.Search closure
	i := sort.Search(len(rb.entries), func(i int) bool { return rb.entries[i].seq >= seq })
	if i < len(rb.entries) && rb.entries[i].seq == seq {
		return i
	}
	return -1
}

// Stats counts a detector's evaluation work. All counters are safe to
// read while the detector runs (e.g. from a stats endpoint).
type Stats struct {
	// Probed counts candidate bindings (full bindings on the enumerate
	// path, partial binding extensions on the planned path) examined.
	Probed uint64
	// Pruned counts window entries skipped without evaluation, via
	// insertion-time filters or index probes. Zero on the enumerate path.
	Pruned uint64
	// Truncations counts evaluation rounds cut short by MaxBindings,
	// each losing an unknown number of candidate bindings.
	Truncations uint64
	// EvalErrors counts failed evaluations (unbound roles, missing
	// attributes); failed bindings count as unsatisfied.
	EvalErrors uint64
}

// Detector evaluates one event's conditions at one observer. It is not
// safe for concurrent use; each observer owns its detectors and offers
// entities from the simulation goroutine. The Stats counters may be read
// concurrently.
type Detector struct {
	spec     Spec
	observer string
	bySource map[string][]int // source -> indexes into spec.Roles
	seq      uint64
	emitted  map[string]struct{}

	// Compiled-binding machinery: roles are resolved to integer slots at
	// construction, the condition is compiled against them, and the
	// planner (when the condition decomposes) replaces cross-product
	// enumeration with indexed window joins.
	slots       *condition.SlotMap
	roleSlot    []int      // spec.Roles index -> slot
	bufs        []*roleBuf // slot -> buffer
	sortedSlots []int      // slots ordered by role name
	compiled    *condition.Compiled
	plan        *plan
	planNote    string         // why the planner is off
	evalEnts    []event.Entity // scratch slot binding
	confScratch []float64
	roleScratch []string           // scratch fed-role names for Offer
	keyScratch  []byte             // scratch binding dedup key
	timeScratch []timemodel.Time   // emit's input occurrence times
	locScratch  []spatial.Location // emit's input occurrence locations
	out         []event.Instance   // the instances of the current Offer/Flush

	probed      atomic.Uint64
	pruned      atomic.Uint64
	truncations atomic.Uint64
	evalErrors  atomic.Uint64

	// Interval-mode state machine.
	open      bool
	openStart timemodel.Tick
	lastTrue  timemodel.Tick
	openEnts  []event.Entity
	openConfs []float64
}

// New builds a detector for observer observerID from a spec. The spec is
// validated and defaults are filled.
func New(observerID string, spec Spec) (*Detector, error) {
	if observerID == "" {
		return nil, fmt.Errorf("missing observer id: %w", ErrBadSpec)
	}
	if err := spec.normalize(); err != nil {
		return nil, err
	}
	d := &Detector{
		spec:     spec,
		observer: observerID,
		bySource: make(map[string][]int),
		emitted:  make(map[string]struct{}),
	}
	roleNames := make([]string, len(spec.Roles))
	for i, r := range spec.Roles {
		roleNames[i] = r.Name
	}
	d.slots = condition.NewSlotMap(roleNames)
	d.roleSlot = make([]int, len(spec.Roles))
	d.bufs = make([]*roleBuf, d.slots.Len())
	for i, r := range spec.Roles {
		d.bySource[r.Source] = append(d.bySource[r.Source], i)
		slot, _ := d.slots.Slot(r.Name)
		d.roleSlot[i] = slot
		if d.bufs[slot] == nil {
			d.bufs[slot] = &roleBuf{slot: slot}
		}
	}
	sorted := append([]string(nil), d.slots.Names()...)
	sort.Strings(sorted)
	d.sortedSlots = make([]int, len(sorted))
	for i, name := range sorted {
		d.sortedSlots[i], _ = d.slots.Slot(name)
	}
	d.evalEnts = make([]event.Entity, d.slots.Len())
	d.confScratch = make([]float64, 0, len(spec.Roles))
	d.roleScratch = make([]string, 0, len(spec.Roles))
	c, err := condition.Compile(spec.Cond, d.slots)
	if err != nil {
		return nil, fmt.Errorf("condition does not compile: %w: %w", ErrBadSpec, err)
	}
	d.compiled = c
	d.buildPlan()
	return d, nil
}

// EventID returns the detected event identifier.
func (d *Detector) EventID() string { return d.spec.EventID }

// SeedSeq raises the instance sequence counter to at least min, so the
// next emission gets Seq min+1. Crash recovery uses it to continue the
// numbering of instances already on durable storage instead of reissuing
// their entity ids to new detections. Call it only while no Offer is in
// flight (e.g. before live traffic starts).
func (d *Detector) SeedSeq(min uint64) {
	if min > d.seq {
		d.seq = min
	}
}

// Sources returns the distinct input stream keys the detector consumes,
// sorted.
func (d *Detector) Sources() []string {
	out := make([]string, 0, len(d.bySource))
	for s := range d.bySource {
		out = append(out, s)
	}
	sort.Strings(out)
	return out
}

// Stats returns the detector's evaluation counters.
func (d *Detector) Stats() Stats {
	return Stats{
		Probed:      d.probed.Load(),
		Pruned:      d.pruned.Load(),
		Truncations: d.truncations.Load(),
		EvalErrors:  d.evalErrors.Load(),
	}
}

// Planned reports whether the detector runs the indexed-join planner
// (false: naive enumeration or interval state machine).
func (d *Detector) Planned() bool { return d.plan != nil }

// Offer feeds one entity from an input stream into the detector and
// returns any instances generated at virtual time now. genLoc is the
// observer's own location l^g. conf is the entity's carried confidence
// (1 for raw observations, the instance's ρ otherwise). The returned
// slice is the detector's own buffer, valid until its next Offer or
// Flush; the instances in it are self-contained and may be copied out.
//
//stcps:hotpath
func (d *Detector) Offer(source string, ent event.Entity, conf float64, now timemodel.Tick, genLoc spatial.Location) []event.Instance {
	roleIdxs, ok := d.bySource[source]
	if !ok {
		return nil
	}
	d.pruneAll(now)
	fedRoles := d.roleScratch[:0]
	for _, i := range roleIdxs {
		d.insert(i, ent, conf, now)
		fedRoles = append(fedRoles, d.spec.Roles[i].Name)
	}
	d.roleScratch = fedRoles
	if d.spec.Mode == ModeInterval {
		return d.stepInterval(now, genLoc)
	}
	return d.stepPunctual(fedRoles, ent, conf, now, genLoc)
}

// pruneAll evicts age-expired entities from every role buffer, so MaxAge
// bounds bindings regardless of which role receives traffic. Buffers
// whose earliest-expiry bound proves nothing expired are skipped in O(1),
// keeping the Offer hot path O(roles) instead of O(roles×window).
func (d *Detector) pruneAll(now timemodel.Tick) {
	for i := range d.spec.Roles {
		r := &d.spec.Roles[i]
		if r.MaxAge <= 0 {
			continue
		}
		rb := d.bufs[d.roleSlot[i]]
		if len(rb.entries) == 0 || now-rb.minEnd <= r.MaxAge {
			continue
		}
		rb.prune(now, r.MaxAge)
	}
}

// Flush closes an open interval at virtual time now, emitting its
// instance. Punctual detectors never need flushing. The returned slice
// is the detector's own buffer, like Offer's.
func (d *Detector) Flush(now timemodel.Tick, genLoc spatial.Location) []event.Instance {
	if d.spec.Mode != ModeInterval || !d.open {
		return nil
	}
	return d.closeInterval(now, genLoc)
}

// insert adds the entity to the role buffer, evicting by window size and
// age. Under a plan, the role's single-role filters run here — once per
// entity instead of once per binding — and failing entries are excluded
// from the window indexes (they still occupy window slots, preserving
// the naive path's eviction behavior).
func (d *Detector) insert(role int, ent event.Entity, conf float64, now timemodel.Tick) {
	r, rb := &d.spec.Roles[role], d.bufs[d.roleSlot[role]]
	e := entry{ent: ent, conf: conf, seq: rb.nextSeq, pass: true}
	rb.nextSeq++
	if d.plan != nil {
		e.pass = d.plan.passesFilters(d, rb.slot, ent)
	}
	end := ent.OccTime().End()
	if len(rb.entries) == 0 || end < rb.minEnd {
		rb.minEnd = end
	}
	rb.entries = append(rb.entries, e)
	rb.index(&e)
	if r.MaxAge > 0 && now-rb.minEnd > r.MaxAge {
		rb.prune(now, r.MaxAge)
	}
	if over := len(rb.entries) - r.Window; over > 0 {
		for i := range rb.entries[:over] {
			rb.unindex(&rb.entries[i])
		}
		clear(rb.entries[:over]) // release the evicted entities
		rb.entries = rb.entries[over:]
	}
}

// stepPunctual finds bindings that include the new entity — through the
// planned indexed join when available, the naive enumeration otherwise —
// and emits an instance for each satisfied, not-yet-emitted binding.
func (d *Detector) stepPunctual(fedRoles []string, ent event.Entity, conf float64, now timemodel.Tick, genLoc spatial.Location) []event.Instance {
	d.out = d.out[:0]
	for _, fixedRole := range fedRoles {
		var bindings []boundSet
		if d.plan != nil {
			bindings = d.plan.join(d, fixedRole, ent, conf)
		} else {
			bindings = d.enumerate(fixedRole, ent, conf)
			d.probed.Add(uint64(len(bindings)))
		}
		for i := range bindings {
			b := &bindings[i]
			key := d.bindingKey(b)
			if _, dup := d.emitted[string(key)]; dup { //stcps:ignore hotpath map-lookup conversion does not allocate (compiler-recognized)
				continue
			}
			if !b.verified {
				ok, err := d.compiled.Eval(b.ents)
				if err != nil {
					d.evalErrors.Add(1)
					continue
				}
				if !ok {
					continue
				}
			}
			if len(d.emitted) >= 4*d.spec.MaxBindings {
				// Bound memory: drop dedup history (old bindings have
				// rolled out of the windows anyway).
				clear(d.emitted)
			}
			d.emitted[string(key)] = struct{}{} //stcps:ignore hotpath one dedup key per emitted instance
			d.emit(b, now, genLoc)
		}
	}
	return d.out
}

// boundSet is a candidate binding: slot-indexed entities and their
// entity ids, plus the carried confidences in spec-role order. verified
// marks bindings whose clauses the planner already checked; seqs carries
// per-slot arrival sequences for output ordering.
type boundSet struct {
	ents     []event.Entity
	ids      []string
	confs    []float64
	seqs     []uint64
	verified bool
}

// enumerate produces bindings over the role windows with the new entity
// fixed at fixedRole, capped at MaxBindings. Hitting the cap counts a
// truncation and stops the enumeration round.
//
// The naive path allocates per candidate binding by design; the planner
// exists to replace it on decomposable conditions.
//
//stcps:coldpath
func (d *Detector) enumerate(fixedRole string, fixed event.Entity, fixedConf float64) []boundSet {
	nslots := d.slots.Len()
	out := []boundSet{{}}
	truncated := false
	for i, r := range d.spec.Roles {
		slot := d.roleSlot[i]
		var choices []entry
		if r.Name == fixedRole {
			choices = []entry{{ent: fixed, conf: fixedConf}}
		} else {
			choices = d.bufs[slot].entries
		}
		if len(choices) == 0 {
			return nil // a role with no entities: no complete binding
		}
		next := make([]boundSet, 0, min(len(out)*len(choices), d.spec.MaxBindings))
	fill:
		for _, base := range out {
			for j := range choices {
				c := &choices[j]
				if len(next) >= d.spec.MaxBindings {
					truncated = true
					break fill
				}
				nb := make([]event.Entity, nslots)
				copy(nb, base.ents)
				nb[slot] = c.ent
				ids := make([]string, nslots)
				copy(ids, base.ids)
				ids[slot] = c.entityID()
				confs := append(append(make([]float64, 0, len(base.confs)+1), base.confs...), c.conf)
				next = append(next, boundSet{ents: nb, ids: ids, confs: confs})
			}
		}
		out = next
	}
	if truncated {
		d.truncations.Add(1)
	}
	return out
}

// stepInterval re-evaluates the latest-per-role binding and advances the
// open/close state machine.
func (d *Detector) stepInterval(now timemodel.Tick, genLoc spatial.Location) []event.Instance {
	ents := d.evalEnts
	for i := range ents {
		ents[i] = nil
	}
	confs := d.confScratch[:0]
	for _, slot := range d.roleSlot {
		buf := d.bufs[slot].entries
		if len(buf) == 0 {
			return d.fallIfOpen(now, genLoc)
		}
		latest := &buf[len(buf)-1]
		ents[slot] = latest.ent
		confs = append(confs, latest.conf)
	}
	d.confScratch = confs
	d.probed.Add(1)
	ok, err := d.compiled.Eval(ents)
	if err != nil {
		d.evalErrors.Add(1)
		ok = false
	}
	switch {
	case ok && !d.open:
		d.open = true
		d.openStart = now
		d.lastTrue = now
		d.openEnts = append(d.openEnts[:0], ents...)
		d.openConfs = append(d.openConfs[:0], confs...)
		return nil
	case ok && d.open:
		d.lastTrue = now
		d.openEnts = append(d.openEnts[:0], ents...)
		d.openConfs = append(d.openConfs[:0], confs...)
		return nil
	case !ok && d.open:
		return d.closeInterval(now, genLoc)
	default:
		return nil
	}
}

func (d *Detector) fallIfOpen(now timemodel.Tick, genLoc spatial.Location) []event.Instance {
	if !d.open {
		return nil
	}
	return d.closeInterval(now, genLoc)
}

// closeInterval emits the interval instance for the open state.
//
//stcps:coldpath
func (d *Detector) closeInterval(now timemodel.Tick, genLoc spatial.Location) []event.Instance {
	d.open = false
	occ, err := timemodel.Between(d.openStart, d.lastTrue)
	if err != nil {
		occ = timemodel.At(d.lastTrue)
	}
	ids := make([]string, len(d.openEnts))
	for s, ent := range d.openEnts {
		if ent != nil {
			ids[s] = ent.EntityID()
		}
	}
	d.out = d.out[:0]
	d.emit(&boundSet{ents: d.openEnts, ids: ids, confs: d.openConfs}, now, genLoc).Occ = occ
	return d.out
}

// emit assembles an instance from a satisfied binding, appends it to
// d.out and returns it there. Emission allocates by design — the
// instance's Inputs and Attrs are its own — but only those: the input
// ids come rendered with the binding and the estimate inputs go through
// reused scratch.
//
//stcps:coldpath
func (d *Detector) emit(b *boundSet, now timemodel.Tick, genLoc spatial.Location) *event.Instance {
	d.seq++
	n := 0
	for _, s := range d.sortedSlots {
		if b.ents[s] != nil {
			n++
		}
	}
	ids := make([]string, 0, n)
	times := d.timeScratch[:0]
	locs := d.locScratch[:0]
	for _, s := range d.sortedSlots {
		ent := b.ents[s]
		if ent == nil {
			continue
		}
		ids = append(ids, b.ids[s])
		times = append(times, ent.OccTime())
		locs = append(locs, ent.OccLoc())
	}
	d.timeScratch, d.locScratch = times, locs

	conf := d.spec.Confidence.Combine(b.confs) * d.spec.BaseConfidence
	if conf > 1 {
		conf = 1
	}
	d.out = append(d.out, event.Instance{
		Layer:      d.spec.Layer,
		Observer:   d.observer,
		Event:      d.spec.EventID,
		Seq:        d.seq,
		Gen:        now,
		GenLoc:     genLoc,
		Occ:        d.estimateTime(times),
		Loc:        d.estimateLoc(locs),
		Attrs:      mergeAttrs(b.ents, d.sortedSlots),
		Confidence: conf,
		Inputs:     ids,
	})
	return &d.out[len(d.out)-1]
}

func (d *Detector) estimateTime(times []timemodel.Time) timemodel.Time {
	if len(times) == 0 {
		return timemodel.Time{}
	}
	var (
		out timemodel.Time
		err error
	)
	switch d.spec.TimeEst {
	case EstimateEarliest:
		out, err = timemodel.Earliest(times)
	case EstimateLatest:
		out, err = timemodel.Latest(times)
	default:
		out, err = timemodel.Span(times)
	}
	if err != nil {
		return timemodel.Time{}
	}
	return out
}

func (d *Detector) estimateLoc(locs []spatial.Location) spatial.Location {
	if len(locs) == 0 {
		return spatial.Location{}
	}
	switch d.spec.LocEst {
	case EstimateFirst:
		return locs[0]
	case EstimateHull:
		if hl, err := spatial.Hull(locs); err == nil {
			return hl
		}
		fallthrough
	default:
		cl, err := spatial.Centroid(locs)
		if err != nil {
			return locs[0]
		}
		return cl
	}
}

// mergeAttrs averages each attribute across the bound entities exposing
// it — the observer's estimate of the event attributes V. Entities are
// visited in sorted-role order.
func mergeAttrs(ents []event.Entity, sortedSlots []int) event.Attrs {
	sums := make(map[string]float64)
	counts := make(map[string]int)
	for _, s := range sortedSlots {
		ent := ents[s]
		if ent == nil {
			continue
		}
		// Entities expose attributes only by name lookup; pull the known
		// names via the typed structs.
		switch v := ent.(type) {
		case event.Observation:
			for k, val := range v.Attrs {
				sums[k] += val
				counts[k]++
			}
		case event.Instance:
			for k, val := range v.Attrs {
				sums[k] += val
				counts[k]++
			}
		case event.PhysicalEvent:
			for k, val := range v.Attrs {
				sums[k] += val
				counts[k]++
			}
		}
	}
	if len(sums) == 0 {
		return nil
	}
	out := make(event.Attrs, len(sums))
	for k, s := range sums {
		out[k] = s / float64(counts[k])
	}
	return out
}

// bindingKey builds a stable dedup key for a binding into the detector's
// key scratch: role=entityID pairs in sorted-role order. The result is
// valid until the next call.
func (d *Detector) bindingKey(b *boundSet) []byte {
	key := d.keyScratch[:0]
	names := d.slots.Names()
	for _, s := range d.sortedSlots {
		if b.ents[s] == nil {
			continue
		}
		if len(key) > 0 {
			key = append(key, '|')
		}
		key = append(key, names[s]...)
		key = append(key, '=')
		key = append(key, b.ids[s]...)
	}
	d.keyScratch = key
	return key
}
