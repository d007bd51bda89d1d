// Package db implements the Database Server of the CPS architecture
// (Tan, Vuran, Goddard, ICDCSW 2009, Section 3): "a distributed data
// logging service for the event instances. The event instances that
// circulate inside the CPS network are automatically transferred to the
// database server after a certain time for later retrieval."
//
// The store indexes instances three ways: an append log, a per-event
// time-ordered index (binary searched for range queries), and a uniform
// spatial grid over the estimated occurrence locations (for region
// queries). Instances are addressed by a monotonic global sequence
// number (the grid is keyed by it), so a retention policy (Retention)
// can evict from the front of the log while every index stays
// consistent. QueryST serves combined
// region×time retrieval, choosing the cheaper index from cardinality
// estimates. A linear-scan query path (ScanTime, ScanRegion) is kept
// alongside the indexes as the unindexed oracle the tests check them
// against.
//
// # Read/write plane split
//
// The log is stored as fixed-size immutable chunks behind an atomically
// published view, so reads do not contend with writes: a writer fills
// chunk slots above the frontier while holding mu, then publishes a new
// view (chunk directory + base + frontier) with one atomic pointer
// store. Readers load the view once and resolve seq→instance without
// any lock — an instance below the observed frontier is immutable for
// the lifetime of the view. Only the index structures (byEvent,
// byEntity, grid, obs) still require mu, and query probes against them
// are short critical sections that copy candidate sequence numbers out;
// predicate verification and result materialization run off-lock
// against the view. See docs/storage.md for the full invariants.
package db

import (
	"errors"
	"fmt"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"

	"github.com/stcps/stcps/internal/event"
	"github.com/stcps/stcps/internal/segment"
	"github.com/stcps/stcps/internal/spatial"
	"github.com/stcps/stcps/internal/timemodel"
)

// ErrNotFound is returned when an entity id cannot be resolved.
var ErrNotFound = errors.New("db: not found")

// Chunk geometry: the log is split into fixed runs of 4096 instances.
// chunkSize is a power of two and chunk boundaries stay aligned to it
// (firstSeq is always a multiple of chunkSize), so a sequence number
// resolves with a shift and a mask.
const (
	chunkBits = 12
	chunkSize = 1 << chunkBits
	chunkMask = chunkSize - 1
)

// chunk is one fixed-size run of the instance log. Slots below the
// published frontier are immutable until the whole chunk is retired;
// slots at or above it are owned by the writer.
type chunk struct {
	data [chunkSize]event.Instance
}

// view is one atomically published snapshot of the read plane. A single
// atomic load yields a mutually consistent (chunks, firstSeq, base,
// frontier) tuple: the writer publishes a fresh view after every
// mutation, and the atomic pointer store orders all chunk-slot writes
// before the publication (release/acquire). Views are immutable; the
// chunks they reference outlive them, so a reader may keep resolving
// sequence numbers from a stale view after eviction has moved on.
type view struct {
	// chunks[i] holds sequence numbers [firstSeq+i*chunkSize,
	// firstSeq+(i+1)*chunkSize).
	chunks []*chunk
	// firstSeq is the sequence number of chunks[0]'s slot 0 — always a
	// multiple of chunkSize. After a cold attach it may sit below
	// spilled: the slots in [firstSeq, spilled) are phantom (their
	// history lives in segments) and are never resolved.
	firstSeq uint64
	// base is the oldest live sequence number; seqs in [firstSeq, base)
	// are evicted but not yet retired with their chunk.
	base uint64
	// frontier is the next sequence number to be assigned; live
	// instances occupy [base, frontier).
	frontier uint64
	// spilled marks the cold/chunk boundary of the unified cursor
	// space: seqs below it resolve through cold's segments, seqs in
	// [spilled, frontier) through the chunks. firstSeq <= spilled <=
	// base always. Without a cold tier it tracks firstSeq.
	spilled uint64
	// cold is the attached segment directory; nil when the store is
	// RAM-only. Immutable once attached, so readers use it without mu.
	cold *segment.Dir
}

// at resolves a sequence number in [firstSeq, frontier) to its
// instance. Lock-free: the slot is immutable below the view's frontier.
//
//stcps:hotpath
func (v *view) at(seq uint64) *event.Instance {
	return &v.chunks[(seq-v.firstSeq)>>chunkBits].data[seq&chunkMask]
}

// live is the number of live instances in the view.
//
//stcps:hotpath
func (v *view) live() int { return int(v.frontier - v.base) }

// Retention bounds the store's memory. The zero value retains
// everything.
type Retention struct {
	// MaxInstances caps the number of live instances; the oldest
	// arrivals are evicted first (0 = unlimited).
	MaxInstances int
	// MaxAge evicts instances whose generation time has fallen more
	// than MaxAge ticks behind the newest logged generation time
	// (0 = unlimited).
	MaxAge timemodel.Tick
}

// Stats summarizes the store's contents for monitoring endpoints.
type Stats struct {
	// Instances is the live instance count.
	Instances int `json:"instances"`
	// Observations is the logged raw-observation count.
	Observations int `json:"observations"`
	// Events is the number of distinct event ids with live instances.
	Events int `json:"events"`
	// Evicted counts instances dropped by the retention policy.
	Evicted uint64 `json:"evicted"`
	// MaxGen is the newest generation time logged (the retention clock).
	MaxGen timemodel.Tick `json:"maxGen"`
	// Chunks is the length of the published chunk directory.
	Chunks int `json:"chunks"`
	// StaleIndexEntries counts evicted sequence numbers still present in
	// the time index, awaiting the next amortized compaction sweep.
	StaleIndexEntries int `json:"staleIndexEntries"`
	// Reads counts QueryST pages served from the lock-free read plane.
	Reads uint64 `json:"reads"`
	// ReadLocks counts short index-probe lock acquisitions taken by
	// those reads — at most one per page, zero on the sequential path.
	ReadLocks uint64 `json:"readLocks"`
	// Materialized counts instances copied out of the immutable chunks
	// without holding any lock.
	Materialized uint64 `json:"materialized"`
	// SpilledSeq is the cold/chunk boundary of the unified cursor
	// space: history below it lives in on-disk segments.
	SpilledSeq uint64 `json:"spilledSeq"`
	// ColdReads counts QueryST pages that consulted the cold tier.
	ColdReads uint64 `json:"coldReads"`
	// SpillErrs counts failed spill attempts. A failed spill is retried
	// at the next compaction; until it succeeds the affected chunks
	// stay resident, so memory grows but no history is lost.
	SpillErrs uint64 `json:"spillErrs"`
	// Cold is the attached segment directory's accounting; nil when the
	// store is RAM-only.
	Cold *segment.Stats `json:"cold,omitempty"`
}

// Store is the event-instance database. It is safe for concurrent use.
//
// Live instances are addressed by a global sequence number and stored
// in immutable fixed-size chunks published through an atomic view (see
// the package comment). Eviction advances base, so sequence numbers
// (and query cursors built from them) stay valid across evictions — an
// evicted instance simply stops resolving. mu guards the write plane
// and the index structures; the published view is read without it.
type Store struct {
	mu sync.RWMutex
	// pub is the atomically published read plane. The writer stores a
	// fresh view after every mutation while holding mu; readers load it
	// without any lock.
	pub atomic.Pointer[view]

	// Write plane: the canonical (newest) copies of the view fields.
	chunks   []*chunk //stcps:guardedby mu -- canonical chunk directory
	firstSeq uint64   //stcps:guardedby mu -- seq of chunks[0] slot 0
	base     uint64   //stcps:guardedby mu -- oldest live seq
	frontier uint64   //stcps:guardedby mu -- next seq to assign

	// Cold tier: evicted history spilled to immutable on-disk segments
	// at chunk retirement. spilled is the write-plane copy of the view
	// field; cold is set once by AttachCold before concurrent use.
	cold    *segment.Dir //stcps:guardedby mu -- write side; readers use the view's copy
	spilled uint64       //stcps:guardedby mu

	byEvent  map[string][]uint64               //stcps:guardedby mu -- event id -> seqs, Occ.Start-ordered, may contain stale (< base) entries
	liveEv   map[string]int                    //stcps:guardedby mu -- event id -> live instance count
	byEntity map[entityKey]uint64              //stcps:guardedby mu -- entity -> seq (live only)
	sources  map[string]uint32                 //stcps:guardedby mu -- interned "observer,event" -> source id, grow-only
	srcBuf   []byte                            //stcps:guardedby mu -- scratch for rendering a source as a transient sources key
	grid     *spatial.Grid                     //stcps:guardedby mu -- keyed by seq, resolved through locOf
	locOf    func(seq uint64) spatial.Location // the grid's resolver, s.locAt
	obs      map[string]event.Observation      //stcps:guardedby mu -- logged observations by id
	ret      Retention
	evicted  uint64 //stcps:guardedby mu
	// stale counts byEvent entries pointing below base: eviction only
	// counts them, and a periodic compaction sweep reclaims them in
	// bulk — amortized O(1) per evicted instance.
	stale  int            //stcps:guardedby mu
	maxGen timemodel.Tick //stcps:guardedby mu
	// maxDur is the longest occurrence duration ever logged per event —
	// the window lower bound for the time index: every instance
	// intersecting [from, to] has Occ.Start >= from-maxDur. Grow-only
	// (eviction leaves it as a safe over-approximation).
	maxDur map[string]timemodel.Tick //stcps:guardedby mu

	// Read-path counters (atomic: bumped by lock-free readers).
	reads        atomic.Uint64
	readLocks    atomic.Uint64
	materialized atomic.Uint64
	coldReads    atomic.Uint64
	spillErrs    atomic.Uint64
}

// entityKey is an instance's byEntity key: its interned source and its
// instance Seq. Two instances share a key exactly when their entity ids
// E(observer,event,seq) are equal strings, because the source interns
// the id's "observer,event" text. The key holds no pointer, so the GC
// does not scan the map.
type entityKey struct {
	src uint32
	seq uint64
}

// DefaultGridCell is the spatial index cell size.
const DefaultGridCell = 16.0

// New creates an empty store. cellSize <= 0 selects DefaultGridCell.
func New(cellSize float64) (*Store, error) {
	if cellSize <= 0 {
		cellSize = DefaultGridCell
	}
	g, err := spatial.NewGrid(cellSize)
	if err != nil {
		return nil, fmt.Errorf("db: %w", err)
	}
	s := &Store{
		byEvent:  make(map[string][]uint64),
		liveEv:   make(map[string]int),
		byEntity: make(map[entityKey]uint64),
		sources:  make(map[string]uint32),
		grid:     g,
		obs:      make(map[string]event.Observation),
		maxDur:   make(map[string]timemodel.Tick),
	}
	s.locOf = s.locAt
	s.pub.Store(&view{})
	return s, nil
}

// loadView returns the current published read plane. Lock-free; under
// mu (either mode) it is exact, elsewhere it may trail the write plane
// by in-flight mutations.
//
//stcps:hotpath
func (s *Store) loadView() *view { return s.pub.Load() }

// publishLocked publishes the write plane as the new read plane. Every
// mutation of chunks/base/frontier must publish before releasing mu.
//
//stcps:holds mu
func (s *Store) publishLocked() {
	s.pub.Store(&view{
		chunks: s.chunks, firstSeq: s.firstSeq, base: s.base, frontier: s.frontier,
		spilled: s.spilled, cold: s.cold,
	})
}

// at resolves a sequence number in [firstSeq, frontier) against the
// write plane.
//
//stcps:holds mu
func (s *Store) at(seq uint64) *event.Instance {
	return &s.chunks[(seq-s.firstSeq)>>chunkBits].data[seq&chunkMask]
}

// locAt resolves a grid key to the location its instance was indexed
// at: the grid's resolver, bound once in New.
//
//stcps:holds mu
func (s *Store) locAt(seq uint64) spatial.Location { return s.at(seq).Loc }

// appendSource appends an instance's source as its entity id renders
// it: "observer,event".
func appendSource(dst []byte, observer, event string) []byte {
	dst = append(dst, observer...)
	dst = append(dst, ',')
	return append(dst, event...)
}

// keyLocked returns the instance's byEntity key, interning its source
// on first sight. Only the first instance of a source allocates.
//
//stcps:holds mu
func (s *Store) keyLocked(in *event.Instance) entityKey {
	s.srcBuf = appendSource(s.srcBuf[:0], in.Observer, in.Event)
	src, ok := s.sources[string(s.srcBuf)]
	if !ok {
		src = uint32(len(s.sources))
		s.sources[string(s.srcBuf)] = src
	}
	return entityKey{src: src, seq: in.Seq}
}

// resolveLocked resolves an entity id string to a live instance's
// sequence number. It answers as string equality with the rendered id
// would: the id must read E(<source>,<seq>) with seq in canonical
// decimal.
//
//stcps:holds mu
func (s *Store) resolveLocked(id string) (uint64, bool) {
	body, isE := strings.CutPrefix(id, "E(")
	body, closed := strings.CutSuffix(body, ")")
	i := strings.LastIndexByte(body, ',')
	if !isE || !closed || i < 0 || len(body) > i+2 && body[i+1] == '0' {
		return 0, false
	}
	seq, err := strconv.ParseUint(body[i+1:], 10, 64)
	src, ok := s.sources[body[:i]]
	if err != nil || !ok {
		return 0, false
	}
	at, ok := s.byEntity[entityKey{src: src, seq: seq}]
	return at, ok
}

// SetRetention installs (or replaces) the eviction policy and enforces
// it immediately.
func (s *Store) SetRetention(r Retention) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.ret = r
	s.enforceRetentionLocked()
	s.publishLocked()
}

// Retention returns the active eviction policy.
func (s *Store) Retention() Retention {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.ret
}

// Stats returns a snapshot of the store's contents.
func (s *Store) Stats() Stats {
	s.mu.RLock()
	defer s.mu.RUnlock()
	st := Stats{
		Instances:         int(s.frontier - s.base),
		Observations:      len(s.obs),
		Events:            len(s.byEvent),
		Evicted:           s.evicted,
		MaxGen:            s.maxGen,
		Chunks:            len(s.chunks),
		StaleIndexEntries: s.stale,
		Reads:             s.reads.Load(),
		ReadLocks:         s.readLocks.Load(),
		Materialized:      s.materialized.Load(),
		SpilledSeq:        s.spilled,
		ColdReads:         s.coldReads.Load(),
		SpillErrs:         s.spillErrs.Load(),
	}
	if s.cold != nil {
		cs := s.cold.Stats()
		st.Cold = &cs
	}
	return st
}

// Log appends an instance. Invalid instances are rejected, and so are
// instances over the wire codec's bounds (event.ErrWireBounds): spilled
// to a segment, such a record would fail every cold page over its
// block. Duplicate entity ids (same observer, event, seq) are
// idempotently ignored.
func (s *Store) Log(in event.Instance) error {
	_, _, err := s.LogSeq(in)
	return err
}

// LogSeq appends an instance like Log and additionally returns the
// global sequence number assigned to it — the query cursor addressing
// it, which the subscription subsystem stamps on live deliveries so a
// reconnecting subscriber can resume. fresh reports whether the
// instance was newly logged; a duplicate entity id returns its existing
// sequence number with fresh=false.
func (s *Store) LogSeq(in event.Instance) (seq uint64, fresh bool, err error) {
	if err := in.ValidateWire(); err != nil {
		return 0, false, fmt.Errorf("db: log: %w", err)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	seq, fresh = s.logOneLocked(&in)
	if fresh {
		s.enforceRetentionLocked()
		s.publishLocked()
	}
	return seq, fresh, nil
}

// LogBatch appends a batch of instances under a single lock
// acquisition, retention pass and frontier publication — the amortized
// write path fed by the wire-protocol batch decoder and the engine's
// batched emission hook. seqs[i] and fresh[i] mirror LogSeq's results
// for ins[i]. The batch is atomic with respect to validation: an
// invalid instance fails the whole batch before any mutation.
func (s *Store) LogBatch(ins []event.Instance) (seqs []uint64, fresh []bool, err error) {
	for i := range ins {
		if err := ins[i].ValidateWire(); err != nil {
			return nil, nil, fmt.Errorf("db: log[%d]: %w", i, err)
		}
	}
	if len(ins) == 0 {
		return nil, nil, nil
	}
	seqs = make([]uint64, len(ins))
	fresh = make([]bool, len(ins))
	s.mu.Lock()
	defer s.mu.Unlock()
	changed := false
	for i := range ins {
		seqs[i], fresh[i] = s.logOneLocked(&ins[i])
		changed = changed || fresh[i]
	}
	if changed {
		s.enforceRetentionLocked()
		s.publishLocked()
	}
	return seqs, fresh, nil
}

// logOneLocked appends one pre-validated instance to the write plane
// and every index, without enforcing retention or publishing — the
// shared core of LogSeq and LogBatch.
//
//stcps:holds mu
func (s *Store) logOneLocked(in *event.Instance) (seq uint64, fresh bool) {
	key := s.keyLocked(in)
	if prev, dup := s.byEntity[key]; dup {
		return prev, false
	}
	seq = s.frontier
	ci := (seq - s.firstSeq) >> chunkBits
	if int(ci) == len(s.chunks) {
		s.chunks = append(s.chunks, &chunk{})
	}
	s.chunks[ci].data[seq&chunkMask] = *in
	s.frontier = seq + 1
	s.byEntity[key] = seq
	s.liveEv[in.Event]++

	lst := s.byEvent[in.Event]
	// Insert keeping Occ.Start order. Instances usually arrive in order:
	// try the end before searching.
	pos := len(lst)
	if pos > 0 && s.at(lst[pos-1]).Occ.Start() > in.Occ.Start() {
		pos = sort.Search(pos, func(i int) bool {
			return s.at(lst[i]).Occ.Start() > in.Occ.Start()
		})
	}
	lst = append(lst, 0)
	copy(lst[pos+1:], lst[pos:])
	lst[pos] = seq
	s.byEvent[in.Event] = lst

	s.grid.Insert(seq, in.Loc)
	if dur := in.Occ.End() - in.Occ.Start(); dur > s.maxDur[in.Event] {
		s.maxDur[in.Event] = dur
	}
	if in.Gen > s.maxGen {
		s.maxGen = in.Gen
	}
	return seq, true
}

// SeqOf resolves an instance's entity id to its global sequence number,
// reporting false when the entity is not live (never logged, or
// evicted). It renders no id string.
func (s *Store) SeqOf(in *event.Instance) (uint64, bool) {
	var buf [64]byte
	key := appendSource(buf[:0], in.Observer, in.Event)
	s.mu.RLock()
	defer s.mu.RUnlock()
	src, ok := s.sources[string(key)]
	if !ok {
		return 0, false
	}
	seq, ok := s.byEntity[entityKey{src: src, seq: in.Seq}]
	return seq, ok
}

// enforceRetentionLocked evicts from the front of the log until the
// retention bounds hold, then compacts the stale index entries and
// retired chunks the evictions left behind. Callers hold mu.
//
//stcps:holds mu
func (s *Store) enforceRetentionLocked() {
	if s.ret.MaxAge > 0 {
		for s.frontier > s.base && s.at(s.base).Gen < s.maxGen-s.ret.MaxAge {
			s.evictFrontLocked()
		}
	}
	if s.ret.MaxInstances > 0 {
		for s.frontier-s.base > uint64(s.ret.MaxInstances) {
			s.evictFrontLocked()
		}
	}
	s.compactLocked()
}

// evictFrontLocked drops the oldest live instance from the entity and
// grid indexes and advances base. Its time-index entry merely goes
// stale (probes skip sequence numbers below base) and its chunk slot
// stays in place until the whole chunk retires — O(1) per instance,
// with the deferred reclamation amortized by compactLocked. When the
// instance was its event's last live one, the event's whole index list
// (all stale by definition) is dropped immediately so the event id
// leaves Stats().Events exactly as it always has.
//
//stcps:holds mu
func (s *Store) evictFrontLocked() {
	in := s.at(s.base)
	delete(s.byEntity, s.keyLocked(in))
	s.grid.Remove(s.base, in.Loc)
	if n := s.liveEv[in.Event] - 1; n == 0 {
		s.stale -= len(s.byEvent[in.Event]) - 1
		delete(s.byEvent, in.Event)
		delete(s.liveEv, in.Event)
	} else {
		s.liveEv[in.Event] = n
		s.stale++
	}
	s.base++
	s.evicted++
}

// compactLocked reclaims what eviction deferred: it sweeps stale
// entries out of the time index and retires chunks that fell entirely
// below base. The sweep runs when a whole chunk is retirable or the
// stale count has caught up with the live entity count (with a
// chunkSize floor so small stores don't sweep constantly), so its
// O(index entries) cost amortizes to O(1) per evicted instance. Chunk
// retirement rebuilds the directory into a fresh slice — published
// views keep the old one alive, so concurrent readers are unaffected —
// and reclaims instance memory a chunk at a time: up to chunkSize-1
// evicted instances linger in the front partial chunk.
//
//stcps:holds mu
func (s *Store) compactLocked() {
	retirable := int((s.base - s.firstSeq) >> chunkBits)
	// With a cold tier, retiring a chunk first spills its evicted
	// instances to a segment: retirement is the spill point, so cold
	// coverage stays contiguous with the chunk range. A failed spill
	// skips retirement — the chunks stay resident and readable, and the
	// spill is retried at the next compaction.
	if retirable > 0 && s.cold != nil && s.spillLocked(s.firstSeq+uint64(retirable)<<chunkBits) != nil {
		retirable = 0
	}
	if retirable == 0 && (s.stale < chunkSize || s.stale < len(s.byEntity)) {
		return
	}
	if s.stale > 0 {
		for ev, lst := range s.byEvent {
			keep := lst[:0]
			for _, seq := range lst {
				if seq >= s.base {
					keep = append(keep, seq)
				}
			}
			s.byEvent[ev] = keep
		}
		s.stale = 0
	}
	if retirable > 0 {
		live := make([]*chunk, len(s.chunks)-retirable)
		copy(live, s.chunks[retirable:])
		s.chunks = live
		s.firstSeq += uint64(retirable) << chunkBits
		if s.cold == nil {
			s.spilled = s.firstSeq
		}
	}
}

// spillLocked appends the evicted instances in [s.spilled, upTo) to the
// cold tier and advances the spill marker. A failed segment write is
// counted and returned; the caller then keeps the chunks resident. The
// instance copies are taken under mu, but the file I/O inside Dir.Spill
// synchronizes only on the Dir's own lock — concurrent cold scans are
// never blocked by it.
//
//stcps:holds mu
func (s *Store) spillLocked(upTo uint64) error {
	if upTo <= s.spilled {
		return nil
	}
	ins := make([]event.Instance, upTo-s.spilled)
	for i := range ins {
		ins[i] = *s.at(s.spilled + uint64(i))
	}
	if err := s.cold.Spill(s.spilled, ins); err != nil {
		s.spillErrs.Add(1)
		return err
	}
	s.spilled = upTo
	return nil
}

// AttachCold attaches an opened segment directory as the store's cold
// tier. It must be called on an empty store, before any Log: when the
// directory already covers [coldBase, end) from an earlier run, the
// store resumes the unified cursor space at end — newly logged
// instances take sequence numbers directly above the recovered cold
// history, so cursors address one contiguous range across tiers.
//
// Lifecycle: the caller (the engine) owns the Dir and closes it after
// the store is quiesced. On a durable engine, call Dir.DiscardAfter
// with the recovered snapshot's WAL sequence before attaching, so
// segments spilled after the WAL coverage (whose instances re-enter hot
// via replay) are dropped instead of duplicated.
func (s *Store) AttachCold(d *segment.Dir) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.cold != nil {
		return errors.New("db: cold tier already attached")
	}
	if s.frontier != 0 || s.firstSeq != 0 {
		return errors.New("db: cold tier must be attached to an empty store")
	}
	s.cold = d
	if _, end, ok := d.Bounds(); ok {
		// Align the chunk origin below the resume point; the phantom
		// slots in [firstSeq, spilled) are never resolved (reads below
		// spilled go to the segments).
		s.firstSeq = end &^ chunkMask
		s.base, s.frontier, s.spilled = end, end, end
	}
	s.publishLocked()
	return nil
}

// FlushCold spills every evicted-but-unspilled instance ([spilled,
// base), the partial-chunk backlog retirement hasn't reached) to the
// cold tier. Called before a snapshot or shutdown so a graceful stop
// loses no history. No-op without a cold tier.
func (s *Store) FlushCold() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.cold == nil || s.base <= s.spilled {
		return nil
	}
	if err := s.spillLocked(s.base); err != nil {
		return fmt.Errorf("db: flush cold: %w", err)
	}
	s.publishLocked()
	return nil
}

// LogObservation records a raw physical observation for provenance
// resolution.
func (s *Store) LogObservation(o event.Observation) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.obs[o.EntityID()] = o
}

// Len returns the number of live instances.
func (s *Store) Len() int {
	return s.loadView().live()
}

// All returns a copy of the live instance log in arrival order. It
// reads the published view without locking.
func (s *Store) All() []event.Instance {
	v := s.loadView()
	out := make([]event.Instance, 0, v.live())
	for seq := v.base; seq < v.frontier; seq++ {
		out = append(out, *v.at(seq))
	}
	return out
}

// timeWindowLocked returns the slice [lo, hi) of the event's
// start-ordered index that can intersect [from, to]: starts <= to, and
// starts >= from minus the event's longest logged duration (an interval
// reaching into the window cannot have started earlier than that). The
// window may include stale (evicted) sequence numbers; callers filter
// against the view's base. Callers hold mu.
//
//stcps:holds mu
func (s *Store) timeWindowLocked(eventID string, from, to timemodel.Tick) (lst []uint64, lo, hi int) {
	lst = s.byEvent[eventID]
	if lst == nil {
		lst = []uint64{}
	}
	hi = sort.Search(len(lst), func(i int) bool {
		return s.at(lst[i]).Occ.Start() > to
	})
	// Saturate the subtraction: from can be MinInt64 (an open-ended
	// window), where subtracting the duration would wrap positive and
	// empty the window.
	floor := from - s.maxDur[eventID]
	if floor > from {
		lo = 0
		return lst, lo, hi
	}
	lo = sort.Search(hi, func(i int) bool {
		return s.at(lst[i]).Occ.Start() >= floor
	})
	return lst, lo, hi
}

// ScanTime returns the instances of eventID (every event when empty)
// whose estimated occurrence intersects [from, to], ordered by
// occurrence start. It scans the published view without locking: the
// unindexed oracle the tests check the time index against.
func (s *Store) ScanTime(eventID string, from, to timemodel.Tick) []event.Instance {
	if to < from {
		return nil
	}
	v := s.loadView()
	var out []event.Instance
	for seq := v.base; seq < v.frontier; seq++ {
		in := v.at(seq)
		if eventID != "" && in.Event != eventID {
			continue
		}
		if in.Occ.Start() <= to && in.Occ.End() >= from {
			out = append(out, *in)
		}
	}
	sort.SliceStable(out, func(i, j int) bool {
		return out[i].Occ.Start() < out[j].Occ.Start()
	})
	return out
}

// ScanRegion returns the instances whose estimated occurrence location
// is Joint with the region, in arrival order. It scans the published
// view without locking: the unindexed oracle the tests check the
// spatial grid against.
func (s *Store) ScanRegion(region spatial.Location) []event.Instance {
	v := s.loadView()
	var out []event.Instance
	for seq := v.base; seq < v.frontier; seq++ {
		in := v.at(seq)
		if spatial.OpJoint.Apply(in.Loc, region) {
			out = append(out, *in)
		}
	}
	return out
}

// Lineage resolves the provenance chain of an entity: the transitive
// closure of Inputs, depth-first, deduplicated, starting from (and
// including) entityID. Unresolvable input ids (e.g. observations that
// were never logged, or instances evicted by retention) are included as
// leaves — the chain back to the original physical observation stays
// intact exactly as the paper requires.
func (s *Store) Lineage(entityID string) ([]string, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if _, ok := s.resolveLocked(entityID); !ok {
		if _, ok := s.obs[entityID]; !ok {
			return nil, fmt.Errorf("%q: %w", entityID, ErrNotFound)
		}
	}
	seen := make(map[string]bool)
	var out []string
	var walk func(id string)
	walk = func(id string) {
		if seen[id] {
			return
		}
		seen[id] = true
		out = append(out, id)
		if seq, ok := s.resolveLocked(id); ok {
			for _, inp := range s.at(seq).Inputs {
				walk(inp)
			}
		}
	}
	walk(entityID)
	return out, nil
}
