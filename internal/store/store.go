// Package store is the speed-layer serving subsystem: a sharded,
// concurrent, keyed store of time-bucketed synopses that absorbs
// write-heavy streams while answering merge-queries — the partitioned
// state store the tutorial's Section 3 platforms (Storm/Heron bolts,
// Samza stores, MillWheel persistent state) all assume behind the
// topology, and the serving half of its Figure 1 Lambda Architecture's
// speed layer.
//
// Layout. Keys are (metric, key) pairs — e.g. ("uniques", "page:/home").
// Entries are spread over a power-of-two number of shards by hash, each
// shard guarded by its own sync.RWMutex, so writers on different shards
// never contend and readers never block each other (the sharding scheme
// of production in-memory caches). Each entry holds a fixed ring of time
// buckets of configurable width; each bucket is one mergeable synopsis
// (HyperLogLog, Count-Min, Space-Saving, q-digest — see synopsis.go)
// built by the metric's registered Prototype.
//
// Concurrency. A write locks only its shard, for one sketch update. When
// an entry's stream time advances to a new bucket, older buckets are
// sealed; sealed synopses are immutable — a late write to a sealed bucket
// clones the synopsis and swaps the pointer (copy-on-write), never
// mutating in place. Range queries therefore RLock the shard only long
// enough to snapshot bucket pointers (merging any still-open buckets
// under the read lock), then merge the sealed buckets lock-free outside
// it: a long query over mostly-sealed history does its heavy merging
// without holding any lock at all.
//
// Hot keys. Skewed (Zipfian) streams serialize their hottest keys on one
// shard lock; with HotKeyConfig enabled the store detects such keys with
// per-shard Space-Saving trackers and splays their writes across several
// shards, merging the sub-entries back together at query time and on
// demotion — see hot.go.
//
// Retention. Three mechanisms bound memory, mirroring the mqlog
// partition-retention design: the ring itself (a bucket falling out of
// the ring window is dropped, and writes older than the window are
// rejected and counted), per-shard byte budgets (least-recently-written
// entries are evicted first), and idle-age eviction (entries whose last
// write is older than MaxIdle stream-time units are reaped
// opportunistically during writes). Splayed sub-entries are ordinary
// entries of their shards, so they count against the same budgets.
package store

import (
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/core"
	"repro/internal/frequency"
	"repro/internal/hashutil"
	"repro/internal/telemetry"
	"repro/internal/trace"
)

// Observation is one data point bound for the store: the metric names
// which registered synopsis family absorbs it, the key selects the series,
// and item/value carry the payload (see the Synopsis adapters for which of
// the two each family consumes). Time is stream time in arbitrary integer
// units (the bucket width is expressed in the same units).
type Observation struct {
	Metric string
	Key    string
	Item   string
	Value  uint64
	Time   int64

	// Trace carries the observation's trace context when the ingest was
	// sampled (zero otherwise — the common case). It rides the in-process
	// struct only: the wire codec (EncodeObservation) does not serialize
	// it; across the log it travels as a mqlog record header instead
	// (see dstore). Hot-key write combining batches per-key and drops
	// per-record contexts — a sampled write to a splayed key traces its
	// route decision, not the deferred sketch update.
	Trace trace.Context
}

// Config tunes a Store.
type Config struct {
	// Shards is the shard count, rounded up to a power of two (default 16).
	Shards int
	// BucketWidth is the stream-time units each bucket spans (default 60).
	BucketWidth int64
	// RingBuckets is how many buckets each entry retains (default 60).
	// Writes more than RingBuckets behind an entry's newest bucket are
	// rejected and counted in Stats.DroppedLate.
	RingBuckets int
	// MaxShardBytes is the per-shard synopsis byte budget; when a write
	// pushes a shard past it, least-recently-written entries are evicted
	// until it fits (0 = unlimited).
	MaxShardBytes int
	// MaxIdle evicts entries whose last write is more than MaxIdle
	// stream-time units behind the most recent write to their shard
	// (0 = no idle eviction).
	MaxIdle int64
	// HotKey enables and tunes hot-key detection and write splaying
	// (see hot.go); the zero value disables it.
	HotKey HotKeyConfig
}

func (c Config) withDefaults() Config {
	if c.Shards <= 0 {
		c.Shards = 16
	}
	// Round up to a power of two so routing is a mask, not a modulo.
	n := 1
	for n < c.Shards {
		n <<= 1
	}
	c.Shards = n
	if c.BucketWidth <= 0 {
		c.BucketWidth = 60
	}
	if c.RingBuckets <= 0 {
		c.RingBuckets = 60
	}
	c.HotKey = c.HotKey.withDefaults()
	if c.HotKey.Replicas > c.Shards {
		c.HotKey.Replicas = c.Shards
	}
	if c.HotKey.Replicas < 2 {
		// Splaying within a single shard buys nothing; run the plain path.
		c.HotKey = HotKeyConfig{}
	}
	return c
}

// Stats is a point-in-time snapshot of the store's counters. Add sums
// snapshots from several stores; keep it in sync when adding fields.
type Stats struct {
	Observed      uint64 // observations absorbed
	DroppedLate   uint64 // observations older than the ring window
	Queries       uint64 // range queries served
	EvictedSize   uint64 // entries evicted by the byte budget
	EvictedIdle   uint64 // entries evicted by idle age
	SplayedWrites uint64 // observations routed through a hot-key splay
	Promotions    uint64 // cold -> splayed transitions
	Demotions     uint64 // splayed -> cold transitions
	HotKeys       int    // currently splayed keys
	Entries       int    // live entries, including splayed sub-entries
	Bytes         int    // synopsis bytes across all shards
}

// Add accumulates another snapshot into s — the aggregation a cluster of
// stores reports. Defined next to the struct so the field list lives in
// exactly one place.
func (s *Stats) Add(o Stats) {
	s.Observed += o.Observed
	s.DroppedLate += o.DroppedLate
	s.Queries += o.Queries
	s.EvictedSize += o.EvictedSize
	s.EvictedIdle += o.EvictedIdle
	s.SplayedWrites += o.SplayedWrites
	s.Promotions += o.Promotions
	s.Demotions += o.Demotions
	s.HotKeys += o.HotKeys
	s.Entries += o.Entries
	s.Bytes += o.Bytes
}

// entryKey identifies one series.
type entryKey struct {
	metric string
	key    string
}

// slot is one position of an entry's bucket ring.
type slot struct {
	idx    int64 // bucket index occupying the slot; -1 when empty
	sealed bool  // immutable: late writes must copy-on-write
	bytes  int   // last accounted footprint of syn
	syn    Synopsis
}

// entry is the bucket ring of one (metric, key) series, plus its links in
// the shard's recency list. A replica entry is one splayed sub-entry of a
// hot key, resident on a shard other than the key's home shard.
type entry struct {
	k         entryKey
	slots     []slot
	newest    int64 // highest bucket index written; -1 before first write
	lastWrite int64 // stream time of the most recent write
	bytes     int   // sum of slot footprints
	replica   bool  // splayed sub-entry (excluded from Keys)
	// spare is a recycled synopsis awaiting reuse, populated only on
	// replica entries: replica buckets are read exclusively under the
	// hot-key and shard locks, so a synopsis expiring from a replica ring
	// is provably unreferenced and can be Reset in place instead of
	// handed to the garbage collector. Home and cold entries never
	// recycle — their sealed buckets escape to lock-free readers.
	spare Synopsis
	prev  *entry
	next  *entry
}

func (e *entry) slotFor(bkt int64) *slot {
	return &e.slots[int(bkt%int64(len(e.slots)))]
}

// advance moves the entry's newest bucket forward to bkt: everything
// older than bkt is sealed (including clones produced by earlier late
// writes) and buckets that fell out of the retention window are dropped,
// so queries never serve history the write path would reject. The ring is
// small and this runs once per bucket advance per entry. Callers hold the
// shard lock.
func (e *entry) advance(bkt int64, sh *shard) {
	horizon := bkt - int64(len(e.slots))
	for i := range e.slots {
		sl := &e.slots[i]
		if sl.idx < 0 {
			continue
		}
		if sl.idx <= horizon {
			e.bytes -= sl.bytes
			sh.bytes -= sl.bytes
			if e.replica && e.spare == nil && sl.syn != nil {
				if r, ok := sl.syn.(Resettable); ok {
					r.Reset()
					e.spare = sl.syn
				}
			}
			*sl = slot{idx: -1}
		} else if sl.idx < bkt {
			if !sl.sealed {
				sh.seals++
			}
			sl.sealed = true
		}
	}
	e.newest = bkt
}

// shard is one lock domain: a map of entries plus an intrusive
// recency-of-write list (front = most recently written) driving both
// eviction policies, and — when hot-key handling is on — the detection
// epoch state.
type shard struct {
	mu      sync.RWMutex
	entries map[entryKey]*entry
	head    *entry // most recently written
	tail    *entry // least recently written
	bytes   int
	maxTime int64  // newest observation time seen by the shard
	seals   uint64 // buckets sealed by time advancing (telemetry)

	epochWrites int                    // writes since the last epoch boundary
	epochSeq    uint64                 // completed detection epochs
	tracker     *frequency.SpaceSaving // hot-key candidates (nil when disabled)
}

func (sh *shard) unlink(e *entry) {
	if e.prev != nil {
		e.prev.next = e.next
	} else {
		sh.head = e.next
	}
	if e.next != nil {
		e.next.prev = e.prev
	} else {
		sh.tail = e.prev
	}
	e.prev, e.next = nil, nil
}

func (sh *shard) pushFront(e *entry) {
	e.prev, e.next = nil, sh.head
	if sh.head != nil {
		sh.head.prev = e
	}
	sh.head = e
	if sh.tail == nil {
		sh.tail = e
	}
}

func (sh *shard) touch(e *entry) {
	if sh.head == e {
		return
	}
	sh.unlink(e)
	sh.pushFront(e)
}

// remove drops the entry from the shard. Callers hold sh.mu.
func (sh *shard) remove(e *entry) {
	sh.unlink(e)
	delete(sh.entries, e.k)
	sh.bytes -= e.bytes
}

// getOrCreate returns the shard's entry for k, creating an empty ring if
// absent. Callers hold sh.mu.
func (sh *shard) getOrCreate(k entryKey, ring int, replica bool) *entry {
	e, ok := sh.entries[k]
	if !ok {
		e = &entry{k: k, slots: make([]slot, ring), newest: -1, replica: replica}
		for i := range e.slots {
			e.slots[i].idx = -1
		}
		sh.entries[k] = e
		sh.pushFront(e)
	}
	return e
}

// Store is the sharded synopsis store.
type Store struct {
	cfg    Config
	mask   uint64
	seed   uint64
	shards []*shard

	mu      sync.RWMutex
	metrics map[string]Prototype

	// Hot-key state (hot.go): the table of splayed keys, swapped
	// atomically; hotMu serializes table edits; hotRW excludes queries
	// from gathering replica buckets while a demotion drains them.
	hot      atomic.Pointer[hotTable]
	hotMu    sync.Mutex
	hotRW    sync.RWMutex
	hotStale int64 // stream-time age at which a pending batch force-seals

	observed    atomic.Uint64
	droppedLate atomic.Uint64
	queries     atomic.Uint64
	evictedSize atomic.Uint64
	evictedIdle atomic.Uint64
	splayed     atomic.Uint64
	promotions  atomic.Uint64
	demotions   atomic.Uint64

	// Checkpoint counters (checkpoint.go): the last written snapshot's
	// size and the records rehydrated into this store at restore.
	ckptRecords atomic.Uint64
	ckptBytes   atomic.Uint64
	restored    atomic.Uint64

	// Telemetry hooks (telemetry.go). Nil when no registry is wired;
	// the write and query paths gate their time.Now() pairs on these,
	// so an uninstrumented store pays one pointer check per hot-path
	// operation.
	telLockWait *telemetry.Histogram
	telGather   *telemetry.Histogram

	// Tracer hook (trace_wire.go). Same discipline as the histograms:
	// nil when unwired, set before serving; traced paths additionally
	// gate on the request/observation carrying a valid trace context,
	// so an unwired or unsampled operation pays one pointer check.
	trc *trace.Tracer
}

// New returns an empty store.
func New(cfg Config) (*Store, error) {
	if cfg.Shards < 0 {
		return nil, core.Errf("Store", "Shards", "%d must be >= 0", cfg.Shards)
	}
	if cfg.MaxShardBytes < 0 {
		return nil, core.Errf("Store", "MaxShardBytes", "%d must be >= 0", cfg.MaxShardBytes)
	}
	if cfg.MaxIdle < 0 {
		return nil, core.Errf("Store", "MaxIdle", "%d must be >= 0", cfg.MaxIdle)
	}
	if err := cfg.HotKey.validate(); err != nil {
		return nil, err
	}
	cfg = cfg.withDefaults()
	s := &Store{
		cfg:     cfg,
		mask:    uint64(cfg.Shards - 1),
		seed:    hashutil.Sum64String("store", 0),
		shards:  make([]*shard, cfg.Shards),
		metrics: make(map[string]Prototype),
	}
	s.hotStale = cfg.BucketWidth * int64(cfg.RingBuckets) / 4
	if s.hotStale < cfg.BucketWidth {
		s.hotStale = cfg.BucketWidth
	}
	for i := range s.shards {
		s.shards[i] = &shard{entries: make(map[entryKey]*entry)}
		if s.hotEnabled() {
			tr, err := frequency.NewSpaceSaving(cfg.HotKey.TrackerK)
			if err != nil {
				return nil, err
			}
			s.shards[i].tracker = tr
		}
	}
	return s, nil
}

// hotEnabled reports whether hot-key splaying is configured on (Replicas
// is clamped and zeroed by withDefaults, so >= 2 means fully enabled).
func (s *Store) hotEnabled() bool { return s.cfg.HotKey.Replicas >= 2 }

// RegisterMetric binds a metric name to the Prototype that builds its
// bucket synopses. Metrics must be registered before the first write or
// query that names them; re-registering is an error.
func (s *Store) RegisterMetric(name string, proto Prototype) error {
	if name == "" {
		return core.Errf("Store", "metric", "name must be non-empty")
	}
	if proto == nil {
		return core.Errf("Store", "proto", "prototype for %q is nil", name)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, exists := s.metrics[name]; exists {
		return fmt.Errorf("store: metric %q already registered", name)
	}
	s.metrics[name] = proto
	return nil
}

// Metrics returns the registered metric names (unordered).
func (s *Store) Metrics() []string {
	s.mu.RLock()
	defer s.mu.RUnlock()
	out := make([]string, 0, len(s.metrics))
	for name := range s.metrics {
		out = append(out, name)
	}
	return out
}

func (s *Store) proto(metric string) (Prototype, error) {
	s.mu.RLock()
	p, ok := s.metrics[metric]
	s.mu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("store: %w %q", ErrUnknownMetric, metric)
	}
	return p, nil
}

// shardIndex routes a series to its home shard.
func (s *Store) shardIndex(k entryKey) uint32 {
	h := hashutil.Sum64String(k.key, hashutil.Sum64String(k.metric, s.seed))
	return uint32(h & s.mask)
}

// Observe absorbs one observation: a batch of one through ObserveBatch,
// so both entry points share one write path. Unknown metrics and
// negative times are errors; observations older than the entry's ring
// window are silently dropped and counted in Stats.DroppedLate (the
// caller cannot usefully retry them, which is the Kafka-consumer
// convention for truncated reads).
func (s *Store) Observe(obs Observation) error {
	return s.ObserveBatch([]Observation{obs})
}

// writeLocked lands one observation in the entry's ring: late-drop check,
// bucket advance (sealing + window expiry), slot (re)initialization or
// copy-on-write, the sketch update, and byte accounting. Callers hold
// sh.mu and handle counters/eviction/epochs.
func (s *Store) writeLocked(sh *shard, e *entry, obs Observation, proto Prototype) (dropped bool, err error) {
	bkt := obs.Time / s.cfg.BucketWidth
	if e.newest >= 0 && bkt <= e.newest-int64(len(e.slots)) {
		return true, nil
	}
	if bkt > e.newest {
		e.advance(bkt, sh)
	}
	sl := e.slotFor(bkt)
	switch {
	case sl.idx != bkt:
		// Empty slot, or the ring rotating over a bucket that has fallen
		// out of the retention window. The fresh synopsis starts unsealed
		// even for a late bucket; the next time advance re-seals it.
		sl.idx = bkt
		sl.sealed = false
		sl.syn = proto()
		e.bytes -= sl.bytes
		sh.bytes -= sl.bytes
		sl.bytes = 0
	case sl.sealed:
		// Late write to a sealed bucket: a reader may hold the sealed
		// pointer outside the shard lock, so mutate a private clone and
		// swap it in. The clone stays unsealed until time next advances.
		clone := proto()
		if err := clone.Merge(sl.syn); err != nil {
			return false, fmt.Errorf("store: copy-on-write clone of %q/%q: %w", obs.Metric, obs.Key, err)
		}
		sl.syn = clone
		sl.sealed = false
	}
	if sl.sealed {
		// Writes only land on unsealed synopses; a sealed slot here means
		// the bookkeeping above has a bug, so fail loudly in tests.
		panic("store: write to sealed bucket")
	}
	sl.syn.Observe(obs.Item, obs.Value)
	nb := sl.syn.Bytes()
	e.bytes += nb - sl.bytes
	sh.bytes += nb - sl.bytes
	sl.bytes = nb
	e.lastWrite = obs.Time
	sh.touch(e)
	return false, nil
}

// applyLocked lands one hot key's sealed batch in the entry's ring. It
// follows writeLocked's semantics observation-for-observation (in claim
// order) but amortizes the bookkeeping: slot setup, copy-on-write checks
// and byte accounting run once per run of same-bucket observations, and
// the recency touch once per batch. Callers hold sh.mu.
func (s *Store) applyLocked(sh *shard, e *entry, obs []hotObs, proto Prototype) (applied, dropped uint64) {
	var sl *slot
	cur := int64(-2) // bucket the run is writing; -2 = none yet
	maxT := int64(-1)
	settle := func() {
		if sl == nil {
			return
		}
		nb := sl.syn.Bytes()
		e.bytes += nb - sl.bytes
		sh.bytes += nb - sl.bytes
		sl.bytes = nb
	}
	for i := range obs {
		o := &obs[i]
		bkt := o.time / s.cfg.BucketWidth
		if bkt != cur {
			settle()
			cur, sl = bkt, nil
			if e.newest >= 0 && bkt <= e.newest-int64(len(e.slots)) {
				dropped++ // sl stays nil: the run is behind the window
				continue
			}
			if bkt > e.newest {
				e.advance(bkt, sh)
			}
			sl = e.slotFor(bkt)
			switch {
			case sl.idx != bkt:
				sl.idx = bkt
				sl.sealed = false
				if e.spare != nil {
					sl.syn = e.spare
					e.spare = nil
				} else {
					sl.syn = proto()
				}
				e.bytes -= sl.bytes
				sh.bytes -= sl.bytes
				sl.bytes = 0
			case sl.sealed:
				// Copy-on-write for symmetry with writeLocked; on a replica
				// the displaced synopsis is lock-protected, so it recycles.
				clone := proto()
				if clone.Merge(sl.syn) != nil {
					// Families cannot mismatch within one metric; treat a
					// failed clone like a dropped run rather than panic.
					dropped++
					sl = nil
					continue
				}
				if e.replica && e.spare == nil {
					if r, ok := sl.syn.(Resettable); ok {
						r.Reset()
						e.spare = sl.syn
					}
				}
				sl.syn = clone
				sl.sealed = false
			}
		} else if sl == nil {
			dropped++
			continue
		}
		sl.syn.Observe(o.item, o.value)
		applied++
		e.lastWrite = o.time
		if o.time > maxT {
			maxT = o.time
		}
	}
	settle()
	if maxT > sh.maxTime {
		sh.maxTime = maxT
	}
	sh.touch(e)
	return applied, dropped
}

// evict applies the byte budget and idle-age policies to one shard.
// Callers hold sh.mu.
func (s *Store) evict(sh *shard) {
	if max := s.cfg.MaxShardBytes; max > 0 {
		for sh.bytes > max && len(sh.entries) > 1 {
			sh.remove(sh.tail)
			s.evictedSize.Add(1)
		}
	}
	if idle := s.cfg.MaxIdle; idle > 0 {
		for sh.tail != nil && len(sh.entries) > 1 && sh.maxTime-sh.tail.lastWrite > idle {
			sh.remove(sh.tail)
			s.evictedIdle.Add(1)
		}
	}
}

// gather collects one shard's buckets of k overlapping [fromB, toB]:
// still-open buckets merge into result under the read lock; sealed
// buckets are returned for the caller to merge lock-free (they are
// immutable). In eager mode sealed buckets merge under the read lock too
// — hot-key gathers require it, because replica synopses are recycled
// and must never be referenced outside the hot-key and shard locks.
func (s *Store) gather(sh *shard, k entryKey, fromB, toB int64, result Synopsis, sealed []Synopsis, eager bool) ([]Synopsis, error) {
	sh.mu.RLock()
	if e, ok := sh.entries[k]; ok {
		for i := range e.slots {
			sl := &e.slots[i]
			if sl.idx < fromB || sl.idx > toB || sl.syn == nil {
				continue
			}
			if sl.sealed && !eager {
				sealed = append(sealed, sl.syn)
			} else if err := result.Merge(sl.syn); err != nil {
				sh.mu.RUnlock()
				return sealed, err
			}
		}
	}
	sh.mu.RUnlock()
	return sealed, nil
}

// Keys returns every key of the metric currently resident in the store,
// across all shards (unordered). Splayed sub-entries are skipped so a hot
// key appears once.
func (s *Store) Keys(metric string) []string {
	var out []string
	for _, sh := range s.shards {
		sh.mu.RLock()
		for k, e := range sh.entries {
			if k.metric == metric && !e.replica {
				out = append(out, k.key)
			}
		}
		sh.mu.RUnlock()
	}
	return out
}

// Stats returns a snapshot of the store's counters.
func (s *Store) Stats() Stats {
	st := Stats{
		Observed:      s.observed.Load(),
		DroppedLate:   s.droppedLate.Load(),
		Queries:       s.queries.Load(),
		EvictedSize:   s.evictedSize.Load(),
		EvictedIdle:   s.evictedIdle.Load(),
		SplayedWrites: s.splayed.Load(),
		Promotions:    s.promotions.Load(),
		Demotions:     s.demotions.Load(),
		HotKeys:       lenHot(s.hot.Load()),
	}
	for _, sh := range s.shards {
		sh.mu.RLock()
		st.Entries += len(sh.entries)
		st.Bytes += sh.bytes
		sh.mu.RUnlock()
	}
	return st
}

// Shards returns the (rounded) shard count the store is running with.
func (s *Store) Shards() int { return s.cfg.Shards }

// BucketWidth returns the stream-time units each bucket spans.
func (s *Store) BucketWidth() int64 { return s.cfg.BucketWidth }
