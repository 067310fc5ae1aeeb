// batch.go is the store's write path. ObserveBatch lands a whole slice
// of observations with one shard-lock acquisition per shard group
// instead of one per observation, the write-side analogue of the query
// path's single-RLock per-shard gather; Observe is a batch of one, so
// observeShard is the only code that applies observations to a home
// shard.
package store

import (
	"time"

	"repro/internal/core"
	"repro/internal/trace"
)

// ObserveBatch absorbs obs as one batched write. The entire batch is
// validated first — every metric registered, every time non-negative —
// and a validation failure absorbs NOTHING (stricter than a loop of
// Observe, which mutates the prefix; this is what makes admission
// shedding provable). An accepted batch is byte-identical to feeding
// the same observations through Observe one at a time: observations
// are grouped by home shard preserving input order — per-(metric,key)
// order is what synopsis state depends on, and a key's writes all land
// in the same group — and inside a group every per-write effect runs
// per observation (late-drop accounting, ring advance, eviction,
// hot-key sampling and epoch harvests). Writes to currently hot keys
// divert to their routes' lock-free batches, outside the shard lock. An
// empty batch is a no-op.
func (s *Store) ObserveBatch(obs []Observation) error {
	if len(obs) == 0 {
		return nil
	}
	protos := make(map[string]Prototype, 4)
	for i := range obs {
		o := &obs[i]
		if o.Time < 0 {
			return core.Errf("Store", "Time", "%d must be >= 0", o.Time)
		}
		if _, ok := protos[o.Metric]; !ok {
			p, err := s.proto(o.Metric)
			if err != nil {
				return err
			}
			protos[o.Metric] = p
		}
	}
	if len(obs) == 1 {
		// A batch of one is its own shard group; skip the grouping.
		one := [1]int{0}
		s.observeShard(s.shardIndex(entryKey{metric: obs[0].Metric, key: obs[0].Key}), one[:], obs, protos)
		return nil
	}
	// Group by home shard, preserving input order within each group.
	groups := make([][]int, len(s.shards))
	for i := range obs {
		idx := s.shardIndex(entryKey{metric: obs[i].Metric, key: obs[i].Key})
		groups[idx] = append(groups[idx], i)
	}
	for idx, group := range groups {
		if len(group) > 0 {
			s.observeShard(uint32(idx), group, obs, protos)
		}
	}
	return nil
}

// observeShard lands one home shard's group of validated observations.
// A write to a hot key diverts to its route's batch; when the route was
// demoted mid-flight or its batch is mid-seal, it takes the home path
// anchored to the route's bucket high water, so retention decisions
// match an unsplayed store's. The shard lock is held across runs of
// home writes and released around diversions (observeHot seals and
// flushes batches, which takes shard locks of its own). Epoch harvests
// collected under the lock run their sweeps and promotions after
// release, in harvest order. When the group carries a sampled trace
// context, the write records one store.observe span on it.
func (s *Store) observeShard(idx uint32, group []int, obs []Observation, protos map[string]Prototype) {
	type harvest struct {
		promote []entryKey
		seq     uint64
	}
	sh := s.shards[idx]
	var sp *trace.Span
	if s.trc != nil {
		for _, i := range group {
			if obs[i].Trace.Valid() {
				sp = s.traceObserve(obs[i], idx)
				break
			}
		}
	}
	var harvests []harvest
	var observed, droppedLate uint64
	var lockWait time.Duration
	locked := false
	lock := func() {
		if locked {
			return
		}
		locked = true
		if s.telLockWait == nil && sp == nil {
			sh.mu.Lock()
			return
		}
		t0 := time.Now()
		sh.mu.Lock()
		s.telLockWait.ObserveSince(t0)
		if sp != nil {
			lockWait += time.Since(t0)
		}
	}
	unlock := func() {
		if locked {
			sh.mu.Unlock()
			locked = false
		}
	}
	for _, i := range group {
		o := obs[i]
		k := entryKey{metric: o.Metric, key: o.Key}
		r := s.hotRouteFor(k)
		if r != nil {
			unlock()
			if s.observeHot(o, k, r) {
				continue
			}
		}
		lock()
		if o.Time > sh.maxTime {
			sh.maxTime = o.Time
		}
		e := sh.getOrCreate(k, s.cfg.RingBuckets, false)
		if r != nil {
			if anchor := r.newest.Load(); anchor > e.newest {
				e.advance(anchor, sh)
			}
		}
		dropped, err := s.writeLocked(sh, e, o, protos[o.Metric])
		if err != nil {
			// Unreachable after up-front validation (only a copy-on-write
			// clone of a mismatched family can fail, impossible within one
			// metric); skip the write rather than strand the batch.
			continue
		}
		if dropped {
			droppedLate++
			continue
		}
		if s.hotEnabled() {
			sh.epochWrites++
			if sh.epochWrites%s.cfg.HotKey.SampleEvery == 0 {
				sh.tracker.Update(packHotKey(k))
			}
			if sh.epochWrites >= s.cfg.HotKey.EpochWrites {
				promote, seq := s.harvestLocked(sh)
				harvests = append(harvests, harvest{promote, seq})
			}
		}
		s.evict(sh)
		observed++
	}
	unlock()
	if observed > 0 {
		s.observed.Add(observed)
	}
	if droppedLate > 0 {
		s.droppedLate.Add(droppedLate)
	}
	if sp != nil {
		sp.SetAttrs(trace.Int("lock_wait_ns", int64(lockWait)))
		sp.Finish()
	}
	for _, h := range harvests {
		// Sweep before promoting: a just-promoted route must not be
		// judged on an empty epoch.
		s.sweepRoutes(idx, h.seq)
		for _, pk := range h.promote {
			s.promote(pk)
		}
	}
}
