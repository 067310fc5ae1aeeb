// frozen.go is the batch-serving half of the Lambda split: a store
// recomputed from the log up to a frozen end-offset snapshot and then
// sealed. Where replay.go's Rebuild answers "what would a fresh store say
// about everything retained right now", FreezeAt answers the question the
// batch layer actually asks — "what did the log say up to exactly this
// cut" — so that a speed layer serving [ends, ...) composes with it into
// a complete, double-count-free answer (lambda.Architecture.Query merges
// the two through CombineSnapshots). The view is sealed by construction:
// it exposes no write path, so its answers are immutable once built, the
// property Figure 1 assigns to batch views.
package store

import (
	"repro/internal/core"
	"repro/internal/mqlog"
)

// FrozenView is a sealed batch view: a store rebuilt from the log prefix
// [oldest retained, ends) and then closed to writes. It is safe for
// concurrent readers (the underlying store is, and nothing mutates it).
type FrozenView struct {
	st             *Store
	ends           []uint64
	applied        uint64
	rejected       uint64
	truncated      bool
	restored       uint64
	fromCheckpoint bool
}

// FreezeAt recomputes a batch view: a fresh store with the given config
// and metric prototypes, every partition of the topic replayed from its
// oldest retained offset up to the frozen bound ends[pid] (exclusive),
// hot-key batches settled, and the result sealed. ends is typically a
// Topic.EndOffsets snapshot taken at the freeze point; it must have one
// entry per partition. Messages the bound covers but retention has
// already dropped are unrecoverable and reported via Truncated — the
// retention-vs-recomputation trade every log-backed batch layer makes.
func FreezeAt(cfg Config, protos map[string]Prototype, topic *mqlog.Topic, ends []uint64, decode Decoder) (*FrozenView, error) {
	return FreezeAtFrom(cfg, protos, topic, ends, decode, "")
}

// FreezeAtFrom is FreezeAt with an incremental-recompute fast path: when
// checkpointDir holds a compatible checkpoint (same geometry, offsets
// that do not exceed ends, no owned-partition restriction), the view is
// rehydrated from the snapshot and only the log suffix
// [checkpoint offsets, ends) is replayed — Applied then counts just the
// suffix, and Restored/FromCheckpoint report the snapshot's
// contribution. Any incompatibility or corruption falls back to the
// full [0, ends) recompute; an empty checkpointDir is exactly FreezeAt.
func FreezeAtFrom(cfg Config, protos map[string]Prototype, topic *mqlog.Topic, ends []uint64, decode Decoder, checkpointDir string) (*FrozenView, error) {
	if topic == nil {
		return nil, core.Errf("FreezeAt", "topic", "must be non-nil")
	}
	if len(ends) != topic.Partitions() {
		return nil, core.Errf("FreezeAt", "ends", "%d bounds for %d partitions", len(ends), topic.Partitions())
	}
	build := func() (*Store, error) {
		st, err := New(cfg)
		if err != nil {
			return nil, err
		}
		for name, proto := range protos {
			if err := st.RegisterMetric(name, proto); err != nil {
				return nil, err
			}
		}
		return st, nil
	}
	st, err := build()
	if err != nil {
		return nil, err
	}
	v := &FrozenView{ends: append([]uint64(nil), ends...)}
	starts := make([]uint64, topic.Partitions())
	if checkpointDir != "" {
		if man, err := ReadCheckpointManifest(checkpointDir); err == nil && checkpointCoversFreeze(man, st, ends) {
			if _, err := RestoreCheckpoint(st, checkpointDir); err == nil {
				copy(starts, man.Offsets)
				v.restored = man.Records
				v.fromCheckpoint = true
			} else if st, err = build(); err != nil {
				// A failed restore leaves partial state; recompute from a
				// fresh store instead.
				return nil, err
			}
		}
	}
	v.st = st
	// Wrap the decoder with a poison filter, as the cluster's recovery
	// replay does: a message that cannot decode, names an unregistered
	// metric, or carries a negative time is counted and skipped. Without
	// this, one poison record in the master log would wedge every future
	// recompute at the same offset forever — the batch layer must be able
	// to advance past garbage it can never fix.
	if decode == nil {
		decode = WireDecoder
	}
	inner := decode
	filtered := func(m mqlog.Message) (Observation, bool) {
		obs, ok := inner(m)
		if !ok {
			return Observation{}, false
		}
		if obs.Time < 0 || protos[obs.Metric] == nil {
			v.rejected++
			return Observation{}, false
		}
		return obs, true
	}
	for pid := 0; pid < topic.Partitions(); pid++ {
		// From the checkpoint offset when restoring, else offset 0 — not
		// StartOffset: a batch view claims the whole prefix [0, ends), so
		// starting below the retention horizon lets the reader's
		// "earliest" reset surface what was actually lost.
		_, applied, trunc, err := ReplayPartitionTo(st, topic, pid, starts[pid], ends[pid], filtered)
		v.applied += applied
		v.truncated = v.truncated || trunc
		if err != nil {
			return nil, err
		}
	}
	st.FlushHot()
	return v, nil
}

// checkpointCoversFreeze reports whether a manifest can seed a freeze at
// ends on a store with st's geometry: same bucketing, a full (unowned)
// partition set of the right width, and no offset past its bound — a
// checkpoint ahead of ends would bake in observations the view must not
// contain, and no replay can subtract them.
func checkpointCoversFreeze(man *CheckpointManifest, st *Store, ends []uint64) bool {
	if man.BucketWidth != st.cfg.BucketWidth || man.RingBuckets != st.cfg.RingBuckets {
		return false
	}
	if len(man.Partitions) != 0 || len(man.Floors) != 0 || len(man.Offsets) != len(ends) {
		return false
	}
	for pid, off := range man.Offsets {
		if off > ends[pid] {
			return false
		}
	}
	return true
}

// WriteCheckpoint snapshots the sealed view into dir, stamped with the
// view's end offsets — the pair the next FreezeAtFrom resumes from.
func (v *FrozenView) WriteCheckpoint(dir string) (CheckpointInfo, error) {
	return WriteCheckpoint(v.st, dir, CheckpointMeta{Offsets: v.ends})
}

// Query answers a serving-API request from the sealed view; see
// Store.Query for the semantics (a series the view never saw answers
// empty).
func (v *FrozenView) Query(req QueryRequest) (QueryResult, error) {
	return v.st.Query(req)
}

// Keys returns the metric's keys resident in the view.
func (v *FrozenView) Keys(metric string) []string { return v.st.Keys(metric) }

// EndOffsets returns the per-partition exclusive bounds the view was
// frozen at — the fence a speed layer truncates to after the handoff.
func (v *FrozenView) EndOffsets() []uint64 { return append([]uint64(nil), v.ends...) }

// Applied returns the number of decoded observations the recompute fed
// the view.
func (v *FrozenView) Applied() uint64 { return v.applied }

// Rejected returns the decodable messages the recompute skipped as
// poison (unregistered metric or negative time).
func (v *FrozenView) Rejected() uint64 { return v.rejected }

// Truncated reports whether retention had already dropped part of the
// range the view was asked to cover.
func (v *FrozenView) Truncated() bool { return v.truncated }

// Restored returns the checkpoint records rehydrated into the view (0
// for a full recompute).
func (v *FrozenView) Restored() uint64 { return v.restored }

// FromCheckpoint reports whether the view was seeded from a checkpoint
// (Applied then counts only the replayed log suffix).
func (v *FrozenView) FromCheckpoint() bool { return v.fromCheckpoint }

// Stats returns the sealed store's counters (useful for footprint
// reporting; the write counters are final).
func (v *FrozenView) Stats() Stats { return v.st.Stats() }
