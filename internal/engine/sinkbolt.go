// sinkbolt.go sinks topology streams into any serving backend — the one
// terminal bolt the platform design space needs now that the sharded
// store, the partitioned cluster and the Lambda Architecture all answer
// the same analytics.Backend contract. A SinkBolt is written once
// against the contract: it extracts an observation per tuple and hands
// it to Backend.Observe, whatever partitioning, durability or
// batch/speed split lives behind it. Into a cluster router, a processed
// tuple is durable once appended and queryable once the owning node
// consumes it; into a Lambda architecture, each tuple reaches both the
// master log and the speed layer in one call, and a rejected
// observation never reaches the master log.
package engine

import (
	"repro/internal/analytics"
	"repro/internal/core"
	"repro/internal/store"
)

// SinkBolt applies each message's observation to a serving backend. It is
// a terminal bolt: it emits nothing downstream; concurrent query traffic
// reads the backend directly through analytics.Backend.Query.
type SinkBolt struct {
	be      analytics.Backend
	extract func(Message) (store.Observation, bool)
}

// NewSinkBolt returns a bolt sinking into be. extract maps a message to
// an observation, returning false to skip the message; nil uses
// DefaultExtract. One SinkBolt is safe to share across tasks (via a
// BoltFactory returning the same instance): every Backend implementation
// is safe for concurrent writers.
func NewSinkBolt(be analytics.Backend, extract func(Message) (store.Observation, bool)) (*SinkBolt, error) {
	if be == nil {
		return nil, core.Errf("SinkBolt", "backend", "must be non-nil")
	}
	if extract == nil {
		extract = DefaultExtract
	}
	return &SinkBolt{be: be, extract: extract}, nil
}

// DefaultExtract accepts messages whose Value already is a
// store.Observation (by value or pointer).
func DefaultExtract(m Message) (store.Observation, bool) {
	switch v := m.Value.(type) {
	case store.Observation:
		return v, true
	case *store.Observation:
		if v != nil {
			return *v, true
		}
	}
	return store.Observation{}, false
}

// Backend returns the serving backend the bolt sinks into.
func (b *SinkBolt) Backend() analytics.Backend { return b.be }

// Process implements Bolt. A backend error (unregistered metric, negative
// time) fails the tuple tree, so under at-least-once semantics a
// transient failure is replayed; skipped messages (extract false) and
// late drops (counted by the backend's store) are not failures.
func (b *SinkBolt) Process(m Message, _ func(Message)) error {
	obs, ok := b.extract(m)
	if !ok {
		return nil
	}
	return b.be.Observe(obs)
}

// Flush settles the backend's producer-side buffers, when it has any
// (the cluster router's per-partition append batches, Lambda's cluster
// mode); synchronous backends make it a no-op. Call it after a topology
// run completes so the tail of the stream is not left sitting in
// producer-side batches.
func (b *SinkBolt) Flush() {
	if f, ok := b.be.(analytics.Flusher); ok {
		f.Flush()
	}
}

// Factory returns a BoltFactory handing every task this same bolt,
// the common parallelism-N wiring for a SinkBolt.
func (b *SinkBolt) Factory() BoltFactory {
	return func(int) Bolt { return b }
}
