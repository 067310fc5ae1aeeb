// Package analytics defines the unified serving contract of this
// repository: one Backend interface that the tutorial's whole platform
// design space answers queries through — the sharded speed store
// (store.Store), the partitioned store cluster (dstore.Router) and the
// Lambda Architecture's batch+speed merge (lambda.Architecture) all
// satisfy it, so a dashboard, a topology sink (engine.SinkBolt) or an
// experiment can swap serving layers without touching a call site. This
// is the Section 3 argument made literal: the platforms differ in how
// they partition, recover and trade staleness for cost, not in what a
// query means.
//
// # Contract
//
// Every Backend implementation agrees on the following semantics, pinned
// by the cross-backend conformance suite in this package's tests:
//
//   - RegisterMetric binds a metric name to the store.Prototype its bucket
//     synopses are built from. Registration happens before the first
//     write; re-registering a name is an error.
//   - Observe absorbs one observation. An observation naming an
//     unregistered metric is an error wrapping store.ErrUnknownMetric;
//     a negative time is an error. Durability and read-your-writes vary
//     by backend (the store is synchronous; the cluster appends to its
//     ingest log and is read-your-writes after Drain; Lambda dispatches
//     to the master log and speed layer).
//   - Query answers a typed store.QueryRequest over the half-open
//     stream-time range [From, To); it is the only read path. A request
//     naming an unregistered metric fails with an error wrapping
//     store.ErrUnknownMetric. A registered metric with no data for a
//     requested key or range answers an EMPTY synopsis cell, never an
//     error — absence of writes is a valid answer. Multi-key and
//     multi-metric requests fan out inside the backend (per-shard gather
//     in the store, scatter-gather in the cluster, batch+speed merge in
//     Lambda), and aggregate answers merge per-key synopses in sorted key
//     order, so Aggregate equals per-key query + store.CombineSnapshots
//     byte for byte.
//   - Keys returns the metric's resident keys (deduplicated; order is
//     backend-defined). An unknown metric answers an empty slice, not an
//     error — Keys is a discovery call, not a validation call.
//   - Stats snapshots the backend's store counters: the store's own, the
//     aggregate across cluster nodes, or the Lambda speed layer's (its
//     sealed batch view reports separately via BatchView().Stats()).
package analytics

import (
	"context"

	"repro/internal/store"
)

// Backend is the unified serving API. store.Store, dstore.Router and
// lambda.Architecture satisfy it; engine.SinkBolt sinks topology streams
// into any of them through it. See the package comment for the exact
// semantics every implementation must honor.
type Backend interface {
	// RegisterMetric binds a metric name to the prototype its bucket
	// synopses are built from.
	RegisterMetric(name string, proto store.Prototype) error
	// Observe absorbs one observation.
	Observe(obs store.Observation) error
	// Query answers one typed request; see store.QueryRequest and
	// store.QueryResult.
	Query(req store.QueryRequest) (store.QueryResult, error)
	// Keys returns the metric's resident keys.
	Keys(metric string) []string
	// Stats snapshots the backend's store counters.
	Stats() store.Stats
}

// PointQuerier is the retired inclusive-range point query.
//
// Deprecated: no backend in this module implements it; build a
// half-open store.QueryRequest and call Query. The declaration remains
// only because code outside this module still names it.
type PointQuerier interface {
	QueryPoint(metric, key string, from, to int64) (store.Synopsis, error)
}

// Flusher is the optional producer-side flush a buffering backend (the
// cluster router, Lambda in cluster mode) exposes; engine.SinkBolt calls
// it when a topology run completes. Backends with synchronous writes
// simply don't implement it.
type Flusher interface {
	Flush()
}

// ContextQuerier is the optional deadline-aware query surface: a
// backend that can abort an in-flight gather when the caller's context
// is cancelled or its deadline passes. store.Store, dstore.Router and
// lambda.Architecture all implement it (ctx threads through the store's
// per-shard fan-out and the cluster's scatter-gather), and the serving
// daemon drives every request through it. QueryContext with a live
// context answers exactly what Query would; a cancelled context yields
// an error wrapping ctx.Err(), never a partial answer.
type ContextQuerier interface {
	QueryContext(ctx context.Context, req store.QueryRequest) (store.QueryResult, error)
}

// QueryContext answers req through be honoring ctx: backends that
// implement ContextQuerier get the context threaded through their
// gathers; for the rest, ctx is checked once up front and the plain
// Query runs to completion (the contract every Backend already keeps).
func QueryContext(ctx context.Context, be Backend, req store.QueryRequest) (store.QueryResult, error) {
	if cq, ok := be.(ContextQuerier); ok {
		return cq.QueryContext(ctx, req)
	}
	if err := ctx.Err(); err != nil {
		return store.QueryResult{}, err
	}
	return be.Query(req)
}
