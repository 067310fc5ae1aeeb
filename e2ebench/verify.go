package main

import (
	"fmt"
	"reflect"
	"strings"

	"repro/internal/store"
)

// verdict is the outcome of the reference check.
type verdict struct {
	cells int
	// wrong counts cells whose answer differs from the reference fed
	// every acknowledged observation.
	wrong int
	// routerWindow and cacheWindow count the wrong cells the two
	// documented cluster-mode windows explain (lambda-cluster only):
	// acknowledged writes still in the router's buffers, and a cached
	// answer filled after the ack but before the node applied the write.
	routerWindow, cacheWindow int
	// unexplained counts wrong cells no documented window explains.
	unexplained int
	detail      string // first unexplained cell
}

func (v verdict) ok() bool { return v.unexplained == 0 }

// answered is one verification query's answer as the edge served it.
type answered struct {
	req    store.QueryRequest
	res    store.QueryResult
	cached bool
}

// ask sends the workload's own query shapes through the edge, cache
// included, at the final stream time.
func (h *harness) ask(t int64) ([]answered, error) {
	var out []answered
	for _, req := range h.g.verifyQueries(t, h.panels) {
		res, cached, err := h.query(req, "verify", "", false)
		if err != nil {
			return nil, fmt.Errorf("verify query %v: %w", req, err)
		}
		out = append(out, answered{req: req, res: res, cached: cached})
	}
	return out, nil
}

// querier is what the reference check asks: a reference backend.
type querier interface {
	Query(store.QueryRequest) (store.QueryResult, error)
}

// regenerate returns an acknowledged request's observations.
func (h *harness) regenerate(a ackRec) []store.Observation {
	if a.phase == phasePreload {
		return h.g.preloadBatch(int64(a.idx))
	}
	return h.g.batch(a.phase, a.idx, a.t)
}

// reference builds a store fed every acknowledged write in acknowledged
// order, with the serving stack's geometry, off the clock. Only series
// the check asks about are fed: store series are independent (no byte
// budget, no idle eviction, no hot-key splaying in this geometry), so
// the rest cannot change an answer and would only cost memory.
func (h *harness) reference(acked []ackRec, keys map[string]bool) (*store.Store, error) {
	ref, err := h.emptyStore()
	if err != nil {
		return nil, err
	}
	for _, a := range acked {
		b := h.regenerate(a)
		kept := b[:0]
		for _, o := range b {
			if keys[o.Key] {
				kept = append(kept, o)
			}
		}
		if err := ref.ObserveBatch(kept); err != nil {
			return nil, err
		}
	}
	return ref, nil
}

func (h *harness) protos() (map[string]store.Prototype, error) {
	out := make(map[string]store.Prototype, len(h.s.specs))
	for name, spec := range h.s.specs {
		proto, err := spec.Prototype()
		if err != nil {
			return nil, err
		}
		out[name] = proto
	}
	return out, nil
}

func (h *harness) emptyStore() (*store.Store, error) {
	st, err := store.New(h.g.m.storeConfig())
	if err != nil {
		return nil, err
	}
	protos, err := h.protos()
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

// lambdaRef answers the way lambda.Architecture merges: per cell, the
// batch view's synopsis combined with the speed layer's, then (for an
// aggregate) the merged cells in key order. Quantile sketches are
// sensitive to that merge structure, so the reference keeps it: its
// batch side is a view frozen at the system's own batch fence and its
// speed side a store of everything past the fence.
type lambdaRef struct {
	protos map[string]store.Prototype
	batch  *store.FrozenView
	speed  *store.Store
}

func (l lambdaRef) Query(req store.QueryRequest) (store.QueryResult, error) {
	req, err := req.Normalize()
	if err != nil {
		return store.QueryResult{}, err
	}
	var answers []store.Answer
	for _, metric := range req.Metrics {
		sub := store.QueryRequest{Metric: metric, Keys: req.Keys, From: req.From, To: req.To}
		b, err := l.batch.Query(sub)
		if err != nil {
			return store.QueryResult{}, err
		}
		s, err := l.speed.Query(sub)
		if err != nil {
			return store.QueryResult{}, err
		}
		merged := make([]store.Synopsis, len(req.Keys))
		for j := range req.Keys {
			if merged[j], err = store.CombineSnapshots(l.protos[metric], b.RawSynopses()[j], s.RawSynopses()[j]); err != nil {
				return store.QueryResult{}, err
			}
		}
		if req.Aggregate {
			comb, err := store.CombineSnapshots(l.protos[metric], merged...)
			if err != nil {
				return store.QueryResult{}, err
			}
			answers = append(answers, store.NewAggregateAnswer(metric, comb))
			continue
		}
		for j, key := range req.Keys {
			answers = append(answers, store.NewAnswer(metric, key, merged[j]))
		}
	}
	return store.NewQueryResult(answers), nil
}

// lambdaRefs builds the two lambda-cluster references at the system's
// current batch fence: atLog from what reached the ingest log, and
// acked from that plus the acknowledged writes the router still
// buffers. The log holds each partition's writes in acknowledged order
// (one ordered producer; probes aside), so the buffered writes are each
// partition's acknowledged suffix past its logged prefix.
func (h *harness) lambdaRefs(acked []ackRec) (ackRef, logRef lambdaRef, err error) {
	protos, err := h.protos()
	if err != nil {
		return ackRef, logRef, err
	}
	topic := h.s.ar.Topic()
	fence := h.s.ar.BatchView().EndOffsets()
	batch, err := store.FreezeAt(h.g.m.storeConfig(), protos, topic, fence, nil)
	if err != nil {
		return ackRef, logRef, err
	}
	speedLog, err := h.emptyStore()
	if err != nil {
		return ackRef, logRef, err
	}
	speedAck, err := h.emptyStore()
	if err != nil {
		return ackRef, logRef, err
	}
	logged := make([]int, topic.Partitions())
	for pid := range logged {
		end := topic.EndOffset(pid)
		for _, st := range []*store.Store{speedLog, speedAck} {
			if _, _, _, err := store.ReplayPartitionTo(st, topic, pid, fence[pid], end, nil); err != nil {
				return ackRef, logRef, err
			}
		}
		for off := uint64(0); off < end; {
			msgs, next, _, err := topic.Fetch(pid, off, 4096)
			if err != nil {
				return ackRef, logRef, err
			}
			for _, m := range msgs {
				if !strings.HasPrefix(m.Key, "probe-") {
					logged[pid]++
				}
			}
			off = next
		}
	}
	seen := make([]int, len(logged))
	var buffered []store.Observation
	for _, a := range acked {
		for _, o := range h.regenerate(a) {
			pid := topic.PartitionFor(o.Key)
			if seen[pid]++; seen[pid] > logged[pid] {
				buffered = append(buffered, o)
			}
		}
	}
	for pid := range seen {
		if seen[pid] < logged[pid] {
			return ackRef, logRef, fmt.Errorf("partition %d logged %d workload writes, only %d acknowledged", pid, logged[pid], seen[pid])
		}
	}
	if err := speedAck.ObserveBatch(buffered); err != nil {
		return ackRef, logRef, err
	}
	return lambdaRef{protos, batch, speedAck}, lambdaRef{protos, batch, speedLog}, nil
}

// check compares every answered cell with ref. For lambda-cluster,
// logRef (nil otherwise) attributes wrong cells to the documented
// windows: buffered says the router held acknowledged writes.
func check(got []answered, ref, logRef querier, buffered bool) (verdict, error) {
	var v verdict
	for _, a := range got {
		want, err := ref.Query(a.req)
		if err != nil {
			return v, err
		}
		if want.Len() != a.res.Len() {
			return v, fmt.Errorf("verify %v: %d cells, reference %d", a.req, a.res.Len(), want.Len())
		}
		var atLog store.QueryResult
		if logRef != nil {
			if atLog, err = logRef.Query(a.req); err != nil {
				return v, err
			}
		}
		for i, cell := range a.res.Answers() {
			v.cells++
			if sameAnswer(cell, want.Answers()[i]) {
				continue
			}
			v.wrong++
			switch {
			case logRef != nil && a.cached:
				v.cacheWindow++
			case logRef != nil && buffered && sameAnswer(cell, atLog.Answers()[i]):
				v.routerWindow++
			default:
				v.unexplained++
				if v.detail == "" {
					v.detail = fmt.Sprintf("%s/%s over [%d,%d) cached=%t", cell.Metric, cell.Key, a.req.From, a.req.To, a.cached)
				}
			}
		}
	}
	return v, nil
}

// sameAnswer is the per-family accessor equality the cross-backend
// conformance suite pins (TestBackendsAgreeExactly).
func sameAnswer(a, b store.Answer) bool {
	if a.Metric != b.Metric || a.Key != b.Key || a.Family() != b.Family() {
		return false
	}
	switch a.Family() {
	case store.FamilyDistinct:
		return a.Distinct() == b.Distinct()
	case store.FamilyFreq:
		if a.Items() != b.Items() {
			return false
		}
		for r := 0; r < 16; r++ {
			item := fmt.Sprintf("ref-%02d", r)
			if a.Count(item) != b.Count(item) {
				return false
			}
		}
		return true
	case store.FamilyTopK:
		return reflect.DeepEqual(a.TopK(5), b.TopK(5))
	case store.FamilyQuantile:
		for _, phi := range []float64{0.5, 0.9, 0.99} {
			if a.Quantile(phi) != b.Quantile(phi) {
				return false
			}
		}
		return true
	}
	return reflect.DeepEqual(a.Raw(), b.Raw())
}

// verify quiesces the stack, asks the workload's query shapes at the
// final stream time and checks every cell against the reference.
func (h *harness) verify(vtEnd float64) (verdict, error) {
	if _, err := h.quiesce(); err != nil {
		return verdict{}, err
	}
	got, err := h.ask(h.g.eventTime(vtEnd))
	if err != nil {
		return verdict{}, err
	}
	h.lane.Lock()
	acked := append([]ackRec(nil), h.acked...)
	h.lane.Unlock()
	if h.s.ar != nil {
		ackRef, logRef, err := h.lambdaRefs(acked)
		if err != nil {
			return verdict{}, err
		}
		return check(got, ackRef, logRef, h.routerBuffered() > 0)
	}
	keys := map[string]bool{}
	for _, a := range got {
		for _, k := range a.req.Keys {
			keys[k] = true
		}
	}
	ref, err := h.reference(acked, keys)
	if err != nil {
		return verdict{}, err
	}
	return check(got, ref, nil, false)
}

// routerBuffered is acknowledged minus appended observations: what the
// cluster router holds in its partition buffers.
func (h *harness) routerBuffered() uint64 {
	var appended uint64
	for _, e := range h.s.ar.Topic().EndOffsets() {
		appended += e
	}
	if acked := h.s.ar.Appended(); acked > appended {
		return acked - appended
	}
	return 0
}
