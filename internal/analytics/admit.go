// admit.go is the admission decorator over the Backend contract, in the
// Instrument idiom: wrap any serving backend and every write is priced
// against the controller's token buckets before it can touch state.
// Queries are never admitted — overload control protects the write
// path; reads are already bounded by deadlines and the read cache.
package analytics

import (
	"context"

	"repro/internal/admission"
	"repro/internal/store"
)

// Admit wraps be so every Observe and ObserveBatch first clears
// ctrl.Admit for its metric. A shed write returns the controller's
// typed *admission.Overload (matching admission.ErrOverloaded via
// errors.Is) and provably never reaches the backend — batches are
// admitted in full before a single observation is delegated, riding
// the BatchObserver all-or-nothing contract underneath.
//
// A nil controller returns be unchanged, so call sites can wire
// admission unconditionally. The admitted-but-unthrottled hot path
// adds no allocations over the bare backend (pinned by the alloc gate
// in this package's benchmarks).
func Admit(be Backend, ctrl *admission.Controller) Backend {
	if ctrl == nil {
		return be
	}
	return &admitted{be: be, ctrl: ctrl}
}

type admitted struct {
	be   Backend
	ctrl *admission.Controller
}

func (a *admitted) RegisterMetric(name string, proto store.Prototype) error {
	return a.be.RegisterMetric(name, proto)
}

func (a *admitted) Observe(obs store.Observation) error {
	if err := a.ctrl.Admit(obs.Metric, 1); err != nil {
		return err
	}
	return a.be.Observe(obs)
}

// ObserveBatch admits the whole batch before delegating any of it, so
// a shed batch mutates nothing. Runs of the same metric are priced in
// one Admit call (the common shape — the serving edge and the preload
// both batch per metric or in metric-major order). When a later run
// sheds, tokens granted to earlier runs in the same batch stay spent:
// admission accounting is conservative under partial-batch shed, but
// backend state is untouched either way.
func (a *admitted) ObserveBatch(obs []store.Observation) error {
	for i := 0; i < len(obs); {
		j := i + 1
		for j < len(obs) && obs[j].Metric == obs[i].Metric {
			j++
		}
		if err := a.ctrl.Admit(obs[i].Metric, j-i); err != nil {
			return err
		}
		i = j
	}
	return ObserveBatch(a.be, obs)
}

func (a *admitted) Query(req store.QueryRequest) (store.QueryResult, error) {
	return a.be.Query(req)
}

func (a *admitted) Keys(metric string) []string { return a.be.Keys(metric) }

func (a *admitted) Stats() store.Stats { return a.be.Stats() }

// QueryContext delegates deadline-aware queries (unadmitted, like
// Query) so the decorator composes with the serving edge.
func (a *admitted) QueryContext(ctx context.Context, req store.QueryRequest) (store.QueryResult, error) {
	return QueryContext(ctx, a.be, req)
}

// Flush settles the backend's producer-side buffers when it has any.
func (a *admitted) Flush() {
	if f, ok := a.be.(Flusher); ok {
		f.Flush()
	}
}
