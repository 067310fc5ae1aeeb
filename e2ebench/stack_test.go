package main

import (
	"encoding"
	"testing"
	"time"

	"repro/internal/admission"
	"repro/internal/analytics"
	"repro/internal/dstore"
	"repro/internal/lambda"
	"repro/internal/serve"
	"repro/internal/store"
	"repro/internal/telemetry"
)

func optional(be analytics.Backend) [4]bool {
	_, b := be.(analytics.BatchObserver)
	_, c := be.(analytics.ContextQuerier)
	_, f := be.(analytics.Flusher)
	_, p := be.(analytics.PointQuerier)
	return [4]bool{b, c, f, p}
}

// bare exposes only the Backend methods of what it embeds; flushing adds
// Flush and nothing else.
type bare struct{ analytics.Backend }

type flushing struct{ analytics.Backend }

func (flushing) Flush() {}

func TestWrapperForwardsExactlyTheOptionalInterfaces(t *testing.T) {
	st, err := store.New(store.Config{})
	if err != nil {
		t.Fatal(err)
	}
	cl, err := dstore.New(dstore.Config{Partitions: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	ar, err := lambda.New(lambda.Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer ar.Close()
	ctrl, err := admission.New(admission.Config{Rate: 1e9})
	if err != nil {
		t.Fatal(err)
	}
	backends := map[string]analytics.Backend{
		"store":      st,
		"router":     cl.Router(),
		"lambda":     ar,
		"client":     serve.NewClient("http://127.0.0.1:1", nil),
		"instrument": analytics.Instrument(st, telemetry.New(), "store"),
		"admit":      analytics.Admit(st, ctrl),
		"bare":       bare{st},
		"flushing":   flushing{st},
	}
	masks := map[[4]bool]bool{}
	for name, be := range backends {
		want := optional(be)
		masks[want] = true
		for _, boundary := range []string{spanRaw, spanInstr, spanAdmit} {
			if got := optional(wrapBackend(be, newRecorder(), boundary)); got != want {
				t.Errorf("%s wrapped at %s: optional interfaces %v, want %v", name, boundary, got, want)
			}
		}
	}
	if len(masks) < 4 {
		t.Fatalf("only %d distinct interface sets exercised", len(masks))
	}
}

// smallRun sets a stack up with a short history, sends one second of
// the workload's schedule one request at a time, and asks the
// verification queries.
func smallRun(t *testing.T, workload string, seed uint64, traced bool) (*harness, []answered) {
	t.Helper()
	m, err := loadManifest()
	if err != nil {
		t.Fatal(err)
	}
	w, err := m.workload(workload)
	if err != nil {
		t.Fatal(err)
	}
	w.Preload = 8
	g := newGen(m, w, seed)
	s, err := newStack(m, w, traced)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.close)
	if err := s.setup(g); err != nil {
		t.Fatal(err)
	}
	h := newHarness(s, g)
	if h.batcher != nil {
		t.Cleanup(h.batcher.close)
	}
	h.alternate = traced
	now := func() time.Time { return time.Now() }
	for _, o := range g.schedule(phaseFixed, 1, 0) {
		switch o.kind {
		case opObserve:
			h.observe(o, now, nil)
		case opQuery:
			h.workloadQuery(o, now, nil)
		default:
			h.probe(o, now, nil, false)
		}
	}
	if _, err := h.quiesce(); err != nil {
		t.Fatal(err)
	}
	got, err := h.ask(g.eventTime(1))
	if err != nil {
		t.Fatal(err)
	}
	if f := h.failed.Load(); f > 0 {
		t.Fatalf("%d requests failed: %v", f, *h.firstErr.Load())
	}
	return h, got
}

func marshal(t *testing.T, a store.Answer) []byte {
	t.Helper()
	b, err := a.Raw().(encoding.BinaryMarshaler).MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestTracedStackAnswersIdentically: the timing wrappers change no
// answer — the traced and untraced stacks, fed the same requests,
// answer every verification query byte for byte alike. The store
// backend is synchronous, so the two runs are deterministic; the
// cluster's answers depend on apply timing (see the next test).
func TestTracedStackAnswersIdentically(t *testing.T) {
	for _, workload := range []string{"ingest", "dashboard"} {
		plainH, plain := smallRun(t, workload, 3, false)
		tracedH, traced := smallRun(t, workload, 3, true)
		if plainH.s.rec != nil || tracedH.s.rec == nil {
			t.Fatal("stack tracing wiring is inverted")
		}
		if len(plain) != len(traced) {
			t.Fatalf("%s: %d vs %d answers", workload, len(plain), len(traced))
		}
		cells := 0
		for i := range plain {
			a, b := plain[i].res.Answers(), traced[i].res.Answers()
			if len(a) != len(b) {
				t.Fatalf("%s: query %d: %d vs %d cells", workload, i, len(a), len(b))
			}
			for j := range a {
				cells++
				if string(marshal(t, a[j])) != string(marshal(t, b[j])) {
					t.Fatalf("%s: query %d cell %s/%s differs between traced and untraced stacks", workload, i, a[j].Metric, a[j].Key)
				}
			}
		}
		spans := tracedH.s.rec.snapshot()
		tr := newTree(spans)
		chains := 0
		for _, s := range spans {
			if s.Name == spanCall && s.Kind == "observe" {
				if c := tr.chain(s.ID); c.raw < 0 {
					t.Fatalf("%s: traced observe %d is missing a boundary span", workload, s.ID)
				}
				chains++
			}
		}
		if cells == 0 || chains == 0 {
			t.Fatalf("%s: compared %d cells over %d traced observes", workload, cells, chains)
		}
	}
}

// TestTracedClusterStackPassesTheCheck: on lambda-cluster, where answers
// depend on when nodes apply writes, the traced stack still answers
// every verification query as the reference check expects, with the
// timing wrappers on the whole path.
func TestTracedClusterStackPassesTheCheck(t *testing.T) {
	h, got := smallRun(t, "lambda-cluster", 3, true)
	acked := append([]ackRec(nil), h.acked...)
	ackRef, logRef, err := h.lambdaRefs(acked)
	if err != nil {
		t.Fatal(err)
	}
	v, err := check(got, ackRef, logRef, h.routerBuffered() > 0)
	if err != nil {
		t.Fatal(err)
	}
	if !v.ok() {
		t.Fatalf("%d unexplained wrong answers; first %s", v.unexplained, v.detail)
	}
}
