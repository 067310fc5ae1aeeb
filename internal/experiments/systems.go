package experiments

import (
	"errors"
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/engine"
	"repro/internal/frequency"
	"repro/internal/histogram"
	"repro/internal/lambda"
	"repro/internal/mqlog"
	"repro/internal/quantile"
	"repro/internal/store"
	"repro/internal/wavelet"
	"repro/internal/workload"
)

// S2_1_Histograms compares V-optimal, equi-width and end-biased SSE on an
// unevenly-segmented signal.
func S2_1_Histograms() Table {
	t := Table{
		ID:     "S2.1",
		Title:  "Histograms (Section 2 synopsis)",
		Claim:  "V-optimal minimizes SSE; equi-width pays on uneven segments; end-biased wins on Zipf frequencies",
		Header: []string{"histogram", "signal", "SSE", "vs-voptimal"},
	}
	rng := workload.NewRNG(201)
	vals := make([]float64, 0, 400)
	levels := []float64{0, 40, 42, -25, 60}
	widths := []int{200, 40, 80, 40, 40}
	for li, lv := range levels {
		for i := 0; i < widths[li]; i++ {
			vals = append(vals, lv+rng.NormFloat64())
		}
	}
	const b = 5
	_, vsse, _ := histogram.VOptimal(vals, b)
	ew := histogram.EquiWidthIndexBuckets(vals, b)
	esse := histogram.SSEOfBuckets(vals, ew)
	t.AddRow("v-optimal", "5 uneven segments", f(vsse), "1.00x")
	t.AddRow("equi-width", "5 uneven segments", f(esse), fmt.Sprintf("%.1fx", esse/math.Max(vsse, 1e-9)))

	// End-biased on Zipf frequencies: compare frequency-model error
	// against a uniform model.
	eb, _ := histogram.NewEndBiased(50)
	z := workload.NewZipf(rng, 1000, 1.3)
	const n = 50000
	counts := map[float64]uint64{}
	for i := 0; i < n; i++ {
		v := float64(z.Draw())
		eb.Update(v)
		counts[v]++
	}
	var ebErr, uniErr float64
	uniform := float64(n) / float64(len(counts))
	for v, c := range counts {
		ebErr += math.Abs(eb.EstimateFreq(v) - float64(c))
		uniErr += math.Abs(uniform - float64(c))
	}
	t.AddRow("end-biased", "zipf frequencies", f(ebErr/float64(len(counts))),
		fmt.Sprintf("uniform=%.1f", uniErr/float64(len(counts))))
	return t
}

// S2_2_Wavelets measures Haar top-k L2 reconstruction error.
func S2_2_Wavelets() Table {
	t := Table{
		ID:     "S2.2",
		Title:  "Wavelets (Section 2 synopsis)",
		Claim:  "top-k Haar coefficients minimize L2 reconstruction error; error falls monotonically in k",
		Header: []string{"coefficients kept", "L2 error", "fraction of signal norm"},
	}
	spec := workload.SeriesSpec{N: 1024, Base: 50, SeasonAmp: 20, SeasonLen: 128, NoiseSD: 3}
	signal := spec.Generate(workload.NewRNG(202), nil).Values
	norm := 0.0
	for _, v := range signal {
		norm += v * v
	}
	norm = math.Sqrt(norm)
	for _, k := range []int{4, 16, 64, 256, 1024} {
		s, _ := wavelet.NewSynopsis(signal, k)
		e := wavelet.L2Error(signal, s.Reconstruct())
		t.AddRow(d(k), f(e), pct(e/norm))
	}
	return t
}

// T2_1_Semantics runs the wordcount topology under both delivery
// guarantees with injected failures, measuring loss, duplication and
// throughput — the central semantics comparison of Table 2.
func T2_1_Semantics() Table {
	t := Table{
		ID:     "T2.1",
		Title:  "Table 2: delivery semantics under failure (Storm/Heron acking model)",
		Claim:  "at-most-once loses failed tuples; at-least-once replays (duplicates possible, no loss); acking costs throughput",
		Header: []string{"semantics", "failures", "delivered", "lost", "duplicated", "tuples/sec"},
	}
	const tuples = 50000
	const failEvery = 400
	run := func(sem engine.Semantics) (delivered, lost, dup uint64, rate float64) {
		var deliveredCount sync.Map
		emitted := 0
		spout := engine.SpoutFunc(func() (engine.Message, bool) {
			if emitted >= tuples {
				return engine.Message{}, false
			}
			emitted++
			return engine.Message{Key: fmt.Sprintf("m%d", emitted-1), Value: 1}, true
		})
		var n int64
		flaky := func(int) engine.Bolt {
			return engine.BoltFunc(func(m engine.Message, emit func(engine.Message)) error {
				c := atomic.AddInt64(&n, 1)
				if c%failEvery == 0 {
					// Alternate the two real-world failure shapes: crash
					// before any output (clean loss) and crash after the
					// side effect (the classic duplicate source on replay).
					if (c/failEvery)%2 == 0 {
						emit(m)
					}
					return errors.New("injected")
				}
				emit(m)
				return nil
			})
		}
		sink := func(int) engine.Bolt {
			return engine.BoltFunc(func(m engine.Message, emit func(engine.Message)) error {
				v, _ := deliveredCount.LoadOrStore(m.Key, new(int64))
				atomic.AddInt64(v.(*int64), 1)
				return nil
			})
		}
		top, err := engine.NewBuilder().
			AddSpout("src", spout).
			AddBolt("flaky", flaky, 4, engine.ShuffleFrom("src")).
			AddBolt("sink", sink, 4, engine.FieldsFrom("flaky")).
			Build(engine.Config{Semantics: sem, MaxRetries: 10})
		if err != nil {
			panic(err)
		}
		start := time.Now()
		top.Run()
		elapsed := time.Since(start).Seconds()
		for i := 0; i < tuples; i++ {
			v, ok := deliveredCount.Load(fmt.Sprintf("m%d", i))
			if !ok {
				lost++
				continue
			}
			c := atomic.LoadInt64(v.(*int64))
			delivered++
			if c > 1 {
				dup++
			}
		}
		return delivered, lost, dup, float64(tuples) / elapsed
	}
	dAMO, lAMO, dupAMO, rateAMO := run(engine.AtMostOnce)
	t.AddRow("at-most-once", d(tuples/failEvery), d(dAMO), d(lAMO), d(dupAMO), f(rateAMO))
	dALO, lALO, dupALO, rateALO := run(engine.AtLeastOnce)
	t.AddRow("at-least-once", d(tuples/failEvery), d(dALO), d(lALO), d(dupALO), f(rateALO))
	return t
}

// T2_2_Grouping measures scaling across worker counts for shuffle and
// fields groupings on a skewed key distribution.
func T2_2_Grouping() Table {
	t := Table{
		ID:     "T2.2",
		Title:  "Table 2: groupings and parallelism",
		Claim:  "shuffle balances load regardless of skew; fields grouping is key-local but inherits skew",
		Header: []string{"grouping", "workers", "tuples/sec", "max/min task load"},
	}
	const tuples = 100000
	keys := workload.Keys(workload.NewZipf(workload.NewRNG(203), 1000, 1.2).Stream(tuples))
	run := func(grouping engine.Input, workers int) (rate float64, imbalance float64) {
		loads := make([]int64, workers)
		i := 0
		spout := engine.SpoutFunc(func() (engine.Message, bool) {
			if i >= tuples {
				return engine.Message{}, false
			}
			i++
			return engine.Message{Key: keys[i-1], Value: 1}, true
		})
		work := func(task int) engine.Bolt {
			return engine.BoltFunc(func(m engine.Message, emit func(engine.Message)) error {
				atomic.AddInt64(&loads[task], 1)
				return nil
			})
		}
		top, err := engine.NewBuilder().
			AddSpout("src", spout).
			AddBolt("work", work, workers, grouping).
			Build(engine.Config{})
		if err != nil {
			panic(err)
		}
		start := time.Now()
		top.Run()
		elapsed := time.Since(start).Seconds()
		minL, maxL := loads[0], loads[0]
		for _, l := range loads {
			if l < minL {
				minL = l
			}
			if l > maxL {
				maxL = l
			}
		}
		if minL == 0 {
			minL = 1
		}
		return float64(tuples) / elapsed, float64(maxL) / float64(minL)
	}
	for _, workers := range []int{1, 2, 4, 8} {
		rate, imb := run(engine.ShuffleFrom("src"), workers)
		t.AddRow("shuffle", d(workers), f(rate), fmt.Sprintf("%.2f", imb))
	}
	for _, workers := range []int{1, 2, 4, 8} {
		rate, imb := run(engine.FieldsFrom("src"), workers)
		t.AddRow("fields", d(workers), f(rate), fmt.Sprintf("%.2f", imb))
	}
	return t
}

// T2_3_Broker compares direct channel links against log-mediated stages
// (the Samza design), measuring the cost and the replayability benefit.
func T2_3_Broker() Table {
	t := Table{
		ID:     "T2.3",
		Title:  "Table 2: broker-mediated stages (Samza/Kafka design)",
		Claim:  "persisting stages to a log costs throughput but buys replay and inter-job decoupling",
		Header: []string{"wiring", "tuples/sec", "replayable", "consumer-lag-visible"},
	}
	const tuples = 200000
	// Direct: in-process topology.
	{
		i := 0
		spout := engine.SpoutFunc(func() (engine.Message, bool) {
			if i >= tuples {
				return engine.Message{}, false
			}
			i++
			return engine.Message{Key: "k", Value: i}, true
		})
		var count int64
		sink := func(int) engine.Bolt {
			return engine.BoltFunc(func(m engine.Message, emit func(engine.Message)) error {
				atomic.AddInt64(&count, 1)
				return nil
			})
		}
		top, _ := engine.NewBuilder().
			AddSpout("src", spout).
			AddBolt("sink", sink, 2, engine.ShuffleFrom("src")).
			Build(engine.Config{})
		start := time.Now()
		top.Run()
		t.AddRow("direct-channels", f(float64(tuples)/time.Since(start).Seconds()), "no", "no")
	}
	// Log-mediated: produce to the broker, then consume via a group.
	{
		broker := mqlog.NewBroker()
		topic, _ := broker.CreateTopic("stage", 4, 0)
		start := time.Now()
		payload := []byte("x")
		for i := 0; i < tuples; i++ {
			topic.Produce(fmt.Sprintf("k%d", i%64), payload)
		}
		group, _ := mqlog.NewConsumerGroup(broker, topic, "job")
		group.Join("w1")
		group.Join("w2")
		consumed := 0
		for _, w := range []string{"w1", "w2"} {
			for {
				batches := group.Poll(w, 8192)
				if len(batches) == 0 {
					break
				}
				for _, b := range batches {
					consumed += len(b.Messages)
					group.Commit(b.Partition, b.Next)
				}
			}
		}
		elapsed := time.Since(start).Seconds()
		if consumed != tuples {
			panic("broker lost messages")
		}
		t.AddRow("log-mediated", f(float64(tuples)/elapsed), "yes", "yes")
	}
	return t
}

// F1_Lambda regenerates Figure 1 on the store-backed architecture: the
// master dataset is an mqlog topic, the batch layer recomputes sealed
// views from it at frozen end offsets, the speed layer is a sharded
// sketch store truncated at every handoff, and queries merge the two.
// The table shows merged correctness, the staleness a batch-only system
// suffers between recomputes, and batch recompute cost against the log.
func F1_Lambda() Table {
	t := Table{
		ID:     "F1",
		Title:  "Figure 1: Lambda Architecture (store-backed)",
		Claim:  "merged (batch+speed) queries stay exact at all times; batch-only answers go stale between runs",
		Header: []string{"tick", "staleness", "batch-only-err", "merged-err", "speed-obs"},
	}
	geom := store.Config{Shards: 8, BucketWidth: 1000, RingBuckets: 64}
	arch, err := lambda.New(lambda.Config{Partitions: 4, Batch: geom, Speed: geom})
	if err != nil {
		panic(err)
	}
	defer arch.Close()
	proto, err := store.NewFreqProto(2048, 4, 204)
	if err != nil {
		panic(err)
	}
	if err := arch.RegisterMetric("hits", proto); err != nil {
		panic(err)
	}
	exact := map[string]uint64{}
	rng := workload.NewRNG(204)
	z := workload.NewZipf(rng, 200, 1.1)
	const total = 60000
	const batchEvery = 20000
	count := func(res store.QueryResult, err error) uint64 {
		if err != nil {
			panic(err)
		}
		return res.Count("hit")
	}
	probeErr := func() (float64, float64) {
		var bErr, mErr float64
		for i := 0; i < 200; i++ {
			k := fmt.Sprintf("k%d", i)
			req := store.QueryRequest{Metric: "hits", Key: k, From: 0, To: total}
			b := count(arch.BatchOnlyQuery(req))
			m := count(arch.Query(req))
			bErr += math.Abs(float64(b) - float64(exact[k]))
			mErr += math.Abs(float64(m) - float64(exact[k]))
		}
		return bErr, mErr
	}
	for i := 0; i < total; i++ {
		k := fmt.Sprintf("k%d", z.Draw())
		if err := arch.Append(store.Observation{Metric: "hits", Key: k, Item: "hit", Value: 1, Time: int64(i)}); err != nil {
			panic(err)
		}
		exact[k]++
		if i%batchEvery == batchEvery-1 {
			bErr, mErr := probeErr()
			t.AddRow(d(i+1)+" (pre-batch)", d(arch.Staleness()), f(bErr), f(mErr), d(arch.SpeedStats().Observed))
			start := time.Now()
			if _, err := arch.RunBatch(); err != nil {
				panic(err)
			}
			recompute := time.Since(start)
			bErr, mErr = probeErr()
			t.AddRow(fmt.Sprintf("%d (post-batch %.1fms)", i+1, recompute.Seconds()*1000),
				d(arch.Staleness()), f(bErr), f(mErr), d(arch.SpeedStats().Observed))
		}
	}
	return t
}

// A1_ConservativeUpdate is the Count-Min conservative-update ablation.
func A1_ConservativeUpdate() Table {
	t := Table{
		ID:     "A1",
		Title:  "Ablation: Count-Min conservative update",
		Claim:  "conservative update tightens overestimates at equal memory (cost: loses mergeability)",
		Header: []string{"width", "plain avg-overcount", "conservative avg-overcount", "improvement"},
	}
	const n = 100000
	stream := frequency.ZipfStrings(205, n, 10000, 1.0)
	truth := map[string]uint64{}
	for _, it := range stream {
		truth[it]++
	}
	for _, width := range []int{128, 512, 2048} {
		plain, _ := frequency.NewCountMin(width, 4, 1)
		cons, _ := frequency.NewCountMin(width, 4, 1)
		cons.SetConservative(true)
		for _, it := range stream {
			plain.UpdateString(it, 1)
			cons.UpdateString(it, 1)
		}
		var pe, ce float64
		for it, c := range truth {
			pe += float64(plain.EstimateString(it) - c)
			ce += float64(cons.EstimateString(it) - c)
		}
		pe /= float64(len(truth))
		ce /= float64(len(truth))
		imp := "-"
		if ce > 0 {
			imp = fmt.Sprintf("%.1fx", pe/ce)
		}
		t.AddRow(d(width), f(pe), f(ce), imp)
	}
	return t
}

// A4_AckingOverhead isolates the throughput cost of XOR ack tracking (the
// Storm -> Heron motivation applied to our engine).
func A4_AckingOverhead() Table {
	t := Table{
		ID:     "A4",
		Title:  "Ablation: acking overhead (no failures injected)",
		Claim:  "tuple-tree tracking costs throughput even on clean runs — the price of the at-least-once guarantee",
		Header: []string{"semantics", "tuples/sec", "relative"},
	}
	const tuples = 200000
	run := func(sem engine.Semantics) float64 {
		i := 0
		spout := engine.SpoutFunc(func() (engine.Message, bool) {
			if i >= tuples {
				return engine.Message{}, false
			}
			i++
			return engine.Message{Key: fmt.Sprintf("k%d", i%256), Value: 1}, true
		})
		pass := func(int) engine.Bolt {
			return engine.BoltFunc(func(m engine.Message, emit func(engine.Message)) error {
				emit(m)
				return nil
			})
		}
		var count int64
		sink := func(int) engine.Bolt {
			return engine.BoltFunc(func(m engine.Message, emit func(engine.Message)) error {
				atomic.AddInt64(&count, 1)
				return nil
			})
		}
		top, _ := engine.NewBuilder().
			AddSpout("src", spout).
			AddBolt("mid", pass, 4, engine.ShuffleFrom("src")).
			AddBolt("sink", sink, 4, engine.FieldsFrom("mid")).
			Build(engine.Config{Semantics: sem})
		start := time.Now()
		top.Run()
		return float64(tuples) / time.Since(start).Seconds()
	}
	amo := run(engine.AtMostOnce)
	alo := run(engine.AtLeastOnce)
	t.AddRow("at-most-once", f(amo), "1.00x")
	t.AddRow("at-least-once", f(alo), fmt.Sprintf("%.2fx", alo/amo))
	return t
}

// A5_GKCompression sweeps GK eps to show the space/accuracy trade.
func A5_GKCompression() Table {
	t := Table{
		ID:     "A5",
		Title:  "Ablation: Greenwald–Khanna eps vs space",
		Claim:  "summary size grows ~1/eps while observed rank error stays below eps",
		Header: []string{"eps", "tuples", "bytes", "p50 rank err"},
	}
	const n = 200000
	rng := workload.NewRNG(206)
	stream := make([]float64, n)
	for i := range stream {
		stream[i] = rng.NormFloat64()
	}
	sorted := append([]float64(nil), stream...)
	sortFloats(sorted)
	for _, eps := range []float64{0.05, 0.01, 0.002} {
		g, _ := quantile.NewGK(eps)
		for _, v := range stream {
			g.Update(v)
		}
		got := g.Query(0.5)
		r := float64(searchFloats(sorted, got))
		t.AddRow(f(eps), d(g.Tuples()), d(g.Bytes()), pct(math.Abs(r-0.5*n)/n))
	}
	return t
}
