// Command lambda drives the store-backed Lambda Architecture (Figure 1)
// through its whole cycle on the real subsystems:
//
//  1. a topology streams observations through the generic serving sink
//     (engine.SinkBolt over the architecture's Backend face), which
//     dispatches every tuple to the immutable mqlog master topic and the
//     sketch-store speed layer;
//  2. a batch recompute freezes the log's end offsets and rebuilds a
//     sealed batch view from the master dataset alone;
//  3. merged queries combine the sealed view with the live speed
//     snapshot across all four synopsis families;
//  4. the speed layer is truncated to the uncovered log suffix at every
//     handoff — watch its observation count collapse to the tail.
//
// Run with -cluster to swap the single speed store for a partitioned
// dstore cluster consuming the same master topic through its router.
//
// Run with -dir to persist the master dataset (segmented on-disk log)
// and the batch view's checkpoint there: kill the process — even
// mid-write — and rerun with the same -dir, and the architecture reopens
// the log (truncating a torn tail), seeds the next batch view from the
// checkpoint, and replays only the log suffix past it.
package main

import (
	"flag"
	"fmt"
	"path/filepath"
	"time"

	"repro"
	"repro/internal/workload"
)

func main() {
	clusterMode := flag.Bool("cluster", false, "serve the speed layer from a partitioned store cluster")
	dir := flag.String("dir", "", "persist the master log and batch checkpoint under this directory (empty = in-memory)")
	metricsAddr := flag.String("metrics", "", "serve /metrics and /debug/analytics on this address (e.g. :9090)")
	linger := flag.Duration("linger", 0, "keep the -metrics endpoint up this long after the demo finishes")
	traceRate := flag.Float64("trace", 0, "trace sample rate in [0,1]; with -metrics also serves /debug/traces and /debug/slow")
	slowThresh := flag.Duration("slow", 2*time.Millisecond, "queries at or over this duration are kept and slow-logged (needs -trace)")
	pprofOn := flag.Bool("pprof", false, "mount net/http/pprof under /debug/pprof on the -metrics address")
	flag.Parse()

	// Telemetry and tracing are opt-in: with no -metrics flag, reg stays
	// nil and the SetTelemetry/Instrument calls below are no-ops; with no
	// -trace flag, trc stays nil the same way. With -cluster the scrape
	// covers all four layers at once: lambda, dstore, the store underneath
	// each node, and the mqlog master topic — and a sampled trace spans
	// them all, stitched across the master log.
	var reg *repro.Telemetry
	var trc *repro.Tracer
	if *traceRate > 0 {
		trc = repro.NewTracer(repro.TraceConfig{SampleRate: *traceRate, SlowThreshold: *slowThresh})
	}
	if *metricsAddr != "" {
		reg = repro.NewTelemetry()
		srv := repro.ServeMetricsWith(*metricsAddr, reg, repro.DebugOptions{Tracer: trc, Pprof: *pprofOn})
		defer srv.Close()
		fmt.Printf("telemetry: http://localhost%s/metrics and /debug/analytics\n", *metricsAddr)
		if trc != nil {
			fmt.Printf("tracing: http://localhost%s/debug/traces (chrome://tracing) and /debug/slow\n", *metricsAddr)
		}
		if *pprofOn {
			fmt.Printf("pprof: http://localhost%s/debug/pprof/\n", *metricsAddr)
		}
	}

	geom := repro.SketchStoreConfig{Shards: 8, BucketWidth: 1000, RingBuckets: 64}
	cfg := repro.LambdaConfig{Partitions: 4, Batch: geom, Speed: geom}
	// The single-store speed layer runs the hot-key write-combining path,
	// as a production speed layer under Zipf traffic would.
	cfg.Speed.HotKey = repro.SketchStoreHotKeyConfig{Replicas: 8, MaxHot: 64, PromotePct: 2, EpochWrites: 512}
	if *clusterMode {
		cfg = repro.LambdaConfig{
			Batch:        geom,
			Cluster:      &repro.StoreClusterConfig{Partitions: 8, Store: geom},
			ClusterNodes: 3,
		}
	}
	if *dir != "" {
		cfg.Durable = &repro.LogDurableConfig{Dir: filepath.Join(*dir, "log")}
		cfg.CheckpointDir = filepath.Join(*dir, "batch")
		if cfg.Cluster != nil {
			cfg.Cluster.CheckpointDir = filepath.Join(*dir, "nodes")
		}
	}
	arch, err := repro.NewLambda(cfg)
	if err != nil {
		panic(err)
	}
	defer arch.Close()
	if *dir != "" {
		if recovered := arch.MasterLen(); recovered > 0 {
			fmt.Printf("restart: recovered %d messages from the durable master log in %s\n", recovered, *dir)
		} else {
			fmt.Printf("durable master log at %s (kill and rerun to watch recovery)\n", *dir)
		}
	}

	must := func(err error) {
		if err != nil {
			panic(err)
		}
	}
	hits, err := repro.NewFreqProto(1024, 4, 7)
	must(err)
	uniq, err := repro.NewDistinctProto(12, 7)
	must(err)
	top, err := repro.NewTopKProto(64)
	must(err)
	lat, err := repro.NewQuantileProto(16, 256)
	must(err)
	must(arch.RegisterMetric("hits", hits))
	must(arch.RegisterMetric("uniq", uniq))
	must(arch.RegisterMetric("top", top))
	must(arch.RegisterMetric("lat", lat))
	arch.SetTelemetry(reg)
	if trc != nil {
		arch.SetTracer(trc)
	}

	// ---- 1. Append: a topology streams into both layers at once ----
	const tuples = 30000
	rng := workload.NewRNG(21)
	z := workload.NewZipf(rng, 64, 1.3)
	emitted := 0
	var now int64
	spout := repro.SpoutFunc(func() (repro.TupleMessage, bool) {
		if emitted >= tuples {
			return repro.TupleMessage{}, false
		}
		now = int64(emitted)
		emitted++
		key := fmt.Sprintf("page:/p%d", z.Draw())
		return repro.TupleMessage{Key: key, Value: repro.StoreObservation{
			Metric: "hits", Key: key, Item: fmt.Sprintf("u%d", rng.Uint64()%48), Value: 1, Time: now,
		}}, true
	})
	// The architecture is a repro.Backend, so the generic serving sink
	// drives it — the same bolt would drive a store or a cluster router.
	// be is the architecture behind the instrumented serving edge: the
	// sink streams through it, and the demo's queries below use it too,
	// so with -trace every request roots a span (slow ones hit /debug/slow).
	be := repro.Instrument(arch, reg, "lambda", repro.WithTracer(trc))
	bolt, err := repro.NewSinkBolt(be, nil)
	must(err)
	topo, err := repro.NewTopologyBuilder().
		AddSpout("events", spout).
		AddBolt("lambda", bolt.Factory(), 4, repro.FieldsFrom("events")).
		Build(repro.TopologyConfig{Semantics: repro.AtLeastOnce})
	must(err)
	stats := topo.Run()
	must(arch.Drain())
	fmt.Printf("topology streamed %d tuples into both layers (acked=%d)\n", tuples, stats.Acked)
	fmt.Printf("  master log: %d messages  staleness: %d  speed layer holds: %d\n\n",
		arch.MasterLen(), arch.Staleness(), arch.SpeedStats().Observed)

	probe := "page:/p0"
	// Batch-only and merged answers come through the typed serving API:
	// no type assertion, just the Count accessor on the result.
	countStale := func() uint64 {
		res, err := arch.BatchOnlyQuery(repro.QueryRequest{Metric: "hits", Key: probe, From: 0, To: now + 1})
		must(err)
		return res.Count("u0")
	}
	count := func() uint64 {
		res, err := be.Query(repro.QueryRequest{Metric: "hits", Key: probe, From: 0, To: now + 1})
		must(err)
		return res.Count("u0")
	}

	// ---- 2+3. Batch recompute, then merged queries ----
	fmt.Printf("before batch: batch-only(%s)=%d merged=%d\n",
		probe, countStale(), count())
	info, err := arch.RunBatch()
	must(err)
	if info.FromCheckpoint {
		fmt.Printf("batch v%d seeded from checkpoint (%d bucket records restored) + %d replayed from the log suffix, up to offsets %v\n",
			info.Version, info.Restored, info.Applied, info.Ends)
	} else {
		fmt.Printf("batch v%d recomputed from the log: %d observations up to offsets %v\n",
			info.Version, info.Applied, info.Ends)
	}

	// ---- 4. Speed-layer truncation: only the post-freeze tail remains ----
	fmt.Printf("after handoff: speed layer holds %d observations (truncated to the fence)\n",
		arch.SpeedStats().Observed)
	for i := 0; i < 5000; i++ {
		key := fmt.Sprintf("page:/p%d", z.Draw())
		must(arch.Append(repro.StoreObservation{Metric: "hits", Key: key, Item: fmt.Sprintf("u%d", rng.Uint64()%48), Value: 1, Time: now}))
		must(arch.Append(repro.StoreObservation{Metric: "uniq", Key: key, Item: fmt.Sprintf("u%d", rng.Uint64()%4096), Time: now}))
		must(arch.Append(repro.StoreObservation{Metric: "top", Key: key, Item: fmt.Sprintf("u%d", rng.Uint64()%48), Time: now}))
		must(arch.Append(repro.StoreObservation{Metric: "lat", Key: key, Value: rng.Uint64() % 50000, Time: now}))
		now++
	}
	must(arch.Drain())
	fmt.Printf("5k fresh events later: staleness=%d  speed layer holds %d\n",
		arch.Staleness(), arch.SpeedStats().Observed)
	fmt.Printf("  batch-only(%s)=%d merged=%d (speed layer compensates batch latency)\n\n",
		probe, countStale(), count())

	// One merged request answers every family at once: a multi-metric
	// QueryRequest fans out inside the architecture and comes back as one
	// typed answer per (metric, key) cell.
	res, err := be.Query(repro.QueryRequest{
		Metrics: []string{"uniq", "top", "lat"}, Key: probe, From: 0, To: now + 1,
	})
	must(err)
	u, _ := res.At("uniq", probe)
	tk, _ := res.At("top", probe)
	l, _ := res.At("lat", probe)
	fmt.Printf("merged families for %s: distinct~%d  top1=%v  p99=%d\n",
		probe, u.Distinct(), tk.TopK(1), l.Quantile(0.99))

	// A second boundary: the offset fence advances, nothing double counts.
	pre := count()
	info, err = arch.RunBatch()
	must(err)
	post := count()
	fmt.Printf("batch v%d: merged answer %d -> %d across the boundary (fence moved, no double count)\n",
		info.Version, pre, post)

	if *metricsAddr != "" && *linger > 0 {
		fmt.Printf("\nserving metrics on %s for %s (scrape now)...\n", *metricsAddr, *linger)
		time.Sleep(*linger)
	}
}
