package repro_test

import (
	"fmt"

	"repro"
)

// Example demonstrates the unified serving API: a sketch store is one
// repro.Backend (the cluster router and the Lambda architecture are the
// others), typed QueryRequests answer without type assertions, and one
// multi-key aggregate request answers a union.
func Example() {
	st, err := repro.NewSketchStore(repro.SketchStoreConfig{Shards: 4, BucketWidth: 60, RingBuckets: 60})
	if err != nil {
		panic(err)
	}
	var be repro.Backend = st // or a StoreCluster's Router(), or a Lambda

	hits, err := repro.NewFreqProto(1024, 4, 42)
	if err != nil {
		panic(err)
	}
	if err := be.RegisterMetric("hits", hits); err != nil {
		panic(err)
	}
	for i := 0; i < 90; i++ {
		page := "/home"
		if i%3 == 0 {
			page = "/docs"
		}
		if err := be.Observe(repro.StoreObservation{
			Metric: "hits", Key: page, Item: "get", Value: 1, Time: int64(i),
		}); err != nil {
			panic(err)
		}
	}

	// One typed request per question — no synopsis type assertions.
	one, err := be.Query(repro.QueryRequest{Metric: "hits", Key: "/home", From: 0, To: 90})
	if err != nil {
		panic(err)
	}
	fmt.Println("/home gets:", one.Count("get"))

	// A multi-key aggregate request unions both pages in one round-trip.
	site, err := be.Query(repro.QueryRequest{
		Metric: "hits", Keys: []string{"/home", "/docs"}, From: 0, To: 90, Aggregate: true,
	})
	if err != nil {
		panic(err)
	}
	fmt.Println("site gets:", site.Count("get"))

	// Output:
	// /home gets: 60
	// site gets: 90
}
