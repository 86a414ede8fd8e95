// squall is the command-line interface of the engine: run an ad-hoc SQL
// query over one of the built-in generated datasets and print results plus
// execution metrics.
//
//	go run ./cmd/squall -dataset google -machines 8 \
//	  -query "SELECT MACHINE_EVENTS.platform, COUNT(*) FROM TASK_EVENTS, MACHINE_EVENTS WHERE TASK_EVENTS.machineID = MACHINE_EVENTS.machineID GROUP BY MACHINE_EVENTS.platform"
package main

import (
	"flag"
	"fmt"
	"log"
	"strings"

	"squall"
	"squall/internal/datagen"
)

func main() {
	var (
		query    = flag.String("query", "", "SQL query (required)")
		dataset  = flag.String("dataset", "google", "dataset: tpch | google | web")
		scale    = flag.Int64("scale", 60000, "dataset scale (lineitems / task events / arcs)")
		zipf     = flag.Float64("zipf", 0, "zipfian skew factor for TPC-H foreign keys (paper uses 2)")
		machines = flag.Int("machines", 8, "joiner parallelism budget")
		scheme   = flag.String("scheme", "hybrid", "partitioning scheme: hash | random | hybrid")
		local    = flag.String("local", "dbtoaster", "local join: dbtoaster | traditional")
		limit    = flag.Int("limit", 20, "max result rows to print (0 = all)")
		seed     = flag.Int64("seed", 1, "run seed")
	)
	flag.Parse()
	if *query == "" {
		log.Fatal("squall: -query is required")
	}

	cat, err := catalogFor(*dataset, *scale, *zipf)
	if err != nil {
		log.Fatal(err)
	}
	opts := squall.SQLOptions{Machines: *machines}
	switch strings.ToLower(*scheme) {
	case "hash":
		opts.Scheme = squall.HashHypercube
	case "random":
		opts.Scheme = squall.RandomHypercube
	case "hybrid":
		opts.Scheme = squall.HybridHypercube
	default:
		log.Fatalf("squall: unknown scheme %q", *scheme)
	}
	switch strings.ToLower(*local) {
	case "dbtoaster":
		opts.Local = squall.DBToaster
	case "traditional":
		opts.Local = squall.Traditional
	default:
		log.Fatalf("squall: unknown local join %q", *local)
	}

	res, err := squall.RunSQL(*query, cat, opts, squall.Options{Seed: *seed, CollectLimit: *limit})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("local join: %s\n%v\n", *local, res.Plan)
	fmt.Printf("rows: %d\n", res.RowCount)
	for _, row := range res.SortedRows() {
		fmt.Println("  " + row.String())
	}
	cm := res.Metrics.Component(res.JoinerComponent)
	fmt.Printf("joiner load max/avg: %d/%.0f (skew %.2f), replication %.3f, elapsed %v\n",
		cm.MaxLoad(), cm.AvgLoad(), cm.SkewDegree(),
		res.Metrics.ReplicationFactor(res.JoinerComponent), res.Metrics.Elapsed)
}

func catalogFor(dataset string, scale int64, zipf float64) (squall.Catalog, error) {
	switch strings.ToLower(dataset) {
	case "tpch":
		gen := datagen.NewTPCH(42, scale, zipf)
		skew := map[string]bool{}
		freq := map[string]float64{}
		if zipf > 0 {
			skew["partkey"] = true
			freq["partkey"] = gen.TopPartkeyFreq()
		}
		return squall.Catalog{
			"customer": {Schema: datagen.CustomerSchema, Spout: gen.CustomerSpout(), Size: gen.Customers()},
			"orders":   {Schema: datagen.OrdersSchema, Spout: gen.OrdersSpout(), Size: gen.Orders()},
			"lineitem": {Schema: datagen.LineitemSchema, Spout: gen.LineitemSpout(), Size: gen.Lineitems,
				Skewed: skew, TopFreq: freq},
			"part":     {Schema: datagen.PartSchema, Spout: gen.PartSpout(), Size: gen.Parts()},
			"partsupp": {Schema: datagen.PartSuppSchema, Spout: gen.PartSuppSpout(), Size: gen.PartSupps()},
			"supplier": {Schema: datagen.SupplierSchema, Spout: gen.SupplierSpout(), Size: gen.Suppliers()},
		}, nil
	case "google":
		gen := &datagen.GoogleTrace{Seed: 42, TaskEvents: scale}
		return squall.Catalog{
			"job_events":     {Schema: datagen.JobEventsSchema, Spout: gen.JobEventsSpout(), Size: gen.JobEvents()},
			"task_events":    {Schema: datagen.TaskEventsSchema, Spout: gen.TaskEventsSpout(), Size: gen.TaskEvents},
			"machine_events": {Schema: datagen.MachineEventsSchema, Spout: gen.MachineEventsSpout(), Size: gen.MachineEvents()},
		}, nil
	case "web":
		w := datagen.NewWebGraphBi(42, scale/3+1, scale, 1.1, 1.3)
		c := &datagen.CrawlContent{Seed: 43, Hosts: w.Hosts}
		return squall.Catalog{
			"webgraph":     {Schema: datagen.WebGraphSchema, Spout: w.Spout(), Size: w.Arcs},
			"crawlcontent": {Schema: datagen.CrawlContentSchema, Spout: c.Spout(), Size: w.Hosts},
		}, nil
	default:
		return nil, fmt.Errorf("squall: unknown dataset %q (tpch|google|web)", dataset)
	}
}
