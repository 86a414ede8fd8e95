// Quickstart: run a SQL query over a streaming dataset with Squall's
// declarative interface, then inspect the engine metrics.
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"log"

	"squall"
	"squall/internal/datagen"
)

func main() {
	// A synthetic Google cluster-monitoring trace (§6 of the paper): task
	// events stream in, referencing jobs and machines.
	gen := &datagen.GoogleTrace{Seed: 1, TaskEvents: 50_000}
	catalog := squall.Catalog{
		"job_events":     {Schema: datagen.JobEventsSchema, Spout: gen.JobEventsSpout(), Size: gen.JobEvents()},
		"task_events":    {Schema: datagen.TaskEventsSchema, Spout: gen.TaskEventsSpout(), Size: gen.TaskEvents},
		"machine_events": {Schema: datagen.MachineEventsSchema, Spout: gen.MachineEventsSpout(), Size: gen.MachineEvents()},
	}

	// "List the machines which often fail tasks": the paper's demonstration
	// query, written exactly as in §7.4.
	sql := `SELECT MACHINE_EVENTS.machineID, MACHINE_EVENTS.platform, COUNT(*)
	        FROM JOB_EVENTS, TASK_EVENTS, MACHINE_EVENTS
	        WHERE TASK_EVENTS.eventType = 3
	        AND JOB_EVENTS.jobID = TASK_EVENTS.jobID
	        AND MACHINE_EVENTS.machineID = TASK_EVENTS.machineID
	        GROUP BY MACHINE_EVENTS.machineID, MACHINE_EVENTS.platform`

	res, err := squall.RunSQL(sql, catalog,
		squall.SQLOptions{Scheme: squall.HybridHypercube, Local: squall.DBToaster, Machines: 8},
		squall.Options{Seed: 42, CollectLimit: 10})
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("plan:\n%v\n", res.Plan)
	fmt.Printf("result groups: %d (showing up to 10)\n", res.RowCount)
	for _, row := range res.SortedRows() {
		fmt.Printf("  machine %v platform %-6v failed-task events: %v\n", row[0], row[1], row[2])
	}

	join := res.Metrics.Component(res.JoinerComponent)
	fmt.Printf("\nengine metrics (the paper's §6 definitions):\n")
	fmt.Printf("  max/avg load per machine: %d / %.0f (skew degree %.2f)\n",
		join.MaxLoad(), join.AvgLoad(), join.SkewDegree())
	fmt.Printf("  replication factor:       %.3f\n", res.Metrics.ReplicationFactor(res.JoinerComponent))
	fmt.Printf("  intermediate net factor:  %.3f\n", res.Metrics.IntermediateNetworkFactor())
	fmt.Printf("  elapsed:                  %v\n", res.Metrics.Elapsed)
}
