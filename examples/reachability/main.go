// Reachability: the §7.2 experiment — a 3-step web reachability query as a
// single multi-way hypercube join versus a pipeline of 2-way joins.
//
//	go run ./examples/reachability
package main

import (
	"fmt"
	"log"

	"squall"
	"squall/experiments"
	"squall/internal/datagen"
)

func main() {
	w := datagen.NewWebGraph(3, 3_000, 30_000, 0)
	const machines = 8
	fmt.Printf("WebGraph sample: %d hosts, %d arcs; 36-joiner query scaled to %d tasks\n",
		w.Hosts, w.Arcs, machines)
	fmt.Println("query: SELECT W1.FromUrl, COUNT(*) FROM W1,W2,W3")
	fmt.Println("       WHERE W1.ToUrl=W2.FromUrl AND W2.ToUrl=W3.FromUrl GROUP BY W1.FromUrl")
	fmt.Println()

	multi := experiments.Reachability3(w, squall.HashHypercube, squall.DBToaster, machines)
	mres, err := multi.Run(squall.Options{Seed: 1})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("multi-way plan:\n%v\n", mres.Plan)
	fmt.Printf("  shipped tuples: %d, elapsed %v, groups %d\n",
		mres.Metrics.TotalSent(), mres.Metrics.Elapsed, mres.RowCount)

	pres, err := experiments.Reachability3Pipeline(w, machines, 1)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("pipeline of 2-way joins:\n")
	fmt.Printf("  shipped tuples: %d, elapsed %v, groups %d\n",
		pres.TotalSent, pres.Metrics.Elapsed, len(pres.Rows))

	fmt.Printf("\nnetwork ratio pipeline/multiway: %.2fx (paper Figure 6: 160.6M vs 132.6M,\n",
		float64(pres.TotalSent)/float64(mres.Metrics.TotalSent()))
	fmt.Println("runtime 1.43x) — the multi-way join never ships the large W1⋈W2 intermediate.")
}
