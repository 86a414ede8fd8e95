package squall_test

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"
	"time"

	"squall"
	"squall/internal/dataflow"
	"squall/internal/datagen"
	"squall/internal/enginetest"
	"squall/internal/types"
)

func googleCatalog(gen *datagen.GoogleTrace) squall.Catalog {
	return squall.Catalog{
		"job_events":     {Schema: datagen.JobEventsSchema, Spout: gen.JobEventsSpout(), Size: gen.JobEvents()},
		"task_events":    {Schema: datagen.TaskEventsSchema, Spout: gen.TaskEventsSpout(), Size: gen.TaskEvents},
		"machine_events": {Schema: datagen.MachineEventsSchema, Spout: gen.MachineEventsSpout(), Size: gen.MachineEvents()},
	}
}

// TestRunSQLGoogleTaskCount runs the paper's §7.4 query verbatim through the
// declarative interface and cross-checks it against the imperative path.
func TestRunSQLGoogleTaskCount(t *testing.T) {
	gen := &datagen.GoogleTrace{Seed: 11, TaskEvents: 20000}
	sql := `SELECT MACHINE_EVENTS.machineID, MACHINE_EVENTS.platform, COUNT(*)
		FROM JOB_EVENTS, TASK_EVENTS, MACHINE_EVENTS
		WHERE TASK_EVENTS.eventType = 3
		AND JOB_EVENTS.jobID = TASK_EVENTS.jobID
		AND MACHINE_EVENTS.machineID = TASK_EVENTS.machineID
		GROUP BY MACHINE_EVENTS.machineID, MACHINE_EVENTS.platform`
	res, err := squall.RunSQL(sql, googleCatalog(gen), squall.SQLOptions{Machines: 4}, squall.Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.RowCount == 0 {
		t.Fatal("SQL TaskCount produced no rows")
	}
	// Reference: count FAIL task events per (machine, platform) directly.
	// Every task event joins its job's ~2 job events and its machine's ~2
	// machine events.
	type key struct {
		m int64
		p string
	}
	want := map[key]int64{}
	jobEvents := map[int64]int64{}
	for i := int64(0); i < gen.JobEvents(); i++ {
		jobEvents[gen.JobEvent(i)[0].I]++
	}
	machEvents := map[int64][]string{}
	for i := int64(0); i < gen.MachineEvents(); i++ {
		me := gen.MachineEvent(i)
		machEvents[me[0].I] = append(machEvents[me[0].I], me[1].Str)
	}
	for i := int64(0); i < gen.TaskEvents; i++ {
		te := gen.TaskEvent(i)
		if te[2].I != datagen.EventFail {
			continue
		}
		for _, plat := range machEvents[te[1].I] {
			want[key{te[1].I, plat}] += jobEvents[te[0].I]
		}
	}
	got := map[key]int64{}
	for _, r := range res.Rows {
		got[key{r[0].I, r[1].Str}] = r[2].I
	}
	if len(got) != len(want) {
		t.Fatalf("groups: got %d, want %d", len(got), len(want))
	}
	for k, w := range want {
		if got[k] != w {
			t.Fatalf("group %v: got %d, want %d", k, got[k], w)
		}
	}
}

func TestCompileSQLPushesSelections(t *testing.T) {
	gen := &datagen.GoogleTrace{Seed: 2, TaskEvents: 1000}
	jq, err := squall.CompileSQL(
		`SELECT COUNT(*) FROM TASK_EVENTS, MACHINE_EVENTS
		 WHERE TASK_EVENTS.eventType = 3 AND TASK_EVENTS.machineID = MACHINE_EVENTS.machineID`,
		googleCatalog(gen), squall.SQLOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(jq.Sources) != 2 {
		t.Fatalf("sources = %d", len(jq.Sources))
	}
	if jq.Sources[0].Pre == nil {
		t.Error("eventType filter must be pushed into the TASK_EVENTS source")
	}
	if jq.Sources[1].Pre != nil {
		t.Error("MACHINE_EVENTS must have no filter")
	}
	if len(jq.Graph.Conjuncts) != 1 {
		t.Errorf("join conjuncts = %d", len(jq.Graph.Conjuncts))
	}
	if jq.Agg == nil || jq.Agg.Kind != squall.Count {
		t.Errorf("agg = %+v", jq.Agg)
	}
}

func TestCompileSQLSelfJoinWithAliases(t *testing.T) {
	w := datagen.NewWebGraph(3, 500, 3000, 0)
	cat := squall.Catalog{
		"webgraph": {Schema: datagen.WebGraphSchema, Spout: w.Spout(), Size: w.Arcs},
	}
	res, err := squall.RunSQL(`SELECT W1.FromUrl, COUNT(*)
		FROM WebGraph as W1, WebGraph as W2, WebGraph as W3
		WHERE W1.ToUrl = W2.FromUrl AND W2.ToUrl = W3.FromUrl
		GROUP BY W1.FromUrl`, cat, squall.SQLOptions{Machines: 4}, squall.Options{Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	if res.RowCount == 0 {
		t.Error("3-reachability via SQL produced nothing")
	}
}

func TestCompileSQLSkewMetadataFlows(t *testing.T) {
	gen := datagen.NewTPCH(5, 30000, 2)
	cat := squall.Catalog{
		"lineitem": {Schema: datagen.LineitemSchema, Spout: gen.LineitemSpout(), Size: gen.Lineitems,
			Skewed:  map[string]bool{"partkey": true},
			TopFreq: map[string]float64{"partkey": gen.TopPartkeyFreq()}},
		"partsupp": {Schema: datagen.PartSuppSchema, Spout: gen.PartSuppSpout(), Size: gen.PartSupps()},
		"part":     {Schema: datagen.PartSchema, Spout: gen.PartSpout(), Size: gen.Parts()},
	}
	jq, err := squall.CompileSQL(`SELECT lineitem.suppkey, COUNT(*)
		FROM lineitem, partsupp, part
		WHERE lineitem.partkey = partsupp.partkey
		AND lineitem.suppkey = partsupp.suppkey
		AND lineitem.partkey = part.partkey
		GROUP BY lineitem.suppkey`, cat, squall.SQLOptions{Scheme: squall.HybridHypercube})
	if err != nil {
		t.Fatal(err)
	}
	if len(jq.Skewed) == 0 {
		t.Fatal("catalog skew declaration must flow into the plan")
	}
	hc, err := jq.BuildScheme()
	if err != nil {
		t.Fatal(err)
	}
	// The skewed L.partkey must be renamed to a random dimension (or dropped
	// to size 1); the scheme must stay content-insensitive on that key, i.e.
	// differ from the plain Hash scheme.
	jq2, _ := squall.CompileSQL(`SELECT lineitem.suppkey, COUNT(*)
		FROM lineitem, partsupp, part
		WHERE lineitem.partkey = partsupp.partkey
		AND lineitem.suppkey = partsupp.suppkey
		AND lineitem.partkey = part.partkey
		GROUP BY lineitem.suppkey`, cat, squall.SQLOptions{Scheme: squall.HashHypercube})
	hc2, err := jq2.BuildScheme()
	if err != nil {
		t.Fatal(err)
	}
	if hc.String() == hc2.String() && strings.Contains(hc.String(), "partkey(hash)") {
		t.Errorf("hybrid %v must not hash the skewed partkey (hash scheme: %v)", hc, hc2)
	}
}

func TestCompileSQLErrors(t *testing.T) {
	gen := &datagen.GoogleTrace{Seed: 2, TaskEvents: 100}
	cat := googleCatalog(gen)
	cases := []string{
		`SELECT COUNT(*) FROM nope`,
		`SELECT COUNT(*) FROM TASK_EVENTS, MACHINE_EVENTS`,     // cross product
		`SELECT machineID FROM TASK_EVENTS GROUP BY machineID`, // group without agg
		`SELECT COUNT(*), SUM(priority) FROM TASK_EVENTS`,      // two aggregates
		`SELECT COUNT(*) FROM TASK_EVENTS WHERE zzz = 1`,
		`SELECT SUM(TASK_EVENTS.priority + MACHINE_EVENTS.capacity) FROM TASK_EVENTS, MACHINE_EVENTS WHERE TASK_EVENTS.machineID = MACHINE_EVENTS.machineID`,
		`SELECT jobID FROM TASK_EVENTS, JOB_EVENTS WHERE TASK_EVENTS.jobID = JOB_EVENTS.jobID`, // ambiguous
	}
	for _, sql := range cases {
		if _, err := squall.CompileSQL(sql, cat, squall.SQLOptions{}); err == nil {
			t.Errorf("CompileSQL(%q) should fail", sql)
		}
	}
}

func TestRunSQLProjectionOnly(t *testing.T) {
	gen := &datagen.GoogleTrace{Seed: 8, TaskEvents: 500}
	res, err := squall.RunSQL(
		`SELECT MACHINE_EVENTS.platform, TASK_EVENTS.priority
		 FROM TASK_EVENTS, MACHINE_EVENTS
		 WHERE TASK_EVENTS.machineID = MACHINE_EVENTS.machineID AND TASK_EVENTS.eventType = 3`,
		googleCatalog(gen), squall.SQLOptions{Machines: 2}, squall.Options{Seed: 9, CollectLimit: 20})
	if err != nil {
		t.Fatal(err)
	}
	if res.RowCount == 0 {
		t.Fatal("projection query produced nothing")
	}
	if len(res.Rows[0]) != 2 {
		t.Errorf("projected arity = %d, want 2", len(res.Rows[0]))
	}
}

// TestCatalogMixedCaseRegistration (PR 4 satellite): entries registered with
// any casing resolve through the normalized lookup — the old probe-then-scan
// fallback let a lower-cased key shadow a mixed-case one — and two entries
// colliding case-insensitively are rejected instead of resolving to either.
func TestCatalogMixedCaseRegistration(t *testing.T) {
	w := datagen.NewWebGraph(3, 200, 800, 0)
	cat := squall.Catalog{
		"WebGraph": {Schema: datagen.WebGraphSchema, Spout: w.Spout(), Size: w.Arcs},
	}
	for _, name := range []string{"WebGraph", "webgraph", "WEBGRAPH"} {
		q := `SELECT W1.FromUrl, COUNT(*) FROM ` + name + ` as W1, ` + name + ` as W2
			WHERE W1.ToUrl = W2.FromUrl GROUP BY W1.FromUrl`
		if _, err := squall.CompileSQL(q, cat, squall.SQLOptions{Machines: 4}); err != nil {
			t.Fatalf("mixed-case lookup %q failed: %v", name, err)
		}
	}
	bad := squall.Catalog{
		"WebGraph": {Schema: datagen.WebGraphSchema, Spout: w.Spout(), Size: w.Arcs},
		"webgraph": {Schema: datagen.WebGraphSchema, Spout: w.Spout(), Size: w.Arcs},
	}
	if _, err := squall.CompileSQL(`SELECT W1.FromUrl, COUNT(*) FROM WebGraph as W1, WebGraph as W2
		WHERE W1.ToUrl = W2.FromUrl GROUP BY W1.FromUrl`, bad, squall.SQLOptions{Machines: 4}); err == nil {
		t.Fatal("case-colliding catalog entries must be rejected")
	}
}

// TestRunSQLComputedFilters runs a query whose WHERE filters each relation
// through DATE() and arithmetic — selections that run compiled over the
// encoded rows at the source — and requires the result bag-equal to the
// same query evaluated in plain Go, at batch sizes 1 and 64.
func TestRunSQLComputedFilters(t *testing.T) {
	ordersSchema := types.NewSchema("orders",
		types.Column{Name: "orderkey", Kind: types.KindInt},
		types.Column{Name: "custkey", Kind: types.KindInt},
		types.Column{Name: "comment", Kind: types.KindString},
		types.Column{Name: "orderdate", Kind: types.KindString},
		types.Column{Name: "price", Kind: types.KindFloat})
	customerSchema := types.NewSchema("customer",
		types.Column{Name: "custkey", Kind: types.KindInt},
		types.Column{Name: "nation", Kind: types.KindInt},
		types.Column{Name: "name", Kind: types.KindString})
	rng := rand.New(rand.NewSource(4))
	var orders, customers []types.Tuple
	for i := 0; i < 600; i++ {
		date := fmt.Sprintf("1995-%02d-%02d", 1+rng.Intn(6), 1+rng.Intn(28))
		orders = append(orders, types.Tuple{types.Int(int64(i)), types.Int(int64(rng.Intn(40))),
			types.Str("c"), types.Str(date), types.Float(float64(rng.Intn(400)) / 4)})
	}
	for c := 0; c < 40; c++ {
		customers = append(customers, types.Tuple{types.Int(int64(c)), types.Int(int64(rng.Intn(10))), types.Str("n")})
	}
	cat := squall.Catalog{
		"orders":   {Schema: ordersSchema, Spout: dataflow.SliceSpout(orders), Size: int64(len(orders))},
		"customer": {Schema: customerSchema, Spout: dataflow.SliceSpout(customers), Size: int64(len(customers))},
	}
	const sql = `SELECT O.orderkey, C.name FROM ORDERS O, CUSTOMER C
		WHERE O.custkey = C.custkey AND DATE(O.orderdate) >= DATE('1995-03-15')
		AND O.price * 2 - 10 < 120 AND C.nation + 1 > 4`

	march15 := time.Date(1995, 3, 15, 0, 0, 0, 0, time.UTC)
	want := map[string]int{}
	for _, o := range orders {
		d, err := time.Parse("2006-01-02", o[3].Str)
		if err != nil {
			t.Fatal(err)
		}
		if d.Before(march15) || o[4].F*2-10 >= 120 {
			continue
		}
		for _, c := range customers {
			if c[0].I == o[1].I && c[1].I+1 > 4 {
				want[types.Tuple{o[0], c[2]}.Key()]++
			}
		}
	}
	if len(want) == 0 {
		t.Fatal("the reference selects nothing")
	}
	t.Logf("%d reference rows", len(want))
	for _, batch := range []int{1, 64} {
		res, err := squall.RunSQL(sql, cat, squall.SQLOptions{Machines: 4}, squall.Options{Seed: 3, BatchSize: batch})
		if err != nil {
			t.Fatalf("batch %d: %v", batch, err)
		}
		got := map[string]int{}
		for _, r := range res.Rows {
			got[r.Key()]++
		}
		if diff := enginetest.DiffBags(want, got); diff != "" {
			t.Fatalf("batch %d: result diverges from the reference:\n%s", batch, diff)
		}
	}
}
