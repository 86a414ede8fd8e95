package datagen

import (
	"math"
	"strings"
	"testing"

	"squall/internal/types"
)

func TestZipfDistributionShape(t *testing.T) {
	z := NewZipf(1000, 2.0)
	r := newRng(1, "zipf", 0)
	counts := map[int64]int{}
	const n = 200000
	for i := 0; i < n; i++ {
		counts[z.Rank(r)]++
	}
	top := float64(counts[1]) / n
	// zipf(2) over 1000 keys: P(1) = 1/ζ(2)-ish ≈ 0.6079.
	if math.Abs(top-z.TopFreq()) > 0.01 {
		t.Errorf("empirical top freq %.3f vs analytic %.3f", top, z.TopFreq())
	}
	if top < 0.55 || top > 0.67 {
		t.Errorf("zipf(2) top frequency = %.3f, want ≈0.61", top)
	}
	if counts[1] <= counts[2] || counts[2] <= counts[4] {
		t.Error("zipf counts must decay with rank")
	}
}

func TestZipfDegenerate(t *testing.T) {
	z := NewZipf(1, 2.0)
	r := newRng(2, "z", 0)
	if got := z.Rank(r); got != 1 {
		t.Errorf("single-key zipf rank = %d", got)
	}
	if z.TopFreq() != 1 {
		t.Errorf("TopFreq = %g", z.TopFreq())
	}
}

func TestRowGenerationIsDeterministic(t *testing.T) {
	a := NewTPCH(7, 10000, 2)
	b := NewTPCH(7, 10000, 2)
	for i := int64(0); i < 50; i++ {
		if a.Lineitem(i).Compare(b.Lineitem(i)) != 0 {
			t.Fatalf("lineitem %d differs across instances", i)
		}
		if a.Order(i).Compare(b.Order(i)) != 0 {
			t.Fatalf("order %d differs", i)
		}
	}
	c := NewTPCH(8, 10000, 2)
	same := 0
	for i := int64(0); i < 50; i++ {
		if a.Lineitem(i).Compare(c.Lineitem(i)) == 0 {
			same++
		}
	}
	if same > 5 {
		t.Errorf("different seeds produced %d/50 identical rows", same)
	}
}

func TestTPCHCardinalityRatios(t *testing.T) {
	g := NewTPCH(1, 600000, 0)
	if g.Orders() != 150000 || g.Customers() != 15000 || g.Parts() != 20000 ||
		g.PartSupps() != 80000 || g.Suppliers() != 1000 {
		t.Errorf("cardinalities: O=%d C=%d P=%d PS=%d S=%d",
			g.Orders(), g.Customers(), g.Parts(), g.PartSupps(), g.Suppliers())
	}
}

func TestTPCHForeignKeysInRange(t *testing.T) {
	g := NewTPCH(3, 30000, 2)
	for i := int64(0); i < 2000; i++ {
		l := g.Lineitem(i)
		ok, pk, sk := l[0].I, l[1].I, l[2].I
		if ok < 1 || ok > g.Orders() {
			t.Fatalf("lineitem %d orderkey %d out of range", i, ok)
		}
		if pk < 1 || pk > g.Parts() {
			t.Fatalf("lineitem %d partkey %d out of range", i, pk)
		}
		if sk < 1 || sk > g.Suppliers() {
			t.Fatalf("lineitem %d suppkey %d out of range", i, sk)
		}
		o := g.Order(i % g.Orders())
		if ck := o[1].I; ck < 1 || ck > g.Customers() {
			t.Fatalf("order custkey %d out of range", ck)
		}
	}
}

func TestTPCHSuppkeyCorrelatedWithPartkey(t *testing.T) {
	g := NewTPCH(3, 30000, 2)
	// Lineitems of one part must use at most 4 distinct suppliers — the
	// dbgen correlation that lets partkey skew leak into suppkey.
	supps := map[int64]map[int64]bool{}
	for i := int64(0); i < 5000; i++ {
		l := g.Lineitem(i)
		pk, sk := l[1].I, l[2].I
		if supps[pk] == nil {
			supps[pk] = map[int64]bool{}
		}
		supps[pk][sk] = true
	}
	for pk, set := range supps {
		if len(set) > 4 {
			t.Fatalf("part %d has %d suppliers, dbgen allows 4", pk, len(set))
		}
	}
}

func TestTPCHZipfSkewOnPartkey(t *testing.T) {
	g := NewTPCH(5, 60000, 2)
	counts := map[int64]int{}
	for i := int64(0); i < 20000; i++ {
		counts[g.Lineitem(i)[1].I]++
	}
	top := 0
	for _, c := range counts {
		if c > top {
			top = c
		}
	}
	if f := float64(top) / 20000; f < 0.5 {
		t.Errorf("zipf(2) top partkey frequency = %.3f, want > 0.5", f)
	}
	if math.Abs(g.TopPartkeyFreq()-0.608) > 0.02 {
		t.Errorf("TopPartkeyFreq = %.3f, want ≈0.61", g.TopPartkeyFreq())
	}
	uni := NewTPCH(5, 60000, 0)
	if uni.TopPartkeyFreq() > 0.01 {
		t.Errorf("uniform top freq = %g", uni.TopPartkeyFreq())
	}
}

func TestPartColorFilterSelectivity(t *testing.T) {
	g := NewTPCH(1, 60000, 0)
	green := 0
	for i := int64(0); i < g.Parts(); i++ {
		if g.Part(i)[1].Str == "green" {
			green++
		}
	}
	want := float64(g.Parts()) / float64(len(PartColors))
	if math.Abs(float64(green)-want) > want/10+1 {
		t.Errorf("green parts = %d, want ≈%g (5%%)", green, want)
	}
}

func TestTPCHDatesParse(t *testing.T) {
	g := NewTPCH(2, 10000, 0)
	for i := int64(0); i < 200; i++ {
		d := g.Order(i)[2].Str
		if len(d) != 10 || d[4] != '-' || d[7] != '-' {
			t.Fatalf("bad date %q", d)
		}
		if d < "1992-01-01" || d > "1999-12-28" {
			t.Fatalf("date %q out of range", d)
		}
	}
}

func TestLineSpoutRoundTrip(t *testing.T) {
	g := NewTPCH(2, 4000, 0)
	f, err := g.LineSpout("orders")
	if err != nil {
		t.Fatal(err)
	}
	sp := f(0, 1)
	line, ok := sp.Next()
	if !ok {
		t.Fatal("empty spout")
	}
	parsed, err := types.ParseLine(OrdersSchema, line[0].Str, '|')
	if err != nil {
		t.Fatal(err)
	}
	if parsed.Compare(g.Order(0)) != 0 {
		t.Errorf("line round trip: %v vs %v", parsed, g.Order(0))
	}
	if _, err := g.LineSpout("nope"); err == nil {
		t.Error("unknown table must error")
	}
}

func TestWebGraphHubDominates(t *testing.T) {
	w := NewWebGraph(9, 5000, 100000, 1.2)
	hub := 0
	for i := int64(0); i < 20000; i++ {
		arc := w.Arc(i)
		if arc[1].Str == HubName {
			hub++
		}
		if !strings.HasPrefix(arc[0].Str, "host") && arc[0].Str != HubName {
			t.Fatalf("bad host name %q", arc[0].Str)
		}
	}
	if hub < 1000 {
		t.Errorf("hub in-degree %d of 20000, want dominant", hub)
	}
	uni := NewWebGraph(9, 5000, 100000, 0)
	hub = 0
	for i := int64(0); i < 20000; i++ {
		if uni.Arc(i)[1].Str == HubName {
			hub++
		}
	}
	if hub > 100 {
		t.Errorf("uniform graph hub in-degree %d, want ≈4", hub)
	}
}

func TestCrawlContentIsPrimaryKey(t *testing.T) {
	c := &CrawlContent{Seed: 4, Hosts: 1000}
	seen := map[string]bool{}
	for i := int64(0); i < c.Hosts; i++ {
		u := c.Row(i)[0].Str
		if seen[u] {
			t.Fatalf("duplicate url %q", u)
		}
		seen[u] = true
	}
	if !seen[HubName] {
		t.Error("hub must appear in CrawlContent")
	}
}

func TestGoogleTraceShape(t *testing.T) {
	g := &GoogleTrace{Seed: 6, TaskEvents: 100000}
	dims := g.JobEvents() + g.MachineEvents()
	ratio := float64(dims) / float64(g.TaskEvents)
	if math.Abs(ratio-0.145) > 0.005 {
		t.Errorf("dimension relations are %.3f of TASK_EVENTS, paper says 14.5%%", ratio)
	}
	fails := 0
	for i := int64(0); i < 20000; i++ {
		te := g.TaskEvent(i)
		if te[0].I < 1 || te[0].I > g.Jobs() {
			t.Fatalf("jobid %d out of range", te[0].I)
		}
		if te[1].I < 1 || te[1].I > g.Machines() {
			t.Fatalf("machineid %d out of range", te[1].I)
		}
		if te[2].I == EventFail {
			fails++
		}
	}
	if f := float64(fails) / 20000; f < 0.08 || f > 0.20 {
		t.Errorf("FAIL fraction = %.3f, want ≈0.12", f)
	}
	me := g.MachineEvent(0)
	okPlat := false
	for _, p := range Platforms {
		if me[1].Str == p {
			okPlat = true
		}
	}
	if !okPlat {
		t.Errorf("platform %q not in domain", me[1].Str)
	}
}

func TestSpoutsPartitionWithoutOverlap(t *testing.T) {
	g := NewTPCH(11, 8000, 0)
	factory := g.OrdersSpout()
	seen := map[int64]bool{}
	total := 0
	for task := 0; task < 3; task++ {
		sp := factory(task, 3)
		for {
			tu, ok := sp.Next()
			if !ok {
				break
			}
			k := tu[0].I
			if seen[k] {
				t.Fatalf("orderkey %d emitted twice", k)
			}
			seen[k] = true
			total++
		}
	}
	if total != int(g.Orders()) {
		t.Errorf("tasks emitted %d of %d rows", total, g.Orders())
	}
}
