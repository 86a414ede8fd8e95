package main

import (
	"fmt"
	"sync"
	"time"

	"squall"
	"squall/internal/dataflow"
	"squall/internal/expr"
	"squall/internal/ops"
	"squall/internal/serve"
	"squall/internal/types"
)

// pacedKeep are the percentages of R the four registered queries select.
var pacedKeep = []int64{100, 50, 25, 10}

// The paced window is cut into pacedSlices equal slices by due time (1 s each
// in a 12 s run). Results due in the first pacedWarm slices are left out of
// the latency figures: caches and slab arenas are still growing into their
// steady state.
const (
	pacedSlices = 12
	pacedWarm   = 2
)

// paced is the serve_paced instance: an open loop. Two shared sources emit
// on a fixed schedule whatever the engine does, four queries with different
// selections share them, and one subscription per query receives every
// result row.
type paced struct {
	r, s     []types.Tuple
	periodNS int64 // between two tuples of one relation
	window   time.Duration
	want     []bag           // reference result per query
	wantRows [][]types.Tuple // kept only at verify scale
}

func setupPaced(seed int64, div int, seconds float64, _ string) (instance, error) {
	return setupPacedAt(seed, div, seconds, pacedRate)
}

func setupPacedAt(seed int64, div int, seconds, rate float64) (*paced, error) {
	n := int(rate / 2 * seconds / float64(div))
	if n < 8 {
		return nil, fmt.Errorf("serve_paced: %g s at %g tuples/s is only %d tuples per relation", seconds/float64(div), rate, n)
	}
	p := &paced{periodNS: int64(2e9 / rate)}
	p.r, p.s = genPaced(seed, n, p.periodNS)
	p.window = time.Duration(int64(n) * p.periodNS)
	p.want = make([]bag, len(pacedKeep))
	p.wantRows = make([][]types.Tuple, len(pacedKeep))
	keep := div > 1
	refJoin(p.r, p.s, func(r, s types.Tuple) {
		row := concat(r, s)
		h := rowHash(row)
		for q, pct := range pacedKeep {
			if r[pacedValCol].I < pct {
				p.want[q].add(h)
				if keep {
					p.wantRows[q] = append(p.wantRows[q], row)
				}
			}
		}
	})
	return p, nil
}

// pacedSpout hands out its tuples no earlier than their due time.
type pacedSpout struct {
	rows  []types.Tuple
	pos   int
	start time.Time
	lagNS *int64 // worst lateness; owned by this spout until the run ends
}

func (sp *pacedSpout) Next() (types.Tuple, bool) {
	if sp.pos >= len(sp.rows) {
		return nil, false
	}
	t := sp.rows[sp.pos]
	sp.pos++
	due := time.Duration(t[pacedDueCol].I)
	if wait := due - time.Since(sp.start); wait > 0 {
		time.Sleep(wait)
	}
	if late := int64(time.Since(sp.start) - due); late > *sp.lagNS {
		*sp.lagNS = late
	}
	return t, true
}

// serveStats are the serving layer's own counters for one paced run.
type serveStats struct {
	registerMS float64
	rows       int64 // source rows read
	encodes    int64
	stalls     int64
	// lateP50MS is the median latency of results due in the second half of
	// the window, earlyP50MS of those in the first half after warm-up: a
	// backlog that grows shows as the second far above the first.
	earlyP50MS, lateP50MS float64
	wholeP99MS            float64 // 99th percentile over the whole window after warm-up
}

func (p *paced) query(pct int64) *squall.JoinQuery {
	return &squall.JoinQuery{
		Graph:    joinGraph,
		Scheme:   squall.HashHypercube,
		Machines: machines,
		Local:    squall.DBToaster,
		Sources: []squall.Source{
			{Name: "R", Schema: pacedSchema, Pre: ops.Pipeline{ops.Select{
				P: expr.Cmp{Op: expr.Lt, L: expr.C(pacedValCol), R: expr.I(pct)}}}},
			{Name: "S", Schema: pacedSchema},
		},
	}
}

func (p *paced) run(tr *tracer, parent, run int, collect bool) sample {
	smp := sample{tuples: int64(len(p.r) + len(p.s)), serve: &serveStats{}}
	fail := func(err error) sample {
		smp.err = fmt.Errorf("serve_paced run %d: %w", run, err)
		smp.failed = smp.tuples
		return smp
	}
	id, end := tr.begin(parent, "run", run)
	defer end()

	var start time.Time
	var lagR, lagS int64
	eng := squall.NewEngine(squall.EngineOptions{Run: squall.Options{CollectLimit: 1}})
	defer eng.Close()
	eng.AddSource("R", func(int, int) dataflow.Spout {
		return &pacedSpout{rows: p.r, start: start, lagNS: &lagR}
	}, int64(len(p.r)))
	eng.AddSource("S", func(int, int) dataflow.Spout {
		return &pacedSpout{rows: p.s, start: start, lagNS: &lagS}
	}, int64(len(p.s)))

	_, endReg := tr.begin(id, "serve.register", run)
	t0 := time.Now()
	queries := make([]*squall.ServedQuery, len(pacedKeep))
	subs := make([]*serve.Subscription, len(pacedKeep))
	for q, pct := range pacedKeep {
		qid := fmt.Sprintf("keep%d", pct)
		sq, err := eng.Register(squall.RegisterRequest{ID: qid, Query: p.query(pct)})
		if err != nil {
			endReg()
			return fail(err)
		}
		queries[q] = sq
		// Coalescing with a deep buffer: a consumer that falls behind gets
		// its rows late (and is charged the latency), never dropped.
		if subs[q], err = eng.Subscribe(qid, serve.SubOptions{Policy: serve.CoalesceDeltas, Buf: 4096}); err != nil {
			endReg()
			return fail(err)
		}
	}
	smp.serve.registerMS = float64(time.Since(t0).Nanoseconds()) / 1e6
	endReg()

	type received struct {
		bag   bag
		rows  []types.Tuple
		slice [pacedSlices][]float64 // latencies in ms, by the slice the row was due in
		err   error
	}
	got := make([]received, len(subs))
	sliceLen := p.window/pacedSlices + 1
	var wg sync.WaitGroup
	_, endWin := tr.begin(id, "paced.window", run)
	cpu0, err := selfCPU()
	if err != nil {
		endWin()
		return fail(err)
	}
	start = time.Now()
	for q, sub := range subs {
		wg.Add(1)
		go func(g *received, sub *serve.Subscription) {
			defer wg.Done()
			for d := range sub.C() {
				now := time.Since(start)
				if d.Final {
					g.err = d.Err
				}
				for _, row := range d.Rows {
					g.bag.add(rowHash(row))
					if collect {
						g.rows = append(g.rows, row)
					}
					due := time.Duration(max(row[pacedDueCol].I, row[len(pacedSchema.Columns)+pacedDueCol].I))
					if s := int(due / sliceLen); s >= pacedWarm {
						g.slice[s] = append(g.slice[s], float64(now-due)/1e6)
					}
				}
			}
		}(&got[q], sub)
	}
	eng.Start()
	wg.Wait()
	smp.wall = time.Since(start)
	endWin()
	cpu1, err := selfCPU()
	if err != nil {
		return fail(err)
	}
	smp.cpu = cpu1 - cpu0
	smp.lagMS = float64(max(lagR, lagS)) / 1e6

	var slices [pacedSlices][]float64
	for q := range got {
		g := &got[q]
		res, err := queries[q].Wait()
		if err == nil {
			err = g.err
		}
		if err != nil {
			return fail(fmt.Errorf("query keep%d: %w", pacedKeep[q], err))
		}
		if q == 0 {
			smp.res = res // the unfiltered query speaks for the dataflow counters
		}
		for _, t := range res.Metrics.Component(res.JoinerComponent).Tasks {
			smp.peak += t.MaxMem.Load()
		}
		// Expected rows that never arrived count as failed; so does a whole
		// query whose rows arrived but do not add up to the reference.
		if want := p.want[q]; g.bag != want {
			smp.failed += max(want.rows-g.bag.rows, 0)
			if g.bag.rows >= want.rows {
				smp.failed += want.rows
			}
			smp.err = fmt.Errorf("serve_paced run %d: query keep%d delivered %d rows with checksum %x, reference has %d with %x",
				run, pacedKeep[q], g.bag.rows, g.bag.sum, want.rows, want.sum)
		}
		if collect && smp.err == nil {
			if err := sameBag(g.rows, p.wantRows[q]); err != nil {
				return fail(fmt.Errorf("query keep%d: %w", pacedKeep[q], err))
			}
		}
		for s := range slices {
			slices[s] = append(slices[s], g.slice[s]...)
		}
	}
	var early, late []float64
	for s := pacedWarm; s < pacedSlices; s++ {
		if s < pacedSlices/2 {
			early = append(early, slices[s]...)
		} else {
			late = append(late, slices[s]...)
		}
		if len(slices[s]) > 0 {
			smp.sliceP50 = append(smp.sliceP50, quantile(slices[s], 0.5))
			smp.sliceP99 = append(smp.sliceP99, quantile(slices[s], 0.99))
		}
	}
	smp.latencies = len(early) + len(late)
	smp.serve.earlyP50MS = quantile(early, 0.5)
	smp.serve.lateP50MS = quantile(late, 0.5)
	smp.serve.wholeP99MS = quantile(append(early, late...), 0.99)
	for _, s := range eng.Stats().Sources {
		smp.serve.rows += s.Rows
		smp.serve.encodes += s.Encodes
		smp.serve.stalls += s.Stalls
	}
	return smp
}

func (p *paced) close() error { return nil }
