package main

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"net"
	"os"
	"path/filepath"
	"time"

	"squall"
	"squall/internal/dataflow"
	"squall/internal/dbtoaster"
	"squall/internal/expr"
	"squall/internal/index"
	"squall/internal/localjoin"
	"squall/internal/ops"
	"squall/internal/recovery"
	"squall/internal/slab"
	"squall/internal/transport"
	"squall/internal/types"
	"squall/internal/vec"
	"squall/internal/wire"
)

// The stage replay: each layer alone, on one goroutine, over the workload's
// own inputs, every stage fed what the stage before it produced — the
// paper's Figure 5 method carried through the layers built since. All of it
// is timed from here, around exported calls; nothing inside the engine is
// instrumented.

// replayFrameRows is the rows per frame the replay packs, the engine's
// default transport batch.
const replayFrameRows = dataflow.DefaultBatchSize

// layerCosts is what one replay measured.
type layerCosts struct {
	m map[string]float64 // per-layer metrics, by the names in BENCHMARK.json
	// pathNS is the time of the stages one run executes in sequence, scaled to
	// the whole input: parse, encode, select, route, join (with its cursor
	// walk, inserts and probes), fold and, when the workload checkpoints, the
	// checkpoints. Run CPU minus this is dataflow.residual_us_tuple.
	pathNS float64
}

// relFrame is one frame of one relation, in the order a joiner task would
// receive it.
type relFrame struct {
	rel   int
	frame []byte
	rows  int
}

// frameBuilder packs encoded rows into footered frames.
type frameBuilder struct {
	body []byte
	n    int
	out  [][]byte
	rows []int
}

func (b *frameBuilder) add(row []byte) {
	b.body = append(b.body, row...)
	if b.n++; b.n == replayFrameRows {
		b.flush()
	}
}

func (b *frameBuilder) flush() {
	if b.n == 0 {
		return
	}
	f := binary.AppendUvarint(make([]byte, 0, len(b.body)+16), uint64(b.n))
	b.out = append(b.out, wire.AppendFooter(append(f, b.body...)))
	b.rows = append(b.rows, b.n)
	b.body, b.n = b.body[:0], 0
}

// stopwatch accumulates the time of the sections a stage wants counted,
// leaving out the bookkeeping between them.
type stopwatch struct {
	total time.Duration
	t0    time.Time
}

func (s *stopwatch) start() { s.t0 = time.Now() }
func (s *stopwatch) stop()  { s.total += time.Since(s.t0) }
func (s *stopwatch) ns() float64 {
	return float64(s.total.Nanoseconds())
}

func per(total float64, n int) float64 {
	if n == 0 {
		return 0
	}
	return total / float64(n)
}

// replayStages runs the stage replay for one query over its sources. opt is
// the workload's Options (only Tier, Recovery and the cap matter here) and
// dir a scratch directory.
func replayStages(tr *tracer, parent int, sources []*source, q *squall.JoinQuery, opt squall.Options, dir string) (layerCosts, error) {
	lc := layerCosts{m: map[string]float64{}}
	id, endAll := tr.begin(parent, "replay", 0)
	defer endAll()
	stage := func(name string) func() {
		_, end := tr.begin(id, name, 0)
		return end
	}
	nrel := len(sources)
	inputs := 0
	for _, s := range sources {
		inputs += s.size()
	}

	// core: plan.
	end := stage("core.plan")
	t0 := time.Now()
	hc, err := q.BuildScheme()
	end()
	if err != nil {
		return lc, err
	}
	lc.m["core.plan_ms"] = float64(time.Since(t0).Nanoseconds()) / 1e6
	tasks := hc.Machines()

	// types: text lines to tuples.
	end = stage("types.parse")
	tuples := make([][]types.Tuple, nrel)
	var sw stopwatch
	parsed := 0
	for r, s := range sources {
		if s.rows != nil {
			tuples[r] = s.rows
			continue
		}
		tuples[r] = make([]types.Tuple, len(s.lines))
		sw.start()
		for i, l := range s.lines {
			if tuples[r][i], err = types.ParseLine(s.schema, l, '|'); err != nil {
				return lc, err
			}
		}
		sw.stop()
		parsed += len(s.lines)
	}
	end()
	lc.m["types.parse_ns_row"] = per(sw.ns(), parsed)
	lc.pathNS += sw.ns()

	// wire: tuples to footered frames, one buffer reused as a producer does.
	end = stage("wire.encode")
	frames := make([][][]byte, nrel)
	sw = stopwatch{}
	var scratch []byte
	var wireBytes int
	for r := range tuples {
		for i := 0; i < len(tuples[r]); i += replayFrameRows {
			sw.start()
			scratch = wire.AppendFooter(wire.EncodeBatch(scratch[:0], tuples[r][i:min(i+replayFrameRows, len(tuples[r]))]))
			sw.stop()
			frames[r] = append(frames[r], append([]byte(nil), scratch...))
			wireBytes += len(scratch)
		}
	}
	end()
	lc.m["wire.encode_ns_row"] = per(sw.ns(), inputs)
	lc.m["wire.bytes_row"] = per(float64(wireBytes), inputs)
	lc.pathNS += sw.ns()

	// wire: the consumer's walk, alone and with the key hash.
	end = stage("wire.cursor")
	var cur wire.Cursor
	var walk, walkHash stopwatch
	var sink uint64
	for r := range frames {
		for _, f := range frames[r] {
			walk.start()
			_, _, err = wire.EachRow(f, &cur, func([]byte) error { return nil })
			walk.stop()
			if err != nil {
				return lc, err
			}
			walkHash.start()
			wire.EachRow(f, &cur, func([]byte) error { sink += cur.Hash(0); return nil })
			walkHash.stop()
		}
	}
	end()
	walkNSRow := per(walk.ns(), inputs)
	lc.m["wire.cursor_ns_row"] = per(walkHash.ns(), inputs)

	// ops: the source-side pipeline. The engine's sources run it row by row
	// (RunOne on each freshly encoded row); the frame kernel is measured next
	// to it, on the same frames.
	end = stage("ops.select")
	selected := make([]*frameBuilder, nrel)
	var rowPath, framePath stopwatch
	survivors, kernelRows := 0, 0
	for r := range frames {
		pre := q.Sources[r].Pre
		pp := ops.CompilePipeline(pre)
		fb := &frameBuilder{}
		selected[r] = fb
		for _, f := range frames[r] {
			rowPath.start()
			_, _, err = wire.EachRow(f, &cur, func(row []byte) error {
				out, _, keep, err := pp.RunOne(row, &cur)
				if err == nil && keep {
					fb.add(out)
					survivors++
				}
				return err
			})
			rowPath.stop()
			if err != nil {
				return lc, err
			}
		}
		fb.flush()
		if len(pre) == 0 {
			continue
		}
		var view vec.FrameView
		for _, f := range frames[r] {
			framePath.start()
			ok := view.Reset(f)
			if ok {
				_, err = pp.RunFrame(&view, func([]byte, *wire.Cursor) error { return nil })
			}
			framePath.stop()
			if !ok || err != nil {
				return lc, fmt.Errorf("replay: frame kernel refused a %s frame: %v", sources[r].name, err)
			}
			kernelRows += view.Count()
		}
	}
	end()
	// fb.add copies each survivor; the engine's producers copy it into a
	// target batch too, so it stays in.
	lc.m["ops.select_ns_row"] = per(rowPath.ns(), inputs)
	lc.m["ops.select_frame_ns_row"] = per(framePath.ns(), kernelRows)
	lc.m["ops.selectivity"] = per(float64(survivors), inputs)
	lc.pathNS += rowPath.ns()

	// core: route every surviving row; keep task 0's share, interleaved
	// across relations by position, as that task's arrival order.
	end = stage("core.route")
	rng := rand.New(rand.NewSource(1))
	var route stopwatch
	var buf []int
	routed := 0
	share := make([]*frameBuilder, nrel)
	for r := range selected {
		rg, ok := hc.GroupingFor(r).(dataflow.RowGrouping)
		if !ok {
			return lc, fmt.Errorf("replay: relation %s does not route packed rows", sources[r].name)
		}
		share[r] = &frameBuilder{}
		for _, f := range selected[r].out {
			var mine [][]byte
			route.start()
			_, _, err = wire.EachRow(f, &cur, func(row []byte) error {
				buf = rg.RowTargets(&cur, tasks, rng, buf)
				routed += len(buf)
				for _, t := range buf {
					if t == 0 {
						mine = append(mine, row)
					}
				}
				return nil
			})
			route.stop()
			if err != nil {
				return lc, err
			}
			for _, row := range mine {
				share[r].add(row)
			}
		}
		share[r].flush()
	}
	end()
	lc.m["core.route_ns_row"] = per(route.ns(), survivors)
	lc.m["core.replication"] = per(float64(routed), survivors)
	lc.pathNS += max(route.ns()-walkNSRow*float64(survivors), 0)

	var arrivals []relFrame
	shareRows := 0
	for pos := make([]int, nrel); ; {
		best := -1
		for r := range share {
			if pos[r] < len(share[r].out) && (best < 0 ||
				float64(pos[r])/float64(len(share[r].out)) < float64(pos[best])/float64(len(share[best].out))) {
				best = r
			}
		}
		if best < 0 {
			break
		}
		arrivals = append(arrivals, relFrame{best, share[best].out[pos[best]], share[best].rows[pos[best]]})
		shareRows += share[best].rows[pos[best]]
		pos[best]++
	}
	scale := per(float64(routed), shareRows) // task 0's share to all tasks

	// slab and index, alone: relation 0's share into an arena and a RefHash,
	// probed with relation 1's keys, candidates verified against stored rows.
	end = stage("slab+index")
	if err := replayIndex(&lc, q.Graph, arrivals); err != nil {
		return lc, err
	}
	end()

	// join: task 0's share through the local join the plan would pick.
	end = stage("join")
	joinNS, results, err := replayJoin(&lc, q, opt, tasks, arrivals, shareRows, dir)
	end()
	if err != nil {
		return lc, err
	}
	lc.pathNS += joinNS * scale

	// ops: fold the join's output into the group table, frame at a time.
	if q.Agg != nil && len(results) > 0 {
		end = stage("ops.fold")
		agg := ops.NewAgg([]expr.Expr{expr.C(0)}, ops.Sum, expr.C(len(results[0])-1), false)
		var fold stopwatch
		var view vec.FrameView
		for i := 0; i < len(results); i += replayFrameRows {
			f := wire.AppendFooter(wire.EncodeBatch(nil, results[i:min(i+replayFrameRows, len(results))]))
			fold.start()
			ok := view.Reset(f)
			if ok {
				ok, err = agg.FoldFrame(&view, view.All())
			}
			fold.stop()
			if !ok || err != nil {
				return lc, fmt.Errorf("replay: frame fold refused a partial-aggregate frame: %v", err)
			}
		}
		end()
		lc.m["ops.fold_ns_row"] = per(fold.ns(), len(results))
		lc.pathNS += fold.ns() * scale
	}

	// transport: the encoded frames over a loopback pair, one at a time.
	end = stage("transport")
	err = replayTransport(&lc, frames)
	end()
	return lc, err
}

// keyCol returns the column rel contributes to the join graph's first
// equi-conjunct with it, if that side is a plain column.
func keyCol(g *expr.JoinGraph, rel int) (int, bool) {
	for _, c := range g.Conjuncts {
		e := c.Left
		if c.RRel == rel {
			e = c.Right
		} else if c.LRel != rel {
			continue
		}
		if col, ok := e.(expr.Col); ok && c.Op == expr.Eq {
			return col.Index, true
		}
	}
	return 0, false
}

func replayIndex(lc *layerCosts, g *expr.JoinGraph, arrivals []relFrame) error {
	k0, ok0 := keyCol(g, 0)
	k1, ok1 := keyCol(g, 1)
	if !ok0 || !ok1 {
		return nil
	}
	var cur wire.Cursor
	arena := slab.New()
	var refs []slab.Ref
	var hashes [2][]uint64
	var keys [2][]types.Value
	var insert stopwatch
	for _, a := range arrivals {
		if a.rel > 1 {
			continue
		}
		k := k0
		if a.rel == 1 {
			k = k1
		}
		if _, _, err := wire.EachRow(a.frame, &cur, func(row []byte) error {
			v := cur.Value(k)
			hashes[a.rel] = append(hashes[a.rel], v.Hash())
			keys[a.rel] = append(keys[a.rel], v)
			if a.rel == 0 {
				insert.start()
				refs = append(refs, arena.AppendEncoded(row))
				insert.stop()
			}
			return nil
		}); err != nil {
			return err
		}
	}
	lc.m["slab.insert_ns_row"] = per(insert.ns(), len(refs))
	lc.m["slab.bytes_row"] = per(float64(arena.MemSize()), len(refs))

	h := index.NewRefHash()
	t0 := time.Now()
	for i, ref := range refs {
		h.Insert(hashes[0][i], uint32(ref))
	}
	lc.m["index.insert_ns"] = per(float64(time.Since(t0).Nanoseconds()), len(refs))
	var cand []uint32
	candidates, verified := 0, 0
	var probe stopwatch
	for i, hash := range hashes[1] {
		probe.start()
		cand = h.AppendRefs(cand[:0], hash)
		probe.stop()
		candidates += len(cand)
		for _, ref := range cand {
			if err := cur.Reset(arena.RowBytes(slab.Ref(ref))); err != nil {
				return err
			}
			if cur.Value(k0).Equal(keys[1][i]) {
				verified++
			}
		}
	}
	lc.m["index.probe_ns"] = per(probe.ns(), len(hashes[1]))
	lc.m["index.verify_ratio"] = per(float64(verified), candidates)
	return nil
}

// replayJoin feeds task 0's arrivals to the local join the engine's plan
// would build for q under opt, checkpointing it as the engine would when
// recovery is on. It returns the join's own time (checkpoints included when
// the run takes them) over the share, and for aggregate views the partial
// aggregate rows the task would hand downstream.
func replayJoin(lc *layerCosts, q *squall.JoinQuery, opt squall.Options, tasks int, arrivals []relFrame, shareRows int, dir string) (float64, []types.Tuple, error) {
	var cur wire.Cursor
	var join stopwatch
	deltas := 0
	if q.Agg != nil && q.Local == squall.DBToaster && q.Graph.IsEquiOnly() && !q.ForceDeltaJoin && opt.Recovery == nil {
		// Aggregate views: a boxed bolt, so frames are decoded to tuples
		// first.
		spec := dbtoaster.AggSpec{GroupBy: q.Agg.GroupBy, Kind: dbtoaster.AggCount}
		if q.Agg.Kind != squall.Count {
			spec.Kind, spec.Sum = dbtoaster.AggSum, q.Agg.Sum
		}
		aj, err := dbtoaster.NewAggJoin(q.Graph, spec)
		if err != nil {
			return 0, nil, err
		}
		var dec wire.BatchDecoder
		var decode stopwatch
		for _, a := range arrivals {
			decode.start()
			ts, _, err := dec.Decode(a.frame)
			decode.stop()
			if err != nil {
				return 0, nil, err
			}
			join.start()
			for _, t := range ts {
				ds, err := aj.OnTuple(a.rel, t)
				if err != nil {
					return 0, nil, err
				}
				deltas += len(ds)
			}
			join.stop()
		}
		var out []types.Tuple
		for _, d := range aj.Result() {
			out = append(out, append(d.Group.Clone(), types.Int(d.Cnt), types.Float(d.Sum)))
		}
		lc.m["wire.decode_ns_row"] = per(decode.ns(), shareRows)
		lc.m["join.onrow_ns_row"] = per(join.ns(), shareRows)
		lc.m["join.deltas_row"] = per(float64(deltas), shareRows)
		return decode.ns() + join.ns(), out, nil
	}

	// Tuple-level join on slab state, tiered exactly as plan() would.
	var tc *slab.TierConfig
	if t := opt.Tier; t != nil {
		var store slab.SegmentStore = recovery.NewMemStore()
		if t.SpillDir != "" {
			ds, err := recovery.NewDiskStore(filepath.Join(t.SpillDir, "replay-spill"))
			if err != nil {
				return 0, nil, err
			}
			store = ds
		}
		tc = &slab.TierConfig{SegmentRows: t.SegmentRows, Store: store, CacheSegments: t.CacheSegments, KeyPrefix: "replay"}
		if t.MemCapBytes > 0 {
			tc.Pressure = slab.NewPressure(t.MemCapBytes / int64(tasks))
		}
	}
	var ckStore recovery.CheckpointStore
	if opt.Recovery != nil {
		ckStore = opt.Recovery.Store
	} else {
		ds, err := recovery.NewDiskStore(filepath.Join(dir, "replay-ckpt"))
		if err != nil {
			return 0, nil, err
		}
		ckStore = ds
	}
	// Checkpoints go incremental when the state is tiered and the
	// checkpoint store can hold sealed segments.
	incremental := false
	if ss, ok := ckStore.(slab.SegmentStore); ok && tc != nil && opt.Recovery != nil {
		tc.CkStore = ss
		incremental = true
	}
	var pj interface {
		localjoin.PackedJoin
		localjoin.FrameExporter
		ExportRelTier(rel, batchSize int, footer bool, visit func(frame []byte, count int) bool) ([]slab.SegmentCk, bool, error)
		SpilledBytes() int
	}
	switch {
	case q.Local == squall.DBToaster && tc != nil:
		pj = dbtoaster.NewTupleJoinTiered(q.Graph, *tc)
	case q.Local == squall.DBToaster:
		pj = dbtoaster.NewTupleJoin(q.Graph)
	case tc != nil:
		pj = localjoin.NewTraditionalTiered(q.Graph, *tc)
	default:
		pj = localjoin.NewTraditional(q.Graph)
	}
	if !pj.PackedCapable() {
		return 0, nil, fmt.Errorf("replay: the %v join cannot take packed rows for this graph", q.Local)
	}

	// checkpoint snapshots the operator the way the recovery plane does:
	// sealed segments by reference when tiered, hot rows as frames.
	var ckpt stopwatch
	var ckBytes, ckCount int
	checkpoint := func() error {
		ckpt.start()
		defer ckpt.stop()
		ck := &recovery.Checkpoint{Manifest: recovery.Manifest{Component: "joiner", Rels: q.Graph.NumRels}}
		for rel := 0; rel < q.Graph.NumRels; rel++ {
			var fs [][]byte
			visit := func(frame []byte, count int) bool {
				fs = append(fs, append([]byte(nil), frame...))
				ck.Tuples += int64(count)
				ckBytes += len(frame)
				return true
			}
			if incremental {
				cks, ok, err := pj.ExportRelTier(rel, replayFrameRows, true, visit)
				if err != nil || !ok {
					return fmt.Errorf("replay: tiered export of relation %d refused: %v", rel, err)
				}
				refs := make([]recovery.SegmentRef, len(cks))
				for i, c := range cks {
					refs[i] = recovery.SegmentRef{Key: c.Key, CRC: c.CRC, Rows: int64(c.Rows), Dead: c.Dead}
				}
				ck.Segments = append(ck.Segments, refs)
			} else {
				pj.ExportRelFrames(rel, replayFrameRows, true, visit)
			}
			ck.Frames = append(ck.Frames, fs)
		}
		ckCount++
		return ckStore.Put("joiner", 0, ck)
	}
	every := 0
	if opt.Recovery != nil {
		every = opt.Recovery.CheckpointEvery
		if every <= 0 {
			every = 512 // the engine's default
		}
	}

	emit := func([]byte) error { deltas++; return nil }
	since := 0
	for _, a := range arrivals {
		join.start()
		_, _, err := wire.EachRow(a.frame, &cur, func(row []byte) error {
			return pj.OnRow(a.rel, row, &cur, emit)
		})
		join.stop()
		if err != nil {
			return 0, nil, err
		}
		if since += a.rows; every > 0 && since >= every {
			since = 0
			if err := checkpoint(); err != nil {
				return 0, nil, err
			}
		}
	}
	total := join.ns()
	if every > 0 {
		total += ckpt.ns()
	} else if err := checkpoint(); err != nil {
		return 0, nil, err
	}
	t0 := time.Now()
	if _, ok, err := ckStore.Get("joiner", 0); err != nil || !ok {
		return 0, nil, fmt.Errorf("replay: reading the checkpoint back: found=%v err=%v", ok, err)
	}
	lc.m["recovery.restore_ms"] = float64(time.Since(t0).Nanoseconds()) / 1e6
	lc.m["recovery.ckpt_ms"] = per(ckpt.ns(), ckCount) / 1e6
	lc.m["recovery.ckpt_bytes"] = per(float64(ckBytes), ckCount)
	lc.m["join.onrow_ns_row"] = per(join.ns(), shareRows)
	lc.m["join.deltas_row"] = per(float64(deltas), shareRows)
	lc.m["slab.replay_spilled_mb"] = float64(pj.SpilledBytes()) / 1e6
	return total, nil, nil
}

// replayTransport ships the frames over a loopback TCP pair, write then
// read, and reports the time per frame and the payload rate.
func replayTransport(lc *layerCosts, frames [][][]byte) error {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	defer ln.Close()
	type accepted struct {
		c   net.Conn
		err error
	}
	acc := make(chan accepted, 1)
	go func() {
		c, err := ln.Accept()
		acc <- accepted{c, err}
	}()
	out, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		return err
	}
	w := transport.NewConn(out)
	defer w.Close()
	a := <-acc
	if a.err != nil {
		return a.err
	}
	r := transport.NewConn(a.c)
	defer r.Close()

	const maxFrames = 20000 // enough to be steady, bounded on the largest input
	n, bytes := 0, 0
	var m transport.Msg
	t0 := time.Now()
	for _, fs := range frames {
		for _, f := range fs {
			if n == maxFrames {
				break
			}
			if err := w.WriteMsg(&transport.Msg{Kind: transport.KindUser, Payload: f}); err != nil {
				return err
			}
			if err := r.ReadMsg(&m); err != nil {
				return err
			}
			n++
			bytes += len(f)
		}
	}
	el := time.Since(t0)
	lc.m["transport.frame_us"] = per(float64(el.Nanoseconds())/1e3, n)
	lc.m["transport.mb_s"] = float64(bytes) / 1e6 / el.Seconds()
	return nil
}

// replay implementations of the two instance kinds.

func (c *closedLoop) replay(tr *tracer, parent int) (layerCosts, error) {
	dir := filepath.Join(c.dir, "replay")
	if err := os.Mkdir(dir, 0o755); err != nil {
		return layerCosts{}, err
	}
	defer os.RemoveAll(dir)
	var opt squall.Options
	if c.options != nil {
		if err := c.options(dir, &opt); err != nil {
			return layerCosts{}, err
		}
	}
	lc, err := replayStages(tr, parent, c.sources, c.query, opt, dir)
	lc.m["core.plan_ms"] = c.planMS // set-up's figure, which includes CompileSQL
	return lc, err
}

func (p *paced) replay(tr *tracer, parent int) (layerCosts, error) {
	dir, err := os.MkdirTemp(outDir, "paced-replay-*")
	if err != nil {
		return layerCosts{}, err
	}
	defer os.RemoveAll(dir)
	srcs := []*source{{name: "R", schema: pacedSchema, rows: p.r}, {name: "S", schema: pacedSchema, rows: p.s}}
	// One replay per registered query. The metrics are the unfiltered
	// query's; the path adds up all four, less the encodes the shared scan
	// does once instead of four times.
	var total layerCosts
	for i, pct := range pacedKeep {
		q := p.query(pct)
		for r := range q.Sources {
			q.Sources[r].Spout = srcs[r].spout
		}
		lc, err := replayStages(tr, parent, srcs, q, squall.Options{}, dir)
		if err != nil {
			return lc, err
		}
		if i == 0 {
			total = lc
			continue
		}
		total.pathNS += lc.pathNS - lc.m["wire.encode_ns_row"]*float64(len(p.r)+len(p.s))
	}
	return total, nil
}
