package squall

import (
	"fmt"
	"strings"

	"squall/internal/dataflow"
	"squall/internal/expr"
	"squall/internal/ops"
	"squall/internal/sqlparse"
)

// CatalogEntry registers one relation for the SQL interface: its schema,
// streaming source, size estimate, and skew metadata (which join keys are
// skewed, and optionally the top-key frequency a sampler estimated — §3.4).
type CatalogEntry struct {
	Schema  *Schema
	Spout   dataflow.SpoutFactory
	Size    int64
	Skewed  map[string]bool    // column name -> declared skewed
	TopFreq map[string]float64 // column name -> top-key frequency
}

// Catalog maps table names (case-insensitive) to their entries.
type Catalog map[string]CatalogEntry

// normalized returns a copy of the catalog with lower-cased keys — the
// single registration point every lookup relies on, so mixed-case
// registrations cannot shadow each other. Two entries whose names differ
// only by case would collide nondeterministically; reject them outright.
func (c Catalog) normalized() (Catalog, error) {
	out := make(Catalog, len(c))
	for k, v := range c {
		lk := strings.ToLower(k)
		if _, dup := out[lk]; dup {
			return nil, fmt.Errorf("sql: catalog entries named %q collide case-insensitively", lk)
		}
		out[lk] = v
	}
	return out, nil
}

// lookup resolves a (case-insensitive) table name against a normalized
// catalog: one map probe, no scan.
func (c Catalog) lookup(name string) (CatalogEntry, bool) {
	e, ok := c[strings.ToLower(name)]
	return e, ok
}

// SQLOptions choose the physical plan for a SQL query. Zero values mean:
// Hybrid-Hypercube, DBToaster local joins, 8 machines — the configuration
// Squall's optimizer prefers.
type SQLOptions struct {
	Scheme   SchemeKind
	Local    LocalJoinKind
	Machines int
}

func (o *SQLOptions) defaults() {
	if o.Machines <= 0 {
		o.Machines = 8
	}
	// HybridHypercube and DBToaster are the zero values of their types only
	// if declared first; set explicitly for clarity.
	if o.Scheme != HashHypercube && o.Scheme != RandomHypercube && o.Scheme != HybridHypercube {
		o.Scheme = HybridHypercube
	}
}

// CompileSQL parses and plans a SQL query against the catalog, producing an
// executable JoinQuery. Selections over single relations are pushed into the
// source components (the optimizer's selection pushdown, §2); comparisons
// across two relations become join conjuncts; skew metadata from the catalog
// flows into the Hybrid-Hypercube's key renaming.
func CompileSQL(sql string, cat Catalog, o SQLOptions) (*JoinQuery, error) {
	o.defaults()
	q, err := sqlparse.Parse(sql)
	if err != nil {
		return nil, err
	}
	norm, err := cat.normalized()
	if err != nil {
		return nil, err
	}
	c := &sqlCompiler{cat: norm, q: q}
	return c.compile(o)
}

// RunSQL compiles and executes a SQL query.
func RunSQL(sql string, cat Catalog, o SQLOptions, run Options) (*Result, error) {
	jq, err := CompileSQL(sql, cat, o)
	if err != nil {
		return nil, err
	}
	return jq.Run(run)
}

type sqlRel struct {
	ref    sqlparse.TableRef
	entry  CatalogEntry
	filter []expr.Pred
}

type sqlCompiler struct {
	cat  Catalog
	q    *sqlparse.Query
	rels []*sqlRel
}

func (c *sqlCompiler) compile(o SQLOptions) (*JoinQuery, error) {
	if len(c.q.From) == 0 {
		return nil, fmt.Errorf("sql: FROM clause is empty")
	}
	for _, tr := range c.q.From {
		entry, ok := c.cat.lookup(tr.Name)
		if !ok {
			return nil, fmt.Errorf("sql: unknown table %q", tr.Name)
		}
		c.rels = append(c.rels, &sqlRel{ref: tr, entry: entry})
	}

	var conjuncts []expr.JoinConjunct
	for _, cmp := range c.q.Where {
		le, lrel, err := c.resolve(cmp.L)
		if err != nil {
			return nil, err
		}
		re, rrel, err := c.resolve(cmp.R)
		if err != nil {
			return nil, err
		}
		op, err := cmpOp(cmp.Op)
		if err != nil {
			return nil, err
		}
		switch {
		case lrel >= 0 && rrel >= 0 && lrel != rrel:
			conjuncts = append(conjuncts, expr.JoinConjunct{LRel: lrel, RRel: rrel, Op: op, Left: le, Right: re})
		case lrel >= 0 && (rrel < 0 || rrel == lrel):
			c.rels[lrel].filter = append(c.rels[lrel].filter, expr.Cmp{Op: op, L: le, R: re})
		case rrel >= 0:
			c.rels[rrel].filter = append(c.rels[rrel].filter, expr.Cmp{Op: op, L: le, R: re})
		default:
			return nil, fmt.Errorf("sql: constant predicate %s %s not supported", cmp.Op, "…")
		}
	}
	graph, err := expr.NewJoinGraph(len(c.rels), conjuncts...)
	if err != nil {
		return nil, err
	}
	if len(c.rels) > 1 {
		full := uint64(1)<<len(c.rels) - 1
		if !graph.Connected(full) {
			return nil, fmt.Errorf("sql: cross products are not supported; add join conditions")
		}
	}

	jq := &JoinQuery{
		Graph:    graph,
		Scheme:   o.Scheme,
		Machines: o.Machines,
		Local:    o.Local,
		Skewed:   map[KeySlot]bool{},
		TopFreq:  map[KeySlot]float64{},
	}
	for _, r := range c.rels {
		name := r.ref.Alias
		if name == "" {
			name = r.ref.Name
		}
		src := Source{
			Name:   strings.ToUpper(name),
			Schema: r.entry.Schema,
			Spout:  r.entry.Spout,
			Size:   r.entry.Size,
		}
		if len(r.filter) > 0 {
			src.Pre = ops.Pipeline{ops.Select{P: expr.And{Preds: r.filter}}}
			// Heuristic selectivity: each filter keeps ~1/3 of the input.
			est := r.entry.Size
			for range r.filter {
				est /= 3
			}
			src.Size = max(est, 1)
		}
		jq.Sources = append(jq.Sources, src)
	}
	// Skew metadata: mark join-conjunct sides whose column is declared
	// skewed in the catalog.
	for _, cj := range conjuncts {
		c.markSkew(jq, cj.LRel, cj.Left)
		c.markSkew(jq, cj.RRel, cj.Right)
	}

	if err := c.compileSelect(jq); err != nil {
		return nil, err
	}
	return jq, nil
}

func (c *sqlCompiler) markSkew(jq *JoinQuery, rel int, e expr.Expr) {
	col, ok := e.(expr.Col)
	if !ok {
		return
	}
	entry := c.rels[rel].entry
	name := strings.ToLower(entry.Schema.Columns[col.Index].Name)
	if entry.Skewed[name] {
		jq.Skewed[KeySlot{Rel: rel, Expr: e.String()}] = true
	}
	if f, ok := entry.TopFreq[name]; ok {
		jq.TopFreq[KeySlot{Rel: rel, Expr: e.String()}] = f
	}
}

// compileSelect maps the SELECT list: at most one aggregate; bare columns
// must appear in GROUP BY (enforced loosely: GROUP BY drives the plan).
func (c *sqlCompiler) compileSelect(jq *JoinQuery) error {
	var groupBy []ColRef
	for _, g := range c.q.GroupBy {
		e, rel, err := c.resolve(g)
		if err != nil {
			return err
		}
		if rel < 0 {
			return fmt.Errorf("sql: GROUP BY %s does not reference a relation", g.Column)
		}
		groupBy = append(groupBy, ColRef{Rel: rel, E: e})
	}
	var agg *AggSpec
	for _, item := range c.q.Select {
		if item.Agg == "" {
			continue
		}
		if agg != nil {
			return fmt.Errorf("sql: only one aggregate per query is supported")
		}
		spec := &AggSpec{GroupBy: groupBy}
		switch item.Agg {
		case "COUNT":
			spec.Kind = Count
		case "SUM", "AVG":
			if item.Star || item.Expr == nil {
				return fmt.Errorf("sql: %s needs an argument", item.Agg)
			}
			e, rel, err := c.resolve(item.Expr)
			if err != nil {
				return err
			}
			if rel < 0 {
				return fmt.Errorf("sql: %s argument must reference a relation", item.Agg)
			}
			spec.Sum = &ColRef{Rel: rel, E: e}
			if item.Agg == "SUM" {
				spec.Kind = Sum
			} else {
				spec.Kind = Avg
			}
		default:
			return fmt.Errorf("sql: unsupported aggregate %s", item.Agg)
		}
		agg = spec
	}
	if agg != nil {
		jq.Agg = agg
		return nil
	}
	if len(groupBy) > 0 {
		return fmt.Errorf("sql: GROUP BY without an aggregate")
	}
	// Pure projection: build a Post pipeline over the concatenated row.
	offsets := jq.relOffsets()
	var es []expr.Expr
	for _, item := range c.q.Select {
		e, rel, err := c.resolve(item.Expr)
		if err != nil {
			return err
		}
		col, ok := e.(expr.Col)
		if !ok || rel < 0 {
			return fmt.Errorf("sql: non-aggregate SELECT supports plain columns only")
		}
		es = append(es, expr.C(offsets[rel]+col.Index))
	}
	if len(es) > 0 {
		jq.Post = ops.Pipeline{ops.Project{Es: es}}
	}
	return nil
}

// resolve turns an AST node into an expression over ONE relation's tuples,
// returning that relation's index (-1 for pure literals).
func (c *sqlCompiler) resolve(n sqlparse.Node) (expr.Expr, int, error) {
	switch v := n.(type) {
	case sqlparse.LitExpr:
		switch {
		case v.IsString:
			return expr.S(v.S), -1, nil
		case v.IsFloat:
			return expr.F(v.F), -1, nil
		default:
			return expr.I(v.I), -1, nil
		}
	case sqlparse.ColRefExpr:
		rel, col, err := c.findColumn(v)
		if err != nil {
			return nil, 0, err
		}
		return expr.CN(col, v.Column), rel, nil
	case sqlparse.BinExpr:
		le, lrel, err := c.resolve(v.L)
		if err != nil {
			return nil, 0, err
		}
		re, rrel, err := c.resolve(v.R)
		if err != nil {
			return nil, 0, err
		}
		rel, err := mergeRel(lrel, rrel)
		if err != nil {
			return nil, 0, err
		}
		return expr.Arith{Op: expr.ArithOp(v.Op), L: le, R: re}, rel, nil
	case sqlparse.FuncExpr:
		arg, rel, err := c.resolve(v.Arg)
		if err != nil {
			return nil, 0, err
		}
		if v.Name != "DATE" {
			return nil, 0, fmt.Errorf("sql: unknown function %s", v.Name)
		}
		return expr.Date{Inner: arg}, rel, nil
	default:
		return nil, 0, fmt.Errorf("sql: unsupported expression %T", n)
	}
}

func mergeRel(a, b int) (int, error) {
	switch {
	case a < 0:
		return b, nil
	case b < 0 || a == b:
		return a, nil
	default:
		return 0, fmt.Errorf("sql: expression mixes columns of two relations; only comparisons may span relations")
	}
}

// findColumn resolves table.column / column against the FROM relations.
func (c *sqlCompiler) findColumn(ref sqlparse.ColRefExpr) (int, int, error) {
	matchRel := -1
	matchCol := 0
	for i, r := range c.rels {
		if ref.Table != "" {
			alias := r.ref.Alias
			if alias == "" {
				alias = r.ref.Name
			}
			if !strings.EqualFold(alias, ref.Table) && !strings.EqualFold(r.ref.Name, ref.Table) {
				continue
			}
		}
		if col, ok := r.entry.Schema.Col(ref.Column); ok {
			if matchRel >= 0 {
				return 0, 0, fmt.Errorf("sql: column %q is ambiguous", ref.Column)
			}
			matchRel, matchCol = i, col
		} else if ref.Table != "" {
			return 0, 0, fmt.Errorf("sql: table %s has no column %q", ref.Table, ref.Column)
		}
	}
	if matchRel < 0 {
		return 0, 0, fmt.Errorf("sql: unknown column %q", ref.Column)
	}
	return matchRel, matchCol, nil
}

func cmpOp(s string) (expr.CmpOp, error) {
	switch s {
	case "=":
		return expr.Eq, nil
	case "<>":
		return expr.Ne, nil
	case "<":
		return expr.Lt, nil
	case "<=":
		return expr.Le, nil
	case ">":
		return expr.Gt, nil
	case ">=":
		return expr.Ge, nil
	default:
		return 0, fmt.Errorf("sql: unknown operator %q", s)
	}
}
