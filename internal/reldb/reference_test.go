package reldb

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/sqllang"
)

// This file keeps the per-row SELECT path as it stood before execution
// moved to one allocation per result: every base row wrapped in its own
// one-table tuple, one env and one lookup per ORDER BY comparison, and
// one projected slice per row. The differential fuzz target runs it
// beside executeSelect; the two must agree on columns, rows, row order,
// value text and errors.

// refKey is the index and uniqueness key formula before key was built
// without fmt.
func refKey(v Value) string {
	if v.Null {
		return "\x00NULL"
	}
	return fmt.Sprintf("%d:%s", int(v.Type), v.String())
}

// refLookup is env.lookup before it resolved through lookupPos.
func refLookup(tables []*table, rows [][]Value, ref sqllang.ColumnRef) (Value, error) {
	if ref.Table != "" {
		for ti, t := range tables {
			if strings.EqualFold(t.name, ref.Table) {
				ci, err := t.column(ref.Column)
				if err != nil {
					return Value{}, err
				}
				return rows[ti][ci], nil
			}
		}
		return Value{}, fmt.Errorf("reldb: unknown table %q in column reference", ref.Table)
	}
	found := -1
	var out Value
	for ti, t := range tables {
		if ci, ok := t.colIdx[strings.ToLower(ref.Column)]; ok {
			if found >= 0 {
				return Value{}, fmt.Errorf("reldb: column %q is ambiguous across joined tables", ref.Column)
			}
			found = ti
			out = rows[ti][ci]
		}
	}
	if found < 0 {
		return Value{}, fmt.Errorf("reldb: unknown column %q", ref.Column)
	}
	return out, nil
}

// refQuery parses sql and runs it through refExecuteSelect under the
// read lock, as Query does through executeSelect.
func (db *DB) refQuery(sql string) (*Result, error) {
	stmt, err := sqllang.Parse(sql)
	if err != nil {
		return nil, err
	}
	sel, ok := stmt.(*sqllang.Select)
	if !ok {
		return nil, fmt.Errorf("reldb: Query requires a SELECT statement, got %T", stmt)
	}
	db.mu.RLock()
	defer db.mu.RUnlock()
	return db.refExecuteSelect(sel)
}

func (db *DB) refExecuteSelect(sel *sqllang.Select) (*Result, error) {
	base, err := db.table(sel.Table)
	if err != nil {
		return nil, err
	}
	tables := []*table{base}
	for _, j := range sel.Joins {
		jt, err := db.table(j.Table)
		if err != nil {
			return nil, err
		}
		tables = append(tables, jt)
	}

	tuples, err := db.refJoinTuples(sel, tables)
	if err != nil {
		return nil, err
	}

	var filtered [][][]Value
	e := &env{tables: tables}
	for _, tuple := range tuples {
		if sel.Where != nil {
			e.rows = tuple
			ok, err := evalBool(sel.Where, e)
			if err != nil {
				return nil, err
			}
			if !ok {
				continue
			}
		}
		filtered = append(filtered, tuple)
	}

	if sqllang.HasAggregate(sel.Columns) || len(sel.GroupBy) > 0 {
		return refAggregate(sel, tables, filtered)
	}

	if sel.Order != nil {
		ref := sel.Order.Column
		var sortErr error
		sort.SliceStable(filtered, func(i, j int) bool {
			vi, err := refLookup(tables, filtered[i], ref)
			if err != nil {
				sortErr = err
				return false
			}
			vj, err := refLookup(tables, filtered[j], ref)
			if err != nil {
				sortErr = err
				return false
			}
			if vi.Null != vj.Null {
				return vi.Null
			}
			if vi.Null {
				return false
			}
			c, err := compare(vi, vj)
			if err != nil {
				sortErr = err
				return false
			}
			if sel.Order.Desc {
				return c > 0
			}
			return c < 0
		})
		if sortErr != nil {
			return nil, sortErr
		}
	}

	result, err := refProject(sel, tables, filtered)
	if err != nil {
		return nil, err
	}

	if sel.Distinct {
		seen := make(map[string]bool, len(result.Rows))
		kept := result.Rows[:0]
		for _, row := range result.Rows {
			var b strings.Builder
			for _, v := range row {
				b.WriteString(refKey(v))
				b.WriteByte('\x00')
			}
			k := b.String()
			if !seen[k] {
				seen[k] = true
				kept = append(kept, row)
			}
		}
		result.Rows = kept
	}

	result.Rows = applyOffsetLimit(result.Rows, sel.Offset, sel.Limit)
	return result, nil
}

func (db *DB) refJoinTuples(sel *sqllang.Select, tables []*table) ([][][]Value, error) {
	baseRows := refScanBase(sel, tables[0])
	tuples := make([][][]Value, 0, len(baseRows))
	for _, r := range baseRows {
		tuples = append(tuples, [][]Value{r})
	}
	for ji, j := range sel.Joins {
		right := tables[ji+1]
		rightRef, leftRef := j.Right, j.Left
		if strings.EqualFold(leftRef.Table, right.name) && !strings.EqualFold(rightRef.Table, right.name) {
			rightRef, leftRef = j.Left, j.Right
		}
		rightCol, err := right.column(rightRef.Column)
		if err != nil {
			return nil, err
		}
		hash := make(map[string][][]Value, len(right.rows))
		for _, row := range right.rows {
			k := refKey(row[rightCol])
			hash[k] = append(hash[k], row)
		}
		joined := tuples[:0:0]
		prior := tables[:ji+1]
		for _, tuple := range tuples {
			lv, err := refLookup(prior, tuple, leftRef)
			if err != nil {
				return nil, err
			}
			for _, rrow := range hash[refKey(lv)] {
				next := make([][]Value, len(tuple)+1)
				copy(next, tuple)
				next[len(tuple)] = rrow
				joined = append(joined, next)
			}
		}
		tuples = joined
	}
	return tuples, nil
}

func refScanBase(sel *sqllang.Select, t *table) [][]Value {
	if sel.Where != nil && len(sel.Joins) == 0 {
		if col, val, ok := indexableEquality(sel.Where, t); ok {
			if idx, indexed := t.indexes[col]; indexed {
				rowNos := idx[refKey(val)]
				rows := make([][]Value, 0, len(rowNos))
				for _, n := range rowNos {
					rows = append(rows, t.rows[n])
				}
				return rows
			}
		}
	}
	return t.rows
}

func refProject(sel *sqllang.Select, tables []*table, tuples [][][]Value) (*Result, error) {
	res := &Result{}
	var positions []colPos

	if len(sel.Columns) == 0 {
		for ti, t := range tables {
			for ci, c := range t.columns {
				positions = append(positions, colPos{ti, ci})
				name := c.Name
				if len(tables) > 1 {
					name = t.name + "." + c.Name
				}
				res.Columns = append(res.Columns, name)
			}
		}
	} else {
		for _, item := range sel.Columns {
			pos, err := resolveRef(tables, item.Col)
			if err != nil {
				return nil, err
			}
			positions = append(positions, pos)
			res.Columns = append(res.Columns, item.Col.String())
		}
	}

	res.Rows = make([][]Value, 0, len(tuples))
	for _, tuple := range tuples {
		row := make([]Value, len(positions))
		for i, p := range positions {
			row[i] = tuple[p.ti][p.ci]
		}
		res.Rows = append(res.Rows, row)
	}
	return res, nil
}

// refAggregate is DB.aggregate before it built group keys in one reused
// buffer: one strings.Builder and one key string per GROUP BY column per
// row.
func refAggregate(sel *sqllang.Select, tables []*table, tuples [][][]Value) (*Result, error) {
	// Resolve GROUP BY columns.
	groupPos := make([]colPos, len(sel.GroupBy))
	groupKeySet := make(map[string]bool, len(sel.GroupBy))
	for i, ref := range sel.GroupBy {
		pos, err := resolveRef(tables, ref)
		if err != nil {
			return nil, err
		}
		groupPos[i] = pos
		groupKeySet[strings.ToLower(ref.Column)] = true
		if ref.Table != "" {
			groupKeySet[strings.ToLower(ref.String())] = true
		}
	}

	// Validate and resolve the select list.
	if len(sel.Columns) == 0 {
		return nil, fmt.Errorf("reldb: SELECT * cannot be combined with GROUP BY or aggregates")
	}
	type itemPlan struct {
		item sqllang.SelectItem
		pos  colPos // unused for COUNT(*)
	}
	plans := make([]itemPlan, 0, len(sel.Columns))
	res := &Result{}
	for _, item := range sel.Columns {
		ip := itemPlan{item: item}
		if !item.Star {
			pos, err := resolveRef(tables, item.Col)
			if err != nil {
				return nil, err
			}
			ip.pos = pos
		}
		if item.Agg == sqllang.AggNone {
			if !groupKeySet[strings.ToLower(item.Col.Column)] && !groupKeySet[strings.ToLower(item.Col.String())] {
				return nil, fmt.Errorf("reldb: column %q must appear in GROUP BY or an aggregate", item.Col.String())
			}
		}
		plans = append(plans, ip)
		res.Columns = append(res.Columns, item.String())
	}

	// Partition tuples into groups.
	type group struct {
		key    string
		sample [][]Value // representative tuple for group-by values
		rows   [][][]Value
	}
	groups := map[string]*group{}
	var order []string
	for _, tuple := range tuples {
		var kb strings.Builder
		for _, pos := range groupPos {
			kb.WriteString(tuple[pos.ti][pos.ci].key())
			kb.WriteByte('\x00')
		}
		key := kb.String()
		g, ok := groups[key]
		if !ok {
			g = &group{key: key, sample: tuple}
			groups[key] = g
			order = append(order, key)
		}
		g.rows = append(g.rows, tuple)
	}
	sort.Strings(order)
	// With no GROUP BY and no input rows, aggregates still produce one row
	// (COUNT(*) = 0).
	if len(sel.GroupBy) == 0 && len(order) == 0 {
		groups[""] = &group{}
		order = append(order, "")
	}

	for _, key := range order {
		g := groups[key]
		row := make([]Value, len(plans))
		for i, ip := range plans {
			v, err := computeAggregate(ip.item, ip.pos, g.sample, g.rows)
			if err != nil {
				return nil, err
			}
			row[i] = v
		}
		res.Rows = append(res.Rows, row)
	}

	// ORDER BY matches an output column by its printed name (e.g. ORDER BY
	// brand after GROUP BY brand) — aggregates order by group key otherwise.
	if sel.Order != nil {
		target := -1
		for i, name := range res.Columns {
			if strings.EqualFold(name, sel.Order.Column.String()) {
				target = i
				break
			}
		}
		if target < 0 {
			return nil, fmt.Errorf("reldb: ORDER BY %s does not match an output column", sel.Order.Column.String())
		}
		var sortErr error
		sort.SliceStable(res.Rows, func(i, j int) bool {
			a, b := res.Rows[i][target], res.Rows[j][target]
			if a.Null != b.Null {
				return a.Null
			}
			if a.Null {
				return false
			}
			c, err := compare(a, b)
			if err != nil {
				sortErr = err
				return false
			}
			if sel.Order.Desc {
				return c > 0
			}
			return c < 0
		})
		if sortErr != nil {
			return nil, sortErr
		}
	}
	res.Rows = applyOffsetLimit(res.Rows, sel.Offset, sel.Limit)
	return res, nil
}
