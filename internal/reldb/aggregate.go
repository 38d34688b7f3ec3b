package reldb

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/sqllang"
)

// aggregate executes the GROUP BY / aggregate-function path of a SELECT
// over the filtered joined tuples. Plain select items must appear in GROUP
// BY; with no GROUP BY, the whole input forms one group.
func (db *DB) aggregate(sel *sqllang.Select, tables []*table, tuples [][][]Value) (*Result, error) {
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
	// Each row's key is built in one reused buffer and looked up without
	// a copy; only a new group's key becomes a string.
	var kb []byte
	for _, tuple := range tuples {
		kb = kb[:0]
		for _, pos := range groupPos {
			kb = append(tuple[pos.ti][pos.ci].appendKey(kb), '\x00')
		}
		g, ok := groups[string(kb)]
		if !ok {
			key := string(kb)
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

// computeAggregate evaluates one select item over one group.
func computeAggregate(item sqllang.SelectItem, pos colPos, sample [][]Value, rows [][][]Value) (Value, error) {
	if item.Agg == sqllang.AggNone {
		if sample == nil {
			return NullValue(), nil
		}
		return sample[pos.ti][pos.ci], nil
	}
	if item.Star {
		return Int(int64(len(rows))), nil
	}

	// Collect non-null values of the target column.
	var values []Value
	for _, tuple := range rows {
		v := tuple[pos.ti][pos.ci]
		if !v.Null {
			values = append(values, v)
		}
	}
	switch item.Agg {
	case sqllang.AggCount:
		return Int(int64(len(values))), nil
	case sqllang.AggMin, sqllang.AggMax:
		if len(values) == 0 {
			return NullValue(), nil
		}
		best := values[0]
		for _, v := range values[1:] {
			c, err := compare(v, best)
			if err != nil {
				return Value{}, err
			}
			if (item.Agg == sqllang.AggMin && c < 0) || (item.Agg == sqllang.AggMax && c > 0) {
				best = v
			}
		}
		return best, nil
	case sqllang.AggSum, sqllang.AggAvg:
		if len(values) == 0 {
			return NullValue(), nil
		}
		sum := 0.0
		allInt := true
		for _, v := range values {
			n, ok := v.numeric()
			if !ok {
				return Value{}, fmt.Errorf("reldb: %s over non-numeric column %q", item.Agg, item.Col.String())
			}
			if v.Type != sqllang.TypeInteger {
				allInt = false
			}
			sum += n
		}
		if item.Agg == sqllang.AggAvg {
			return Real(sum / float64(len(values))), nil
		}
		if allInt {
			return Int(int64(sum)), nil
		}
		return Real(sum), nil
	default:
		return Value{}, fmt.Errorf("reldb: unsupported aggregate %v", item.Agg)
	}
}
