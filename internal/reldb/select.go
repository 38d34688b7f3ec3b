package reldb

import (
	"fmt"
	"slices"
	"strings"
	"unicode"
	"unicode/utf8"

	"repro/internal/sqllang"
)

// env is the row environment a WHERE expression evaluates against: one
// current row per table in FROM/JOIN order. Callers evaluating the same
// expression over many rows reuse one env and reassign rows, so the
// per-expression memos amortize across the scan.
type env struct {
	tables []*table
	rows   [][]Value
	inSets map[*sqllang.InExpr]*inSet
}

// inSet is the lookup form of an IN list. String literals live in a
// hash set — a text value can only ever equal a string literal, and
// only exactly — while the remaining literals (numbers, booleans) keep
// the linear compare scan, preserving cross-numeric-type coercion.
// Large IN predicates (the planner's semi-join narrowing emits them)
// thus cost O(1) per row instead of O(literals).
type inSet struct {
	text   map[string]bool
	others []Value
}

func buildInSet(x *sqllang.InExpr) *inSet {
	s := &inSet{text: make(map[string]bool, len(x.Values))}
	for _, lit := range x.Values {
		if lit.Kind == sqllang.LitString {
			s.text[lit.Text] = true
		} else {
			s.others = append(s.others, literalValue(lit))
		}
	}
	return s
}

func (s *inSet) contains(v Value) bool {
	if t, ok := v.TextValue(); ok {
		return s.text[t]
	}
	for _, o := range s.others {
		if c, err := compare(v, o); err == nil && c == 0 {
			return true
		}
	}
	return false
}

// inSet returns the memoized lookup form of x, building it on first use.
func (e *env) inSet(x *sqllang.InExpr) *inSet {
	if s := e.inSets[x]; s != nil {
		return s
	}
	s := buildInSet(x)
	if e.inSets == nil {
		e.inSets = map[*sqllang.InExpr]*inSet{}
	}
	e.inSets[x] = s
	return s
}

// lookup resolves a column reference against the environment.
func (e *env) lookup(ref sqllang.ColumnRef) (Value, error) {
	pos, err := lookupPos(e.tables, ref)
	if err != nil {
		return Value{}, err
	}
	return e.rows[pos.ti][pos.ci], nil
}

// lookupPos resolves a column reference the way WHERE and ORDER BY see
// it: a qualified name picks the first table of that name, and an
// unqualified one must be unambiguous across the joined tables.
func lookupPos(tables []*table, ref sqllang.ColumnRef) (colPos, error) {
	if ref.Table != "" {
		for ti, t := range tables {
			if strings.EqualFold(t.name, ref.Table) {
				ci, err := t.column(ref.Column)
				if err != nil {
					return colPos{}, err
				}
				return colPos{ti, ci}, nil
			}
		}
		return colPos{}, fmt.Errorf("reldb: unknown table %q in column reference", ref.Table)
	}
	found := false
	var pos colPos
	for ti, t := range tables {
		if ci, ok := t.colIdx[strings.ToLower(ref.Column)]; ok {
			if found {
				return colPos{}, fmt.Errorf("reldb: column %q is ambiguous across joined tables", ref.Column)
			}
			found = true
			pos = colPos{ti, ci}
		}
	}
	if !found {
		return colPos{}, fmt.Errorf("reldb: unknown column %q", ref.Column)
	}
	return pos, nil
}

// evalBool evaluates a WHERE expression. SQL three-valued logic is
// simplified to two values: any comparison involving NULL is false.
func evalBool(expr sqllang.Expr, e *env) (bool, error) {
	switch x := expr.(type) {
	case *sqllang.BinaryExpr:
		switch x.Op {
		case sqllang.OpAnd:
			l, err := evalBool(x.Left, e)
			if err != nil {
				return false, err
			}
			if !l {
				return false, nil
			}
			return evalBool(x.Right, e)
		case sqllang.OpOr:
			l, err := evalBool(x.Left, e)
			if err != nil {
				return false, err
			}
			if l {
				return true, nil
			}
			return evalBool(x.Right, e)
		default:
			return evalComparison(x, e)
		}
	case *sqllang.NotExpr:
		inner, err := evalBool(x.Inner, e)
		if err != nil {
			return false, err
		}
		return !inner, nil
	case *sqllang.IsNullExpr:
		v, err := evalOperand(x.Operand, e)
		if err != nil {
			return false, err
		}
		return v.Null != x.Negate, nil
	case *sqllang.InExpr:
		v, err := evalOperand(x.Operand, e)
		if err != nil {
			return false, err
		}
		if v.Null {
			return false, nil
		}
		return e.inSet(x).contains(v), nil
	default:
		return false, fmt.Errorf("reldb: expression %s is not a condition", expr)
	}
}

func evalComparison(x *sqllang.BinaryExpr, e *env) (bool, error) {
	left, err := evalOperand(x.Left, e)
	if err != nil {
		return false, err
	}
	right, err := evalOperand(x.Right, e)
	if err != nil {
		return false, err
	}
	if left.Null || right.Null {
		return false, nil
	}
	if x.Op == sqllang.OpLike {
		ls, lok := left.TextValue()
		rs, rok := right.TextValue()
		if !lok || !rok {
			return false, fmt.Errorf("reldb: LIKE requires text operands")
		}
		return likeMatch(ls, rs), nil
	}
	c, err := compare(left, right)
	if err != nil {
		return false, err
	}
	switch x.Op {
	case sqllang.OpEq:
		return c == 0, nil
	case sqllang.OpNe:
		return c != 0, nil
	case sqllang.OpLt:
		return c < 0, nil
	case sqllang.OpGt:
		return c > 0, nil
	case sqllang.OpLe:
		return c <= 0, nil
	case sqllang.OpGe:
		return c >= 0, nil
	default:
		return false, fmt.Errorf("reldb: unsupported operator %s", x.Op)
	}
}

func evalOperand(expr sqllang.Expr, e *env) (Value, error) {
	switch x := expr.(type) {
	case sqllang.ColumnRef:
		return e.lookup(x)
	case sqllang.LiteralExpr:
		return literalValue(x), nil
	default:
		return Value{}, fmt.Errorf("reldb: unsupported operand %s", expr)
	}
}

// likeMatch implements SQL LIKE with % (any run) and _ (any one rune),
// case-insensitively. Greedy two-pointer match over byte positions:
// advance through literal/_ characters, remember the most recent % and
// where it started consuming, and on mismatch widen that % by one rune.
// Allocation-free — the planner pushes `%literal%` predicates into
// generated SQL, which puts this on the per-row hot path.
func likeMatch(s, pattern string) bool {
	i, j := 0, 0      // byte positions in s, pattern
	star, si := -1, 0 // byte position of the last %, s position it resumes from
	for i < len(s) {
		if j < len(pattern) {
			pc, pw := utf8.DecodeRuneInString(pattern[j:])
			if pc == '%' {
				star, si = j, i
				j += pw
				continue
			}
			sc, sw := utf8.DecodeRuneInString(s[i:])
			if pc == '_' || equalFoldRune(sc, pc) {
				i, j = i+sw, j+pw
				continue
			}
		}
		if star < 0 {
			return false
		}
		_, sw := utf8.DecodeRuneInString(s[si:])
		si += sw
		i, j = si, star+1 // % is one byte wide
	}
	for j < len(pattern) && pattern[j] == '%' {
		j++
	}
	return j == len(pattern)
}

// equalFoldRune is strings.EqualFold's per-rune relation (simple case
// folding) without building the intermediate strings.
func equalFoldRune(a, b rune) bool {
	if a == b {
		return true
	}
	for r := unicode.SimpleFold(a); r != a; r = unicode.SimpleFold(r) {
		if r == b {
			return true
		}
	}
	return false
}

// executeSelect runs a parsed SELECT. Callers hold the read lock.
//
// Execution allocates per result, not per row: base rows enter as views
// of the table's row list, WHERE filters the tuple slice in place, and
// projection copies the selected cells into one rows×columns slab, so
// Result rows never alias table storage.
func (db *DB) executeSelect(sel *sqllang.Select) (*Result, error) {
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

	// Assemble joined row tuples with nested hash joins.
	tuples, err := joinTuples(sel, tables)
	if err != nil {
		return nil, err
	}

	// Filter. The tuple slice is this query's own, so it filters in place.
	if sel.Where != nil {
		kept := tuples[:0]
		e := &env{tables: tables}
		for _, tuple := range tuples {
			e.rows = tuple
			ok, err := evalBool(sel.Where, e)
			if err != nil {
				return nil, err
			}
			if ok {
				kept = append(kept, tuple)
			}
		}
		tuples = kept
	}

	// Aggregation takes over projection, ordering, and limiting.
	if sqllang.HasAggregate(sel.Columns) || len(sel.GroupBy) > 0 {
		return db.aggregate(sel, tables, tuples)
	}

	// Order. The column resolves once; a sort that compares nothing
	// resolves nothing, so it reports no error either.
	if sel.Order != nil && len(tuples) > 1 {
		pos, err := lookupPos(tables, sel.Order.Column)
		if err != nil {
			return nil, err
		}
		desc := sel.Order.Desc
		var sortErr error
		slices.SortStableFunc(tuples, func(a, b [][]Value) int {
			va, vb := a[pos.ti][pos.ci], b[pos.ti][pos.ci]
			switch {
			case va.Null && vb.Null:
				return 0
			case va.Null:
				return -1 // NULLs first
			case vb.Null:
				return 1
			}
			c, err := compare(va, vb)
			if err != nil {
				sortErr = err
				return 0
			}
			if desc {
				return -c
			}
			return c
		})
		if sortErr != nil {
			return nil, sortErr
		}
	}

	// Project.
	result, err := project(sel, tables, tuples)
	if err != nil {
		return nil, err
	}

	// Distinct.
	if sel.Distinct {
		seen := make(map[string]struct{}, len(result.Rows))
		kept := result.Rows[:0]
		var key []byte
		for _, row := range result.Rows {
			key = key[:0]
			for _, v := range row {
				key = append(v.appendKey(key), '\x00')
			}
			if _, dup := seen[string(key)]; dup {
				continue
			}
			seen[string(key)] = struct{}{}
			kept = append(kept, row)
		}
		result.Rows = kept
	}

	// Offset and limit.
	result.Rows = applyOffsetLimit(result.Rows, sel.Offset, sel.Limit)
	return result, nil
}

func applyOffsetLimit(rows [][]Value, offset, limit int) [][]Value {
	if offset > 0 {
		if offset >= len(rows) {
			return nil
		}
		rows = rows[offset:]
	}
	if limit >= 0 && len(rows) > limit {
		rows = rows[:limit]
	}
	return rows
}

// joinTuples enumerates row tuples across the FROM table and all joins,
// using a hash map on the join key to avoid quadratic nested loops. Each
// join stage appends its tuples to one slab and cuts them from it, so a
// stage allocates per result, not per joined row.
func joinTuples(sel *sqllang.Select, tables []*table) ([][][]Value, error) {
	tuples := baseTuples(sel, tables[0])
	for ji, j := range sel.Joins {
		right := tables[ji+1]
		// Determine which side of the ON condition refers to the new table.
		rightRef, leftRef := j.Right, j.Left
		if strings.EqualFold(leftRef.Table, right.name) && !strings.EqualFold(rightRef.Table, right.name) {
			rightRef, leftRef = j.Left, j.Right
		}
		rightCol, err := right.column(rightRef.Column)
		if err != nil {
			return nil, err
		}
		if len(tuples) == 0 {
			continue
		}
		// Hash the right table by join key.
		hash := make(map[string][][]Value, len(right.rows))
		for _, row := range right.rows {
			k := row[rightCol].key()
			hash[k] = append(hash[k], row)
		}
		left, err := lookupPos(tables[:ji+1], leftRef)
		if err != nil {
			return nil, err
		}
		width := ji + 2
		slab := make([][]Value, 0, len(tuples)*width)
		var key []byte
		for _, tuple := range tuples {
			key = tuple[left.ti][left.ci].appendKey(key[:0])
			for _, rrow := range hash[string(key)] {
				slab = append(append(slab, tuple...), rrow)
			}
		}
		tuples = make([][][]Value, len(slab)/width)
		for i := range tuples {
			tuples[i] = slab[i*width : (i+1)*width : (i+1)*width]
		}
	}
	return tuples, nil
}

// baseTuples returns the FROM table's rows as one-table tuples, narrowed
// by an index when the WHERE clause's top-level conjunction contains an
// equality on an indexed column. Each tuple is a capacity-capped view of
// the table's row list, so the scan allocates only the tuple slice; the
// views are read, never written or appended to.
func baseTuples(sel *sqllang.Select, t *table) [][][]Value {
	if sel.Where != nil && len(sel.Joins) == 0 {
		if col, val, ok := indexableEquality(sel.Where, t); ok {
			if rowNos, indexed := t.candidateRows(col, val); indexed {
				tuples := make([][][]Value, len(rowNos))
				for i, n := range rowNos {
					tuples[i] = t.rows[n : n+1 : n+1]
				}
				return tuples
			}
		}
	}
	tuples := make([][][]Value, len(t.rows))
	for i := range t.rows {
		tuples[i] = t.rows[i : i+1 : i+1]
	}
	return tuples
}

// indexableEquality finds one `col = literal` conjunct whose column has an
// index on t. The full WHERE still runs on the narrowed candidates, so this
// is purely an access-path optimization.
func indexableEquality(expr sqllang.Expr, t *table) (int, Value, bool) {
	switch x := expr.(type) {
	case *sqllang.BinaryExpr:
		switch x.Op {
		case sqllang.OpAnd:
			if col, v, ok := indexableEquality(x.Left, t); ok {
				return col, v, true
			}
			return indexableEquality(x.Right, t)
		case sqllang.OpEq:
			ref, refOK := x.Left.(sqllang.ColumnRef)
			lit, litOK := x.Right.(sqllang.LiteralExpr)
			if !refOK || !litOK {
				// Try the symmetric form literal = col.
				ref, refOK = x.Right.(sqllang.ColumnRef)
				lit, litOK = x.Left.(sqllang.LiteralExpr)
			}
			if !refOK || !litOK {
				return 0, Value{}, false
			}
			if ref.Table != "" && !strings.EqualFold(ref.Table, t.name) {
				return 0, Value{}, false
			}
			col, err := t.column(ref.Column)
			if err != nil {
				return 0, Value{}, false
			}
			if _, hasIdx := t.indexes[col]; !hasIdx {
				return 0, Value{}, false
			}
			// Index keys are typed: coerce the literal to the column type so
			// e.g. WHERE id = 3 hits an INTEGER index.
			v, err := coerce(lit, t.columns[col].Type)
			if err != nil {
				return 0, Value{}, false
			}
			return col, v, true
		}
	}
	return 0, Value{}, false
}

// colPos locates a column in the joined-tuple coordinate space.
type colPos struct{ ti, ci int }

// resolveRef finds a column reference across the joined tables.
func resolveRef(tables []*table, ref sqllang.ColumnRef) (colPos, error) {
	found := false
	var pos colPos
	for ti, t := range tables {
		if ref.Table != "" && !strings.EqualFold(t.name, ref.Table) {
			continue
		}
		if ci, ok := t.colIdx[strings.ToLower(ref.Column)]; ok {
			if found {
				return colPos{}, fmt.Errorf("reldb: column %q is ambiguous", ref.Column)
			}
			pos = colPos{ti, ci}
			found = true
		}
	}
	if !found {
		return colPos{}, fmt.Errorf("reldb: unknown column %q", ref.String())
	}
	return pos, nil
}

// project builds the result columns from the select list.
func project(sel *sqllang.Select, tables []*table, tuples [][][]Value) (*Result, error) {
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

	// One slab holds every projected cell; each row is a capacity-capped
	// sub-slice, so appending to one row cannot write into the next.
	w := len(positions)
	slab := make([]Value, len(tuples)*w)
	res.Rows = make([][]Value, len(tuples))
	for r, tuple := range tuples {
		row := slab[r*w : (r+1)*w : (r+1)*w]
		for i, p := range positions {
			row[i] = tuple[p.ti][p.ci]
		}
		res.Rows[r] = row
	}
	return res, nil
}
