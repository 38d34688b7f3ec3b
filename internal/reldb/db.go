package reldb

import (
	"fmt"
	"sort"
	"strings"
	"sync"

	"repro/internal/sqllang"
)

// DB is an in-memory relational database. All methods are safe for
// concurrent use.
type DB struct {
	mu     sync.RWMutex
	tables map[string]*table
}

// New returns an empty database.
func New() *DB {
	return &DB{tables: make(map[string]*table)}
}

// Result is the outcome of a Query: column names and typed rows. The
// rows are the caller's own; they never alias table storage.
type Result struct {
	Columns []string
	Rows    [][]Value
}

// Exec parses and executes a DDL or DML statement, returning the number of
// rows affected (0 for DDL). SELECT statements are rejected; use Query.
func (db *DB) Exec(sql string) (int, error) {
	stmt, err := sqllang.Parse(sql)
	if err != nil {
		return 0, err
	}
	db.mu.Lock()
	defer db.mu.Unlock()
	switch s := stmt.(type) {
	case *sqllang.CreateTable:
		return 0, db.createTable(s)
	case *sqllang.CreateIndex:
		t, err := db.table(s.Table)
		if err != nil {
			return 0, err
		}
		return 0, t.addIndex(s.Column)
	case *sqllang.Insert:
		return db.insert(s)
	case *sqllang.Delete:
		return db.delete(s)
	case *sqllang.Update:
		return db.update(s)
	case *sqllang.Select:
		return 0, fmt.Errorf("reldb: use Query for SELECT statements")
	default:
		return 0, fmt.Errorf("reldb: unsupported statement %T", stmt)
	}
}

// MustExec is Exec but panics on error; for static fixture setup.
func (db *DB) MustExec(sql string) {
	if _, err := db.Exec(sql); err != nil {
		panic(err)
	}
}

// Query parses and executes a SELECT statement.
func (db *DB) Query(sql string) (*Result, error) {
	stmt, err := sqllang.Parse(sql)
	if err != nil {
		return nil, err
	}
	sel, ok := stmt.(*sqllang.Select)
	if !ok {
		return nil, fmt.Errorf("reldb: Query requires a SELECT statement, got %T", stmt)
	}
	return db.QuerySelect(sel)
}

// QuerySelect executes a pre-parsed SELECT statement. Callers that run
// the same statement repeatedly (the extract manager's compiled-rule
// cache) parse once and reuse the AST; execution never mutates it, so
// one statement may run concurrently.
func (db *DB) QuerySelect(sel *sqllang.Select) (*Result, error) {
	db.mu.RLock()
	defer db.mu.RUnlock()
	return db.executeSelect(sel)
}

// Tables returns the names of all tables in sorted order.
func (db *DB) Tables() []string {
	db.mu.RLock()
	defer db.mu.RUnlock()
	out := make([]string, 0, len(db.tables))
	for name := range db.tables {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// RowCount returns the number of rows in the named table.
func (db *DB) RowCount(tableName string) (int, error) {
	db.mu.RLock()
	defer db.mu.RUnlock()
	t, err := db.table(tableName)
	if err != nil {
		return 0, err
	}
	return len(t.rows), nil
}

func (db *DB) table(name string) (*table, error) {
	t, ok := db.tables[strings.ToLower(name)]
	if !ok {
		return nil, fmt.Errorf("reldb: table %q does not exist", name)
	}
	return t, nil
}

func (db *DB) createTable(stmt *sqllang.CreateTable) error {
	key := strings.ToLower(stmt.Table)
	if _, exists := db.tables[key]; exists {
		return fmt.Errorf("reldb: table %q already exists", stmt.Table)
	}
	t, err := newTable(stmt)
	if err != nil {
		return err
	}
	db.tables[key] = t
	return nil
}

func (db *DB) insert(stmt *sqllang.Insert) (int, error) {
	t, err := db.table(stmt.Table)
	if err != nil {
		return 0, err
	}
	// Resolve the column list to positions.
	positions := make([]int, 0, len(t.columns))
	if len(stmt.Columns) == 0 {
		for i := range t.columns {
			positions = append(positions, i)
		}
	} else {
		for _, name := range stmt.Columns {
			i, err := t.column(name)
			if err != nil {
				return 0, err
			}
			positions = append(positions, i)
		}
	}
	inserted := 0
	for _, exprRow := range stmt.Rows {
		if len(exprRow) != len(positions) {
			return inserted, fmt.Errorf("reldb: INSERT into %s supplies %d values for %d columns",
				stmt.Table, len(exprRow), len(positions))
		}
		row := make([]Value, len(t.columns))
		for i := range row {
			row[i] = NullValue()
		}
		for i, e := range exprRow {
			lit, ok := e.(sqllang.LiteralExpr)
			if !ok {
				return inserted, fmt.Errorf("reldb: INSERT values must be literals")
			}
			v, err := coerce(lit, t.columns[positions[i]].Type)
			if err != nil {
				return inserted, err
			}
			row[positions[i]] = v
		}
		if t.pk >= 0 && row[t.pk].Null {
			return inserted, fmt.Errorf("reldb: primary key %s.%s cannot be NULL",
				t.name, t.columns[t.pk].Name)
		}
		if err := t.insert(row); err != nil {
			return inserted, err
		}
		inserted++
	}
	return inserted, nil
}

func (db *DB) delete(stmt *sqllang.Delete) (int, error) {
	t, err := db.table(stmt.Table)
	if err != nil {
		return 0, err
	}
	kept := t.rows[:0]
	deleted := 0
	e := &env{tables: []*table{t}, rows: [][]Value{nil}}
	for _, row := range t.rows {
		keep := true
		if stmt.Where != nil {
			e.rows[0] = row
			match, err := evalBool(stmt.Where, e)
			if err != nil {
				return 0, err
			}
			keep = !match
		} else {
			keep = false
		}
		if keep {
			kept = append(kept, row)
		} else {
			deleted++
		}
	}
	t.rows = kept
	t.rebuildIndexes()
	return deleted, nil
}

func (db *DB) update(stmt *sqllang.Update) (int, error) {
	t, err := db.table(stmt.Table)
	if err != nil {
		return 0, err
	}
	type setOp struct {
		col int
		val Value
	}
	ops := make([]setOp, 0, len(stmt.Set))
	for _, a := range stmt.Set {
		col, err := t.column(a.Column)
		if err != nil {
			return 0, err
		}
		lit, ok := a.Value.(sqllang.LiteralExpr)
		if !ok {
			return 0, fmt.Errorf("reldb: UPDATE values must be literals")
		}
		v, err := coerce(lit, t.columns[col].Type)
		if err != nil {
			return 0, err
		}
		ops = append(ops, setOp{col: col, val: v})
	}
	updated := 0
	e := &env{tables: []*table{t}, rows: [][]Value{nil}}
	for i, row := range t.rows {
		if stmt.Where != nil {
			e.rows[0] = row
			match, err := evalBool(stmt.Where, e)
			if err != nil {
				return updated, err
			}
			if !match {
				continue
			}
		}
		for _, op := range ops {
			t.rows[i][op.col] = op.val
		}
		updated++
	}
	if updated > 0 {
		t.rebuildIndexes()
	}
	return updated, nil
}
