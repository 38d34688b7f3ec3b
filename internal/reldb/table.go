package reldb

import (
	"fmt"
	"strings"

	"repro/internal/sqllang"
)

// table is one relation: a schema, row storage, and hash indexes.
type table struct {
	name    string
	columns []sqllang.ColumnDef
	colIdx  map[string]int // lower-cased column name → position
	rows    [][]Value
	// indexes maps an indexed column position to value-key → row numbers.
	// Primary key and UNIQUE columns are always indexed.
	indexes map[int]map[string][]int
	pk      int // primary key column position, -1 if none
}

func newTable(stmt *sqllang.CreateTable) (*table, error) {
	t := &table{
		name:    stmt.Table,
		columns: stmt.Columns,
		colIdx:  make(map[string]int, len(stmt.Columns)),
		indexes: make(map[int]map[string][]int),
		pk:      -1,
	}
	for i, c := range stmt.Columns {
		key := strings.ToLower(c.Name)
		if _, dup := t.colIdx[key]; dup {
			return nil, fmt.Errorf("reldb: table %s declares column %q twice", stmt.Table, c.Name)
		}
		t.colIdx[key] = i
		if c.PrimaryKey {
			if t.pk >= 0 {
				return nil, fmt.Errorf("reldb: table %s declares two primary keys", stmt.Table)
			}
			t.pk = i
		}
		if c.PrimaryKey || c.Unique {
			t.indexes[i] = make(map[string][]int)
		}
	}
	return t, nil
}

// column resolves a column name to its position.
func (t *table) column(name string) (int, error) {
	i, ok := t.colIdx[strings.ToLower(name)]
	if !ok {
		return 0, fmt.Errorf("reldb: table %s has no column %q", t.name, name)
	}
	return i, nil
}

// addIndex creates a hash index on the named column and backfills it.
func (t *table) addIndex(column string) error {
	i, err := t.column(column)
	if err != nil {
		return err
	}
	if _, exists := t.indexes[i]; exists {
		return nil
	}
	idx := make(map[string][]int)
	for rowNo, row := range t.rows {
		k := row[i].key()
		idx[k] = append(idx[k], rowNo)
	}
	t.indexes[i] = idx
	return nil
}

// insert appends a row, enforcing uniqueness and maintaining indexes.
func (t *table) insert(row []Value) error {
	var key [64]byte
	for col, idx := range t.indexes {
		if t.isUniqueCol(col) && !row[col].Null {
			if len(idx[string(row[col].appendKey(key[:0]))]) > 0 {
				return fmt.Errorf("reldb: duplicate value %s for unique column %s.%s",
					row[col], t.name, t.columns[col].Name)
			}
		}
	}
	rowNo := len(t.rows)
	t.rows = append(t.rows, row)
	for col, idx := range t.indexes {
		k := row[col].key()
		idx[k] = append(idx[k], rowNo)
	}
	return nil
}

func (t *table) isUniqueCol(col int) bool {
	return t.columns[col].PrimaryKey || t.columns[col].Unique
}

// rebuildIndexes recomputes every index after bulk row mutation
// (UPDATE/DELETE).
func (t *table) rebuildIndexes() {
	for col := range t.indexes {
		idx := make(map[string][]int)
		for rowNo, row := range t.rows {
			k := row[col].key()
			idx[k] = append(idx[k], rowNo)
		}
		t.indexes[col] = idx
	}
}

// candidateRows returns the row numbers an equality predicate on the given
// column can match, using an index when one exists. The boolean reports
// whether an index was used; when false the caller must scan all rows.
func (t *table) candidateRows(col int, v Value) ([]int, bool) {
	idx, ok := t.indexes[col]
	if !ok {
		return nil, false
	}
	var key [64]byte
	return idx[string(v.appendKey(key[:0]))], true
}
