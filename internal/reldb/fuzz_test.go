package reldb

import (
	"fmt"
	"math"
	"reflect"
	"strings"
	"testing"

	"repro/internal/sqllang"
)

// byteChooser turns fuzz input into choices; an exhausted input chooses 0.
type byteChooser struct{ data []byte }

func (c *byteChooser) pick(n int) int {
	if len(c.data) == 0 {
		return 0
	}
	b := c.data[0]
	c.data = c.data[1:]
	return int(b) % n
}

func (c *byteChooser) from(options ...string) string { return options[c.pick(len(options))] }

// fuzzWorld builds two small tables whose cells repeat (ties for ORDER BY
// and DISTINCT) and include NULLs, negative numbers, -0 and REALs that
// format with exponents.
func fuzzWorld(t *testing.T, c *byteChooser) *DB {
	db := New()
	stmts := []string{
		"CREATE TABLE w (id INTEGER PRIMARY KEY, name TEXT, price REAL, flag BOOLEAN, qty INTEGER)",
		"CREATE TABLE v (wid INTEGER, label TEXT, score REAL)",
	}
	if c.pick(2) == 1 {
		stmts = append(stmts, "CREATE INDEX ON w (name)")
	}
	for i, n := 0, c.pick(16); i < n; i++ {
		stmts = append(stmts, fmt.Sprintf("INSERT INTO w (id, name, price, flag, qty) VALUES (%d, %s, %s, %s, %s)", i,
			c.from("'a'", "'b'", "'B'", "''", "NULL", "'x y'"),
			c.from("1.5", "-0.0", "2", "-3.25", "100000000000000000000000.5", "0.0000001", "NULL"),
			c.from("TRUE", "FALSE", "NULL"),
			c.from("-1", "0", "7", "NULL", "9223372036854775807")))
	}
	for i, n := 0, c.pick(10); i < n; i++ {
		stmts = append(stmts, fmt.Sprintf("INSERT INTO v (wid, label, score) VALUES (%s, %s, %s)",
			c.from("0", "1", "2", "3", "7", "NULL"),
			c.from("'p'", "'q'", "NULL"),
			c.from("0.5", "-2", "NULL")))
	}
	for _, s := range stmts {
		if _, err := db.Exec(s); err != nil {
			t.Fatalf("Exec(%q): %v", s, err)
		}
	}
	return db
}

// fuzzSelect builds one SELECT from the choices: projections, DISTINCT,
// JOIN, WHERE (including an indexed equality), GROUP BY, ORDER BY
// ASC/DESC and LIMIT/OFFSET, with some unknown or ambiguous columns so
// error paths are compared too.
func fuzzSelect(c *byteChooser) string {
	var b strings.Builder
	join := c.pick(3) == 0
	group := c.pick(5) == 0
	b.WriteString("SELECT ")
	if c.pick(3) == 0 {
		b.WriteString("DISTINCT ")
	}
	switch {
	case group:
		b.WriteString(c.from("name, COUNT(*)", "flag, SUM(qty), MIN(price)", "name, MAX(id)", "price"))
	case join:
		b.WriteString(c.from("*", "name, label", "w.id, v.score", "label", "qty, v.wid", "name", "v.label, w.price", "nosuch"))
	default:
		b.WriteString(c.from("*", "name", "id, name", "price, flag", "w.qty, name", "flag, price, qty", "qty", "name, price", "brand"))
	}
	b.WriteString(" FROM w")
	if join {
		b.WriteString(c.from(" JOIN v ON w.id = v.wid", " JOIN v ON v.wid = w.qty", " JOIN v ON w.id = v.wid", " JOIN v ON w.id = v.nosuch"))
	}
	if c.pick(2) == 0 {
		b.WriteString(" WHERE ")
		conds := []string{"name = 'a'", "price > 0", "flag = TRUE", "qty IS NULL", "name IN ('a', 'B')",
			"name LIKE 'b%'", "id = 3", "NOT flag = FALSE", "price <= 2 OR qty = 7", "name IS NOT NULL", "qty < 7"}
		if join {
			conds = append(conds, "label = 'p'", "v.score >= 0")
		}
		b.WriteString(conds[c.pick(len(conds))])
		if c.pick(2) == 0 {
			b.WriteString(" AND " + conds[c.pick(len(conds))])
		}
	}
	if group {
		b.WriteString(c.from(" GROUP BY name", " GROUP BY flag", " GROUP BY name", ""))
	}
	if c.pick(3) != 0 {
		cols := []string{"id", "name", "price", "flag", "qty", "w.name", "name", "price", "qty", "flag", "nosuch", "x.name", "w.nosuch"}
		if join {
			cols = append(cols, "label", "v.score", "wid")
		}
		b.WriteString(" ORDER BY " + cols[c.pick(len(cols))])
		b.WriteString(c.from("", " ASC", " DESC"))
	}
	if c.pick(3) == 0 {
		fmt.Fprintf(&b, " LIMIT %d", c.pick(6))
	}
	if c.pick(3) == 0 {
		fmt.Fprintf(&b, " OFFSET %d", c.pick(6))
	}
	return b.String()
}

// FuzzSelectMatchesReference checks that executeSelect agrees with the
// per-row reference path (reference_test.go) on generated tables and
// statements: the same error, columns, rows, row order and value text.
func FuzzSelectMatchesReference(f *testing.F) {
	seeds := [][]byte{
		{},
		{1, 9, 0, 1, 2, 3, 1, 1, 2, 1, 4, 0, 3, 1, 2, 0, 0, 1, 1, 2, 5, 5, 1, 1, 0, 2, 2},
		{0, 11, 4, 6, 2, 3, 4, 5, 1, 0, 2, 1, 3, 3, 0, 1, 4, 1, 2, 2, 0, 0, 0, 0, 5, 1, 2, 1, 1, 2, 1, 1, 0},
		{1, 8, 1, 1, 1, 1, 2, 2, 2, 2, 3, 3, 3, 3, 0, 0, 0, 0, 6, 1, 2, 0, 2, 1, 1, 3, 0, 0, 5, 2, 2},
		[]byte("joins and ties and nulls everywhere in this table"),
		[]byte("0$0000X000000000012101111821"), // ORDER BY ... DESC over NULLs: NULLs still first
		[]byte("\x01\x0b\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x01\x00\x01\x03\x03\x02"),
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		c := &byteChooser{data: data}
		db := fuzzWorld(t, c)
		for q := 0; q < 4; q++ {
			sql := fuzzSelect(c)
			got, gotErr := db.Query(sql)
			want, wantErr := db.refQuery(sql)
			if fmt.Sprint(gotErr) != fmt.Sprint(wantErr) {
				t.Fatalf("%s\nerror %v, reference %v", sql, gotErr, wantErr)
			}
			if gotErr != nil {
				continue
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%s\ngot       %v\nreference %v", sql, got, want)
			}
			for r := range got.Rows {
				for i := range got.Rows[r] {
					if g, w := got.Rows[r][i].String(), want.Rows[r][i].String(); g != w {
						t.Fatalf("%s\nrow %d column %d: %q, reference %q", sql, r, i, g, w)
					}
				}
			}
		}
	})
}

// TestResultRowsDoNotAliasTable writes into every cell of returned rows,
// for a plain scan, a WHERE, an indexed equality, SELECT * and a JOIN,
// and checks the table answers as before.
func TestResultRowsDoNotAliasTable(t *testing.T) {
	db := New()
	db.MustExec("CREATE TABLE w (id INTEGER PRIMARY KEY, brand TEXT)")
	db.MustExec("CREATE TABLE v (wid INTEGER, label TEXT)")
	db.MustExec("INSERT INTO w (id, brand) VALUES (1, 'a'), (2, 'b'), (3, 'a')")
	db.MustExec("INSERT INTO v (wid, label) VALUES (1, 'p'), (3, 'q')")
	const all = "SELECT * FROM w JOIN v ON w.id = v.wid ORDER BY id"
	before, err := db.Query(all)
	if err != nil {
		t.Fatal(err)
	}
	for _, sql := range []string{
		"SELECT brand FROM w",
		"SELECT id, brand FROM w WHERE id > 1",
		"SELECT * FROM w WHERE id = 2",
		"SELECT * FROM w ORDER BY brand DESC",
		all,
	} {
		res, err := db.Query(sql)
		if err != nil {
			t.Fatalf("%s: %v", sql, err)
		}
		for _, row := range res.Rows {
			for i := range row {
				row[i] = Text("overwritten")
			}
			_ = append(row, Text("appended"))
		}
	}
	after, err := db.Query(all)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(before, after) {
		t.Fatalf("writing into results changed the tables:\nbefore %v\nafter  %v", before, after)
	}
}

// formatValues covers every type and NULL, negative numbers, -0, large
// and small REALs and both booleans.
var formatValues = []Value{
	NullValue(),
	{Type: sqllang.TypeInteger, Null: true},
	Text(""), Text("Seiko"), Text("x:y\x00z"),
	Int(0), Int(-1), Int(42), Int(math.MaxInt64), Int(math.MinInt64),
	Real(0), Real(math.Copysign(0, -1)), Real(1.5), Real(-3.25), Real(1e21), Real(1e-7),
	Real(123456789.125), Real(math.MaxFloat64), Real(math.SmallestNonzeroFloat64), Real(math.Inf(-1)),
	Bool(true), Bool(false),
	{Type: sqllang.ColumnType(9)},
}

func TestAppendToMatchesString(t *testing.T) {
	for _, v := range formatValues {
		if got, want := string(v.AppendTo([]byte("pre|"))), "pre|"+v.String(); got != want {
			t.Errorf("AppendTo(%#v) = %q, want %q", v, got, want)
		}
	}
}

func TestKeyMatchesFormula(t *testing.T) {
	for _, v := range formatValues {
		want := refKey(v)
		if got := v.key(); got != want {
			t.Errorf("key(%#v) = %q, want %q", v, got, want)
		}
		if got := string(v.appendKey([]byte("pre|"))); got != "pre|"+want {
			t.Errorf("appendKey(%#v) = %q, want %q", v, got, "pre|"+want)
		}
	}
}
