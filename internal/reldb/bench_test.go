package reldb

import (
	"fmt"
	"testing"
)

func benchDB(b *testing.B, rows int) *DB {
	b.Helper()
	db := New()
	db.MustExec("CREATE TABLE w (id INTEGER PRIMARY KEY, brand TEXT, price REAL)")
	db.MustExec("CREATE INDEX ON w (brand)")
	for i := 0; i < rows; i++ {
		db.MustExec(fmt.Sprintf("INSERT INTO w (id, brand, price) VALUES (%d, 'b%d', %d.5)", i, i%10, i))
	}
	return db
}

func BenchmarkInsert(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		db := New()
		db.MustExec("CREATE TABLE w (id INTEGER PRIMARY KEY, v TEXT)")
		for j := 0; j < 1000; j++ {
			db.MustExec(fmt.Sprintf("INSERT INTO w (id, v) VALUES (%d, 'x')", j))
		}
	}
}

func BenchmarkSelectIndexed(b *testing.B) {
	b.ReportAllocs()
	db := benchDB(b, 10000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := db.Query("SELECT id FROM w WHERE brand = 'b3'")
		if err != nil || len(res.Rows) != 1000 {
			b.Fatalf("%v %d", err, len(res.Rows))
		}
	}
}

func BenchmarkSelectScanFilter(b *testing.B) {
	b.ReportAllocs()
	db := benchDB(b, 10000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := db.Query("SELECT id FROM w WHERE price > 5000 AND price < 6000")
		if err != nil || len(res.Rows) == 0 {
			b.Fatalf("%v %d", err, len(res.Rows))
		}
	}
}

func BenchmarkGroupByAggregate(b *testing.B) {
	b.ReportAllocs()
	db := benchDB(b, 10000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := db.Query("SELECT brand, COUNT(*), AVG(price) FROM w GROUP BY brand")
		if err != nil || len(res.Rows) != 10 {
			b.Fatalf("%v %d", err, len(res.Rows))
		}
	}
}

// BenchmarkSelectOrderedColumn is the shape of every generated DB rule:
// one column of a whole table in primary-key order.
func BenchmarkSelectOrderedColumn(b *testing.B) {
	b.ReportAllocs()
	db := benchDB(b, 1000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := db.Query("SELECT brand FROM w ORDER BY id")
		if err != nil || len(res.Rows) != 1000 {
			b.Fatalf("%v %d", err, len(res.Rows))
		}
	}
}
