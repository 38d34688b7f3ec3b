// Package reldb implements the in-memory relational database engine the S2S
// middleware uses as its structured data source substrate. The paper's
// database-backed attribute mappings carry plain SQL extraction rules (e.g.
// "SELECT aatribute FROM atable WHERE aattribute=avalue", §2.3.1 step 3);
// this engine executes those rules.
//
// Supported: CREATE TABLE / CREATE INDEX, INSERT, SELECT (projection,
// DISTINCT, WHERE, INNER JOIN, ORDER BY, LIMIT), UPDATE, and DELETE with
// typed columns (TEXT, INTEGER, REAL, BOOLEAN), PRIMARY KEY and UNIQUE
// enforcement, and hash indexes used for equality lookups.
//
// A SELECT allocates per result, not per row, and the rows of the Result
// it returns never alias table storage: every cell is copied out, so a
// caller may write into a returned row without changing the table.
package reldb

import (
	"fmt"
	"strconv"
	"strings"

	"repro/internal/sqllang"
)

// Value is one typed cell. The zero value is a NULL of unspecified type.
type Value struct {
	// Type is the declared column type of the value; meaningless when Null.
	Type sqllang.ColumnType
	// Null marks SQL NULL.
	Null bool

	text string
	i    int64
	r    float64
	b    bool
}

// Null value constructor.
func NullValue() Value { return Value{Null: true} }

// Text constructs a TEXT value.
func Text(s string) Value { return Value{Type: sqllang.TypeText, text: s} }

// Int constructs an INTEGER value.
func Int(i int64) Value { return Value{Type: sqllang.TypeInteger, i: i} }

// Real constructs a REAL value.
func Real(f float64) Value { return Value{Type: sqllang.TypeReal, r: f} }

// Bool constructs a BOOLEAN value.
func Bool(b bool) Value { return Value{Type: sqllang.TypeBoolean, b: b} }

// String renders the value as SQL-ish text; NULL renders as "NULL".
func (v Value) String() string {
	if v.Null {
		return "NULL"
	}
	switch v.Type {
	case sqllang.TypeText:
		return v.text
	case sqllang.TypeInteger:
		return strconv.FormatInt(v.i, 10)
	case sqllang.TypeReal:
		return strconv.FormatFloat(v.r, 'g', -1, 64)
	case sqllang.TypeBoolean:
		return strconv.FormatBool(v.b)
	default:
		return fmt.Sprintf("Value(%d)", int(v.Type))
	}
}

// TextValue returns the TEXT content; ok is false for other types or NULL.
func (v Value) TextValue() (string, bool) {
	return v.text, !v.Null && v.Type == sqllang.TypeText
}

// IntValue returns the INTEGER content.
func (v Value) IntValue() (int64, bool) {
	return v.i, !v.Null && v.Type == sqllang.TypeInteger
}

// RealValue returns the REAL content.
func (v Value) RealValue() (float64, bool) {
	return v.r, !v.Null && v.Type == sqllang.TypeReal
}

// BoolValue returns the BOOLEAN content.
func (v Value) BoolValue() (bool, bool) {
	return v.b, !v.Null && v.Type == sqllang.TypeBoolean
}

// AppendTo appends the value's String form to dst and returns the
// extended slice. Numbers and booleans format straight into dst, so a
// caller rendering a column fills one buffer instead of one string per
// cell.
func (v Value) AppendTo(dst []byte) []byte {
	if v.Null {
		return append(dst, "NULL"...)
	}
	switch v.Type {
	case sqllang.TypeText:
		return append(dst, v.text...)
	case sqllang.TypeInteger:
		return strconv.AppendInt(dst, v.i, 10)
	case sqllang.TypeReal:
		return strconv.AppendFloat(dst, v.r, 'g', -1, 64)
	case sqllang.TypeBoolean:
		return strconv.AppendBool(dst, v.b)
	default:
		return fmt.Appendf(dst, "Value(%d)", int(v.Type))
	}
}

// nullKey is the key of every NULL; the leading NUL byte keeps it apart
// from every typed key, which starts with a digit.
const nullKey = "\x00NULL"

// key returns a canonical string used for index and uniqueness keys:
// "<type>:<text>", or nullKey. It costs one exact-size allocation.
func (v Value) key() string {
	if v.Null {
		return nullKey
	}
	if v.Type == sqllang.TypeText {
		return strconv.Itoa(int(v.Type)) + ":" + v.text
	}
	var buf [48]byte // fits any type number, ':' and a formatted number
	return string(v.appendKey(buf[:0]))
}

// appendKey appends key's bytes to dst. Map lookups through
// m[string(appendKey(...))] allocate nothing.
func (v Value) appendKey(dst []byte) []byte {
	if v.Null {
		return append(dst, nullKey...)
	}
	dst = strconv.AppendInt(dst, int64(v.Type), 10)
	return v.AppendTo(append(dst, ':'))
}

// numeric returns the value as float64 for cross-numeric-type comparison.
func (v Value) numeric() (float64, bool) {
	switch v.Type {
	case sqllang.TypeInteger:
		return float64(v.i), !v.Null
	case sqllang.TypeReal:
		return v.r, !v.Null
	default:
		return 0, false
	}
}

// compare orders two non-null values; returns an error for incomparable
// types. Integers and reals compare numerically across types.
func compare(a, b Value) (int, error) {
	if an, ok := a.numeric(); ok {
		if bn, ok := b.numeric(); ok {
			switch {
			case an < bn:
				return -1, nil
			case an > bn:
				return 1, nil
			default:
				return 0, nil
			}
		}
	}
	if a.Type != b.Type {
		return 0, fmt.Errorf("reldb: cannot compare %s with %s", a.Type, b.Type)
	}
	switch a.Type {
	case sqllang.TypeText:
		return strings.Compare(a.text, b.text), nil
	case sqllang.TypeBoolean:
		switch {
		case a.b == b.b:
			return 0, nil
		case !a.b:
			return -1, nil
		default:
			return 1, nil
		}
	default:
		return 0, fmt.Errorf("reldb: cannot compare values of type %s", a.Type)
	}
}

// coerce converts a parsed literal to a value of the column type.
func coerce(lit sqllang.LiteralExpr, typ sqllang.ColumnType) (Value, error) {
	if lit.Kind == sqllang.LitNull {
		return NullValue(), nil
	}
	switch typ {
	case sqllang.TypeText:
		if lit.Kind != sqllang.LitString {
			// Numbers and booleans coerce to their text form.
			return Text(lit.Text), nil
		}
		return Text(lit.Text), nil
	case sqllang.TypeInteger:
		switch lit.Kind {
		case sqllang.LitNumber:
			i, err := strconv.ParseInt(lit.Text, 10, 64)
			if err != nil {
				return Value{}, fmt.Errorf("reldb: %q is not an integer", lit.Text)
			}
			return Int(i), nil
		case sqllang.LitString:
			i, err := strconv.ParseInt(strings.TrimSpace(lit.Text), 10, 64)
			if err != nil {
				return Value{}, fmt.Errorf("reldb: %q is not an integer", lit.Text)
			}
			return Int(i), nil
		}
	case sqllang.TypeReal:
		switch lit.Kind {
		case sqllang.LitNumber:
			f, err := strconv.ParseFloat(lit.Text, 64)
			if err != nil {
				return Value{}, fmt.Errorf("reldb: %q is not a number", lit.Text)
			}
			return Real(f), nil
		case sqllang.LitString:
			f, err := strconv.ParseFloat(strings.TrimSpace(lit.Text), 64)
			if err != nil {
				return Value{}, fmt.Errorf("reldb: %q is not a number", lit.Text)
			}
			return Real(f), nil
		}
	case sqllang.TypeBoolean:
		if lit.Kind == sqllang.LitBool {
			return Bool(lit.Text == "TRUE"), nil
		}
		if lit.Kind == sqllang.LitString {
			switch strings.ToLower(lit.Text) {
			case "true", "1":
				return Bool(true), nil
			case "false", "0":
				return Bool(false), nil
			}
		}
	}
	return Value{}, fmt.Errorf("reldb: cannot store %s literal %q in a %s column", kindName(lit.Kind), lit.Text, typ)
}

// literalValue converts a literal in a WHERE clause to an untyped-but-typed
// comparison value.
func literalValue(lit sqllang.LiteralExpr) Value {
	switch lit.Kind {
	case sqllang.LitString:
		return Text(lit.Text)
	case sqllang.LitNumber:
		if i, err := strconv.ParseInt(lit.Text, 10, 64); err == nil {
			return Int(i)
		}
		f, _ := strconv.ParseFloat(lit.Text, 64)
		return Real(f)
	case sqllang.LitBool:
		return Bool(lit.Text == "TRUE")
	default:
		return NullValue()
	}
}

func kindName(k sqllang.LiteralKind) string {
	switch k {
	case sqllang.LitString:
		return "string"
	case sqllang.LitNumber:
		return "number"
	case sqllang.LitBool:
		return "boolean"
	case sqllang.LitNull:
		return "NULL"
	default:
		return "unknown"
	}
}
