package webl

import (
	"fmt"
	"strconv"
	"strings"

	"repro/internal/htmldoc"
)

// call dispatches a function call: user-defined functions first, then the
// builtin library.
func (in *interp) call(x *callExpr) (Value, error) {
	args := make([]Value, len(x.args))
	for i, a := range x.args {
		v, err := in.eval(a)
		if err != nil {
			return nil, err
		}
		args[i] = v
	}
	if user, ok := in.funcs[x.fn]; ok {
		return in.callUser(user, args, x.line)
	}
	fn, ok := builtins[x.fn]
	if !ok {
		return nil, fmt.Errorf("webl: line %d: unknown function %q", x.line, x.fn)
	}
	out, err := fn(in, args)
	if err != nil {
		return nil, fmt.Errorf("webl: line %d: %s: %w", x.line, x.fn, err)
	}
	return out, nil
}

type builtinFunc func(in *interp, args []Value) (Value, error)

// builtins is the WebL standard library. GetURL, Text, Str_Search,
// Str_Split, and Select are the functions the paper's rule uses; the rest
// round out realistic extraction rules.
var builtins = map[string]builtinFunc{
	"GetURL":       biGetURL,
	"Text":         biText,
	"VisibleText":  biVisibleText,
	"Str_Search":   biStrSearch,
	"Str_Split":    biStrSplit,
	"Select":       biSelect,
	"Str_Trim":     biStrTrim,
	"Str_Lower":    func(in *interp, a []Value) (Value, error) { return strMap(a, strings.ToLower) },
	"Str_Upper":    func(in *interp, a []Value) (Value, error) { return strMap(a, strings.ToUpper) },
	"Str_Replace":  biStrReplace,
	"Str_Contains": biStrContains,
	"Str_Index":    biStrIndex,
	"Len":          biLen,
	"Append":       biAppend,
	"Column":       biColumn,
	"ToNumber":     biToNumber,
	"ToString":     biToString,
	"Lines":        biLines,
	"Fields":       biFields,
}

func wantArgs(args []Value, n int) error {
	if len(args) != n {
		return fmt.Errorf("needs %d argument(s), got %d", n, len(args))
	}
	return nil
}

func argString(args []Value, i int) (string, error) {
	s, ok := args[i].(string)
	if !ok {
		return "", fmt.Errorf("argument %d must be a string, got %s", i+1, typeName(args[i]))
	}
	return s, nil
}

func argNumber(args []Value, i int) (float64, error) {
	n, ok := args[i].(float64)
	if !ok {
		return 0, fmt.Errorf("argument %d must be a number, got %s", i+1, typeName(args[i]))
	}
	return n, nil
}

// biGetURL fetches a page through the environment's fetcher.
func biGetURL(in *interp, args []Value) (Value, error) {
	if err := wantArgs(args, 1); err != nil {
		return nil, err
	}
	url, err := argString(args, 0)
	if err != nil {
		return nil, err
	}
	if in.env.Fetcher == nil {
		return nil, fmt.Errorf("no fetcher configured for %q", url)
	}
	content, err := in.env.Fetcher.Fetch(url)
	if err != nil {
		return nil, err
	}
	return &Page{URL: url, Content: content}, nil
}

// biText returns a page's raw source. The paper's rule searches markup
// ("<p><b>" ...), so Text preserves tags; VisibleText strips them.
func biText(in *interp, args []Value) (Value, error) {
	if err := wantArgs(args, 1); err != nil {
		return nil, err
	}
	switch p := args[0].(type) {
	case *Page:
		return p.Content, nil
	case string:
		return p, nil
	default:
		return nil, fmt.Errorf("argument must be a page or string, got %s", typeName(args[0]))
	}
}

// biVisibleText renders the browser-visible text of a page.
func biVisibleText(in *interp, args []Value) (Value, error) {
	raw, err := biText(in, args)
	if err != nil {
		return nil, err
	}
	return htmldoc.Parse(raw.(string)).VisibleText(), nil
}

// biStrSearch runs a regular expression over text and returns the list of
// matches; each match is a list whose element 0 is the full match text and
// elements 1..n are capture groups (so St[0][0] is the first match).
func biStrSearch(in *interp, args []Value) (Value, error) {
	if err := wantArgs(args, 2); err != nil {
		return nil, err
	}
	text, err := argString(args, 0)
	if err != nil {
		return nil, err
	}
	pattern, err := argString(args, 1)
	if err != nil {
		return nil, err
	}
	re, err := compileRegexp(pattern)
	if err != nil {
		return nil, fmt.Errorf("invalid regular expression %q: %w", pattern, err)
	}
	// Every match's groups go into one backing slice; each row is cut
	// from it with its capacity capped, so no row can grow into the next.
	width := re.NumSubexp() + 1
	var cells []Value
	re.Each(text, func(loc []int) {
		for i := 0; i < width; i++ {
			if loc[2*i] < 0 {
				cells = append(cells, "")
			} else {
				cells = append(cells, text[loc[2*i]:loc[2*i+1]])
			}
		}
	})
	var out []Value
	if len(cells) > 0 {
		out = make([]Value, len(cells)/width)
		for i := range out {
			out[i] = cells[i*width : (i+1)*width : (i+1)*width]
		}
	}
	return out, nil
}

// biStrSplit splits text on any character of the separator set, dropping
// empty fields. Splitting "<p><b>Seiko" on "<>" yields [p b Seiko], the
// indexing the paper's rule relies on.
func biStrSplit(in *interp, args []Value) (Value, error) {
	if err := wantArgs(args, 2); err != nil {
		return nil, err
	}
	text, err := argString(args, 0)
	if err != nil {
		return nil, err
	}
	seps, err := argString(args, 1)
	if err != nil {
		return nil, err
	}
	if seps == "" {
		return nil, fmt.Errorf("separator set is empty")
	}
	fields := strings.FieldsFunc(text, func(r rune) bool {
		return strings.ContainsRune(seps, r)
	})
	out := make([]Value, len(fields))
	for i, f := range fields {
		out[i] = f
	}
	return out, nil
}

// biSelect returns the substring [start, end) with both bounds clamped to
// the string, counting bytes; Select("Seiko", 0, 6) is "Seiko".
func biSelect(in *interp, args []Value) (Value, error) {
	if err := wantArgs(args, 3); err != nil {
		return nil, err
	}
	s, err := argString(args, 0)
	if err != nil {
		return nil, err
	}
	startF, err := argNumber(args, 1)
	if err != nil {
		return nil, err
	}
	endF, err := argNumber(args, 2)
	if err != nil {
		return nil, err
	}
	start, end := int(startF), int(endF)
	if start < 0 {
		start = 0
	}
	if end > len(s) {
		end = len(s)
	}
	if start > end {
		return "", nil
	}
	return s[start:end], nil
}

func biStrTrim(in *interp, args []Value) (Value, error) {
	return strMap(args, strings.TrimSpace)
}

func strMap(args []Value, f func(string) string) (Value, error) {
	if err := wantArgs(args, 1); err != nil {
		return nil, err
	}
	s, err := argString(args, 0)
	if err != nil {
		return nil, err
	}
	return f(s), nil
}

func biStrReplace(in *interp, args []Value) (Value, error) {
	if err := wantArgs(args, 3); err != nil {
		return nil, err
	}
	s, err := argString(args, 0)
	if err != nil {
		return nil, err
	}
	old, err := argString(args, 1)
	if err != nil {
		return nil, err
	}
	repl, err := argString(args, 2)
	if err != nil {
		return nil, err
	}
	return strings.ReplaceAll(s, old, repl), nil
}

func biStrContains(in *interp, args []Value) (Value, error) {
	if err := wantArgs(args, 2); err != nil {
		return nil, err
	}
	s, err := argString(args, 0)
	if err != nil {
		return nil, err
	}
	sub, err := argString(args, 1)
	if err != nil {
		return nil, err
	}
	return strings.Contains(s, sub), nil
}

func biStrIndex(in *interp, args []Value) (Value, error) {
	if err := wantArgs(args, 2); err != nil {
		return nil, err
	}
	s, err := argString(args, 0)
	if err != nil {
		return nil, err
	}
	sub, err := argString(args, 1)
	if err != nil {
		return nil, err
	}
	return float64(strings.Index(s, sub)), nil
}

func biLen(in *interp, args []Value) (Value, error) {
	if err := wantArgs(args, 1); err != nil {
		return nil, err
	}
	switch t := args[0].(type) {
	case string:
		return float64(len(t)), nil
	case []Value:
		return float64(len(t)), nil
	default:
		return nil, fmt.Errorf("argument must be a string or list, got %s", typeName(args[0]))
	}
}

func biAppend(in *interp, args []Value) (Value, error) {
	if err := wantArgs(args, 2); err != nil {
		return nil, err
	}
	list, ok := args[0].([]Value)
	if !ok {
		return nil, fmt.Errorf("argument 1 must be a list, got %s", typeName(args[0]))
	}
	return append(append([]Value{}, list...), args[1]), nil
}

// biColumn projects one column out of a list of lists: Column(matches, 1)
// returns the first capture group of every Str_Search match. It is the
// linear-time idiom for building attribute value lists from n-record pages
// (Append copies its list, so an Append loop is quadratic).
func biColumn(in *interp, args []Value) (Value, error) {
	if err := wantArgs(args, 2); err != nil {
		return nil, err
	}
	rows, ok := args[0].([]Value)
	if !ok {
		return nil, fmt.Errorf("argument 1 must be a list, got %s", typeName(args[0]))
	}
	idxF, err := argNumber(args, 1)
	if err != nil {
		return nil, err
	}
	idx := int(idxF)
	out := make([]Value, 0, len(rows))
	for i, r := range rows {
		row, ok := r.([]Value)
		if !ok {
			return nil, fmt.Errorf("element %d is not a list", i)
		}
		if idx < 0 || idx >= len(row) {
			return nil, fmt.Errorf("column %d out of range for element %d (length %d)", idx, i, len(row))
		}
		out = append(out, row[idx])
	}
	return out, nil
}

func biToNumber(in *interp, args []Value) (Value, error) {
	if err := wantArgs(args, 1); err != nil {
		return nil, err
	}
	switch t := args[0].(type) {
	case float64:
		return t, nil
	case string:
		f, err := strconv.ParseFloat(strings.TrimSpace(t), 64)
		if err != nil {
			return nil, fmt.Errorf("%q is not a number", t)
		}
		return f, nil
	default:
		return nil, fmt.Errorf("cannot convert %s to a number", typeName(args[0]))
	}
}

func biToString(in *interp, args []Value) (Value, error) {
	if err := wantArgs(args, 1); err != nil {
		return nil, err
	}
	return toString(args[0]), nil
}

func biLines(in *interp, args []Value) (Value, error) {
	if err := wantArgs(args, 1); err != nil {
		return nil, err
	}
	s, err := argString(args, 0)
	if err != nil {
		return nil, err
	}
	var out []Value
	for _, l := range strings.Split(s, "\n") {
		out = append(out, strings.TrimRight(l, "\r"))
	}
	return out, nil
}

func biFields(in *interp, args []Value) (Value, error) {
	if err := wantArgs(args, 1); err != nil {
		return nil, err
	}
	s, err := argString(args, 0)
	if err != nil {
		return nil, err
	}
	var out []Value
	for _, f := range strings.Fields(s) {
		out = append(out, f)
	}
	return out, nil
}
