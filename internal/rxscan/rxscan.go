// Package rxscan runs regular-expression extraction rules. Nearly every
// text and WebL rule has one delimited shape — a literal, then a run of
// one or more bytes of a class (captured or not), then an optional
// literal, as in `price=([0-9.]+)` or `<b class="brand">([^<]+)</b>` —
// and that shape needs no automaton: a strings.Index to the literal and
// a byte-class run find the same matches as Go's regexp NFA. Compile
// recognises the shape once, from the pattern's syntax tree; a Regexp of
// any other shape runs through package regexp.
package rxscan

import (
	"regexp"
	"regexp/syntax"
	"strings"
	"unicode"
	"unicode/utf8"
)

// Regexp is a compiled pattern. It is immutable and safe for concurrent
// use.
type Regexp struct {
	re   *regexp.Regexp
	scan *delimited // nil when the pattern does not have the delimited shape
}

// Compile compiles pattern with regexp.Compile's syntax and recognises
// whether it has the delimited shape.
func Compile(pattern string) (*Regexp, error) {
	re, err := regexp.Compile(pattern)
	if err != nil {
		return nil, err
	}
	return &Regexp{re: re, scan: recognise(pattern)}, nil
}

// NumSubexp returns the number of parenthesized groups in the pattern.
func (r *Regexp) NumSubexp() int { return r.re.NumSubexp() }

// Scans reports whether Each runs as a literal scan instead of through
// regexp.
func (r *Regexp) Scans() bool { return r.scan != nil }

// Each calls fn once per match of r in text, leftmost-first and in the
// order of regexp's FindAllStringSubmatchIndex, with that function's
// offsets: loc[2*i] and loc[2*i+1] bound group i (group 0 is the whole
// match), and both are -1 when group i took no part in the match. fn
// must not keep loc after it returns.
func (r *Regexp) Each(text string, fn func(loc []int)) {
	if r.scan == nil {
		for _, loc := range r.re.FindAllStringSubmatchIndex(text, -1) {
			fn(loc)
		}
		return
	}
	r.scan.each(text, fn)
}

// delimited is a recognised pattern: prefix, then one or more bytes of
// class, then suffix (possibly empty). prefix and suffix are ASCII, and
// suffix's first byte is not in class, so the class run before a suffix
// is the longest one and a start position has at most one match.
type delimited struct {
	prefix, suffix string
	class          [256]bool
	group          bool // the class run is capture group 1
}

// recognise returns the delimited form of pattern, or nil when the
// pattern has another shape or when a byte test could disagree with
// regexp's rune semantics.
func recognise(pattern string) *delimited {
	tree, err := syntax.Parse(pattern, syntax.Perl)
	if err != nil {
		return nil
	}
	tree = tree.Simplify()
	if tree.Op != syntax.OpConcat || len(tree.Sub) < 2 || len(tree.Sub) > 3 {
		return nil
	}
	prefix, ok := asciiLiteral(tree.Sub[0])
	if !ok {
		return nil
	}
	d := &delimited{prefix: prefix}
	run := tree.Sub[1]
	if run.Op == syntax.OpCapture {
		d.group, run = true, run.Sub[0]
	}
	if run.Op != syntax.OpPlus || run.Flags&syntax.NonGreedy != 0 || !d.setClass(run.Sub[0]) {
		return nil
	}
	if len(tree.Sub) == 3 {
		if d.suffix, ok = asciiLiteral(tree.Sub[2]); !ok || d.class[d.suffix[0]] {
			return nil
		}
	}
	return d
}

// asciiLiteral returns the text of a case-sensitive, all-ASCII literal.
// An ASCII byte in a string is always a rune of its own, so such a
// literal matches at the same byte offsets as regexp matches it.
func asciiLiteral(re *syntax.Regexp) (string, bool) {
	if re.Op != syntax.OpLiteral || re.Flags&syntax.FoldCase != 0 {
		return "", false
	}
	for _, r := range re.Rune {
		if r >= utf8.RuneSelf {
			return "", false
		}
	}
	return string(re.Rune), true
}

// setClass fills d.class with the bytes the run's character class
// admits. It reports false unless re is a character class holding either
// none or all of the runes at or above utf8.RuneSelf. regexp decodes
// invalid UTF-8 to U+FFFD, one byte at a time, and ASCII bytes never
// belong to a longer rune, so a class holding every non-ASCII rune (as a
// negated ASCII class such as [^<] does) admits exactly the bytes ≥0x80,
// and one holding none admits none of them: the byte run ends where
// regexp's rune run ends, on valid and invalid UTF-8 alike.
func (d *delimited) setClass(re *syntax.Regexp) bool {
	if re.Op != syntax.OpCharClass {
		return false
	}
	high := 0 // non-ASCII runes in the class; the ranges do not overlap
	for i := 0; i+1 < len(re.Rune); i += 2 {
		lo, hi := re.Rune[i], re.Rune[i+1]
		for r := lo; r <= hi && r < utf8.RuneSelf; r++ {
			d.class[r] = true
		}
		if hi >= utf8.RuneSelf {
			high += int(hi - max(lo, utf8.RuneSelf) + 1)
		}
	}
	switch high {
	case 0:
		return true
	case unicode.MaxRune - utf8.RuneSelf + 1:
		for b := utf8.RuneSelf; b < len(d.class); b++ {
			d.class[b] = true
		}
		return true
	}
	return false
}

// each finds the matches of d in text from left to right.
func (d *delimited) each(text string, fn func(loc []int)) {
	var buf [4]int
	loc := buf[:2]
	if d.group {
		loc = buf[:4]
	}
	for at := 0; at <= len(text); {
		i := strings.Index(text[at:], d.prefix)
		if i < 0 {
			return
		}
		start := at + i
		runStart := start + len(d.prefix)
		end := runStart
		for end < len(text) && d.class[text[end]] {
			end++
		}
		if end > runStart && strings.HasPrefix(text[end:], d.suffix) {
			matchEnd := end + len(d.suffix)
			loc[0], loc[1] = start, matchEnd
			if d.group {
				loc[2], loc[3] = runStart, end
			}
			fn(loc)
			at = matchEnd
			continue
		}
		// No match starts at start. Prefixes may overlap, so the next
		// candidate is start+1 — except that a start whose class run
		// would begin inside (runStart, end] ends that run at end too and
		// fails the same way, so candidates up to end-len(prefix) are
		// skipped. This keeps the scan linear in len(text).
		at = max(start+1, end-len(d.prefix)+1)
	}
}
