package rdf

import (
	"strings"
	"testing"
)

// FuzzParseTurtle checks the Turtle parser never panics and that anything
// it accepts re-serializes and re-parses to the same graph.
func FuzzParseTurtle(f *testing.F) {
	seeds := []string{
		"@prefix ex: <http://e/> .\nex:a ex:b ex:c .",
		`@prefix ex: <http://e/> . ex:a ex:b "lit"@en, 42, 3.14, true .`,
		"@base <http://b/> . <x> <y> <z> .",
		"_:b0 <http://e/p> \"a\\nb\" .",
		"@prefix ex: <http://e/> .\nex:a ex:b ex:c ; ex:d ex:e .",
		"# comment only",
		`@prefix ex: <http://e/> . ex:a ex:desc """long
text""" .`,
		"<http://e/\xd5> <http://e/p> \"v\" .",
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, input string) {
		g, err := ParseTurtle(strings.NewReader(input))
		if err != nil {
			return
		}
		out := TurtleString(g, nil)
		g2, err := ParseTurtle(strings.NewReader(out))
		if err != nil {
			t.Fatalf("accepted input produced unparseable output: %v\ninput: %q\noutput: %q", err, input, out)
		}
		if !g.Equal(g2) {
			t.Fatalf("round trip changed graph for %q", input)
		}
	})
}

// FuzzParseNTriples checks the N-Triples parser for panics and round trips.
func FuzzParseNTriples(f *testing.F) {
	seeds := []string{
		`<http://e/s> <http://e/p> "v" .`,
		`<http://e/s> <http://e/p> <http://e/o> .`,
		`_:b <http://e/p> "x"^^<http://www.w3.org/2001/XMLSchema#integer> .`,
		`<http://e/s> <http://e/p> "café"@fr .`,
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, input string) {
		g, err := ParseNTriples(strings.NewReader(input))
		if err != nil {
			return
		}
		g2, err := ParseNTriples(strings.NewReader(NTriplesString(g)))
		if err != nil {
			t.Fatalf("accepted input produced unparseable output: %v (input %q)", err, input)
		}
		if !g.Equal(g2) {
			t.Fatalf("round trip changed graph for %q", input)
		}
	})
}
