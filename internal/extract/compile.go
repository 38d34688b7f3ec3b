package extract

import (
	"context"
	"regexp"
	"sync"

	"repro/internal/htmldoc"
	"repro/internal/mapping"
	"repro/internal/reldb"
	"repro/internal/selector"
	"repro/internal/sqllang"
	"repro/internal/webl"
	"repro/internal/xmlpath"
)

// compiledRule holds a rule's pre-compiled artifacts so the hot path
// never re-parses rule text. Exactly one language slot is populated.
//
// A failed compile is recorded once and surfaced as a Permanent error by
// the extractor (mapping.Register already rejects such rules, so this
// only guards rules that reach the manager some other way). SQL is the
// exception: a statement that does not pre-parse to a SELECT leaves the
// slot nil and runs through the database's own Query, which reports the
// database's error text.
type compiledRule struct {
	sql *sqllang.Select

	xpath    *xmlpath.Path
	xpathErr error

	regex    *regexp.Regexp
	regexErr error

	webl    *webl.Program
	weblErr error

	selector    *selector.Selector
	selectorErr error

	transform    *webl.Program
	transformErr error
}

// compiledKey identifies a rule by everything compilation depends on.
// Source identity is deliberately absent: the same rule text mapped to
// two sources compiles once.
func compiledKey(rule mapping.Rule) string {
	return rule.Language.String() + "\x00" + rule.Code + "\x00" + rule.Transform
}

// compileArtifacts compiles every artifact the rule needs. Pure: same
// rule in, same artifacts out, no I/O.
func compileArtifacts(rule mapping.Rule) *compiledRule {
	cr := &compiledRule{}
	switch rule.Language {
	case mapping.LangSQL:
		if stmt, err := sqllang.Parse(rule.Code); err == nil {
			if sel, ok := stmt.(*sqllang.Select); ok {
				cr.sql = sel
			}
		}
	case mapping.LangXPath:
		cr.xpath, cr.xpathErr = xmlpath.Compile(rule.Code)
	case mapping.LangRegex:
		cr.regex, cr.regexErr = regexp.Compile(rule.Code)
	case mapping.LangWebL:
		cr.webl, cr.weblErr = webl.Compile(rule.Code)
	case mapping.LangSelector:
		cr.selector, cr.selectorErr = selector.Compile(rule.Code)
	}
	cr.transform, cr.transformErr = rule.TransformProgram()
	return cr
}

// compiledCache memoizes compileArtifacts per rule. Compiled programs
// are immutable and every executor takes per-run state (webl.Program
// builds a fresh interpreter per Run), so one artifact serves all
// goroutines. A racing double compile is tolerated — the first stored
// entry wins — because compilation is pure and rare.
//
// The key is everything compilation reads, so an entry can never go
// stale: a remapped rule has new text and compiles under a new key, and
// catalog mutations leave the cache alone. Rule text is not a fixed set,
// though: planner pushdown and semi-join narrowing write each query's
// literals into the SQL they run, so every distinct literal compiles a
// new entry. The cache therefore flushes wholesale at
// compiledCacheBound, like the plan cache.
type compiledCache struct {
	mu sync.RWMutex
	m  map[string]*compiledRule
}

// compiledCacheBound caps the compiled-rule cache. It is 15 times the
// repository benchmark's steady state (paper_mix's query shapes over its
// eight sources compile 268 rules, even with every brand and case pair
// asked), so only a stream of ever-new literals reaches it.
const compiledCacheBound = 4096

func (c *compiledCache) get(rule mapping.Rule) *compiledRule {
	key := compiledKey(rule)
	c.mu.RLock()
	cr := c.m[key]
	c.mu.RUnlock()
	if cr != nil {
		return cr
	}
	cr = compileArtifacts(rule)
	c.mu.Lock()
	if existing := c.m[key]; existing != nil {
		cr = existing
	} else {
		if c.m == nil || len(c.m) >= compiledCacheBound {
			c.m = make(map[string]*compiledRule)
		}
		c.m[key] = cr
	}
	c.mu.Unlock()
	return cr
}

func (c *compiledCache) len() int {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return len(c.m)
}

// runDocs is the per-Extract-run shared document layer: one docSlot per
// source document of each kind — page, parsed DOM, XML root, text
// content, database handle — so each is read at most once per run and
// shared across that run's rules and sources (and a batch's queries), no
// matter how many of them read it or how many retries they make. Nothing
// in it outlives the run (or the batch that shares it), so document
// freshness is per run.
type runDocs struct {
	mu    sync.Mutex
	pages map[string]*docSlot[string]        // URL → page content
	html  map[string]*docSlot[*htmldoc.Node] // URL → parsed DOM
	xml   map[string]*docSlot[*xmlpath.Node] // path → parsed document root
	text  map[string]*docSlot[string]        // path → document content
	dbs   map[string]*docSlot[*reldb.DB]     // DSN → resolved handle
}

func newRunDocs() *runDocs {
	return &runDocs{
		pages: make(map[string]*docSlot[string]),
		html:  make(map[string]*docSlot[*htmldoc.Node]),
		xml:   make(map[string]*docSlot[*xmlpath.Node]),
		text:  make(map[string]*docSlot[string]),
		dbs:   make(map[string]*docSlot[*reldb.DB]),
	}
}

// docSlot is one document of a run. Its lock serializes the reads of that
// document: concurrent sources and batch queries that read it wait for
// the first read instead of racing reads of their own, so a wrapped
// backend sees one read per document per run and a fault plan's call
// counts do not depend on scheduling. A failed read is not shared — the
// next rule (or retry) to ask reads again, exactly as it would alone.
type docSlot[T any] struct {
	mu  sync.Mutex
	ok  bool
	doc T
}

// readDoc returns the run's copy of the document at key, reading it
// through get if no earlier read of this run succeeded. A rule whose
// context expired while it waited for the slot gives up without reading.
func readDoc[T any](ctx context.Context, d *runDocs, slots map[string]*docSlot[T], get func(key string) (T, error), key string) (T, error) {
	d.mu.Lock()
	s := slots[key]
	if s == nil {
		s = new(docSlot[T])
		slots[key] = s
	}
	d.mu.Unlock()
	s.mu.Lock()
	defer s.mu.Unlock()
	if !s.ok {
		if err := ctx.Err(); err != nil {
			return s.doc, err
		}
		doc, err := get(key)
		if err != nil {
			return doc, err
		}
		s.doc, s.ok = doc, true
	}
	return s.doc, nil
}
