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
type compiledCache struct {
	mu sync.RWMutex
	m  map[string]*compiledRule
}

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
		if c.m == nil {
			c.m = make(map[string]*compiledRule)
		}
		c.m[key] = cr
	}
	c.mu.Unlock()
	return cr
}

func (c *compiledCache) clear() {
	c.mu.Lock()
	c.m = nil
	c.mu.Unlock()
}

func (c *compiledCache) len() int {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return len(c.m)
}

// runDocs is the per-Extract-run shared document layer: each source
// document is fetched/parsed/resolved at most once per run and shared
// across that run's rules, no matter how many rules read it or how many
// retries they make. Only successes are memoized — failures pass
// through, so every retry is a fresh read. Cross-run, concurrent fetches
// of the same page deduplicate through the manager's docFlight
// singleflight group; completed fetches leave no residue there, so
// document freshness stays per run.
type runDocs struct {
	m *Manager

	mu    sync.Mutex
	pages map[string]string                  // URL → page content
	html  map[string]*htmldoc.Node           // URL → parsed DOM
	xml   map[string]*docSlot[*xmlpath.Node] // path → parsed document root
	text  map[string]*docSlot[string]        // path → document content
	dbs   map[string]*reldb.DB               // DSN → resolved handle
}

func (m *Manager) newRunDocs() *runDocs {
	return &runDocs{
		m:     m,
		pages: make(map[string]string),
		html:  make(map[string]*htmldoc.Node),
		xml:   make(map[string]*docSlot[*xmlpath.Node]),
		text:  make(map[string]*docSlot[string]),
		dbs:   make(map[string]*reldb.DB),
	}
}

// page fetches a URL through f, once per run per URL. The fetcher is a
// parameter rather than a field so context-bound fetchers stay scoped
// to the rule that made them.
func (d *runDocs) page(f webl.Fetcher, url string) (string, error) {
	d.mu.Lock()
	if v, ok := d.pages[url]; ok {
		d.mu.Unlock()
		return v, nil
	}
	d.mu.Unlock()
	v, err, _ := d.m.docFlight.Do("page\x00"+url, func() (any, error) {
		return f.Fetch(url)
	})
	if err != nil {
		return "", err
	}
	s := v.(string)
	d.mu.Lock()
	d.pages[url] = s
	d.mu.Unlock()
	return s, nil
}

// htmlRoot returns the parsed DOM of a page, fetching and parsing at
// most once per run.
func (d *runDocs) htmlRoot(f webl.Fetcher, url string) (*htmldoc.Node, error) {
	d.mu.Lock()
	if n, ok := d.html[url]; ok {
		d.mu.Unlock()
		return n, nil
	}
	d.mu.Unlock()
	src, err := d.page(f, url)
	if err != nil {
		return nil, err
	}
	v, _, _ := d.m.docFlight.Do("html\x00"+url, func() (any, error) {
		return htmldoc.Parse(src), nil
	})
	n := v.(*htmldoc.Node)
	d.mu.Lock()
	d.html[url] = n
	d.mu.Unlock()
	return n, nil
}

// docSlot is one XML or text document of a run. Its lock serializes the
// reads of that document: concurrent rules wait for the first read
// instead of racing reads of their own, so a wrapped backend sees one
// read per document per run and a fault plan's call counts do not depend
// on scheduling. A failed read is not shared — the next rule (or retry)
// to ask reads again, exactly as it would alone.
type docSlot[T any] struct {
	mu  sync.Mutex
	ok  bool
	doc T
}

// readDoc returns the run's copy of the document at path, reading it
// through g if no earlier read of this run succeeded. A rule whose
// context expired while it waited for the slot gives up without reading.
func readDoc[T any](ctx context.Context, d *runDocs, slots map[string]*docSlot[T], g DocGetter[T], path string) (T, error) {
	d.mu.Lock()
	s := slots[path]
	if s == nil {
		s = new(docSlot[T])
		slots[path] = s
	}
	d.mu.Unlock()
	s.mu.Lock()
	defer s.mu.Unlock()
	if !s.ok {
		if err := ctx.Err(); err != nil {
			return s.doc, err
		}
		doc, err := g.Get(path)
		if err != nil {
			return doc, err
		}
		s.doc, s.ok = doc, true
	}
	return s.doc, nil
}

// db resolves a database handle once per run.
func (d *runDocs) db(resolve func(dsn string) (*reldb.DB, error), dsn string) (*reldb.DB, error) {
	d.mu.Lock()
	if h, ok := d.dbs[dsn]; ok {
		d.mu.Unlock()
		return h, nil
	}
	d.mu.Unlock()
	h, err := resolve(dsn)
	if err != nil {
		return nil, err
	}
	d.mu.Lock()
	d.dbs[dsn] = h
	d.mu.Unlock()
	return h, nil
}

// memoFetcher routes WebL GetURL calls through the run's shared page
// memo so programs against one page fetch it once per run.
type memoFetcher struct {
	docs *runDocs
	next webl.Fetcher
}

func (f memoFetcher) Fetch(url string) (string, error) { return f.docs.page(f.next, url) }
