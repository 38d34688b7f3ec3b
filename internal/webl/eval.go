package webl

import (
	"fmt"
	"math"
	"strconv"
	"strings"
	"sync"

	"repro/internal/rxscan"
)

// Value is any WebL runtime value: string, float64, bool, nil, []Value, or
// *Page.
type Value any

// Page is a fetched web page.
type Page struct {
	// URL the page was fetched from.
	URL string
	// Content is the raw page source.
	Content string
}

// Fetcher resolves URLs to page content. The extractor supplies a fetcher
// backed by the registered web data sources; tests use in-memory maps.
type Fetcher interface {
	Fetch(url string) (string, error)
}

// FetcherFunc adapts a function to the Fetcher interface.
type FetcherFunc func(url string) (string, error)

// Fetch implements Fetcher.
func (f FetcherFunc) Fetch(url string) (string, error) { return f(url) }

// MapFetcher serves pages from a URL→content map.
type MapFetcher map[string]string

// Fetch implements Fetcher.
func (m MapFetcher) Fetch(url string) (string, error) {
	content, ok := m[url]
	if !ok {
		return "", fmt.Errorf("webl: no page at %q", url)
	}
	return content, nil
}

// Env configures one program execution.
type Env struct {
	// Fetcher backs GetURL. A nil Fetcher makes GetURL fail.
	Fetcher Fetcher
	// MaxSteps bounds statement executions to catch runaway loops;
	// 0 means DefaultMaxSteps.
	MaxSteps int
	// Globals seeds variables before execution — how the middleware passes
	// the raw value into a transform expression.
	Globals map[string]Value
}

// DefaultMaxSteps is the default execution budget.
const DefaultMaxSteps = 1_000_000

// Run executes the program and returns its global variables. Extraction
// callers read the variable named after the attribute being extracted, or
// "result" (which a return statement sets).
func (p *Program) Run(env *Env) (map[string]Value, error) {
	if env == nil {
		env = &Env{}
	}
	in := &interp{
		env:     env,
		globals: make(map[string]Value),
		funcs:   p.funcs,
		budget:  env.MaxSteps,
	}
	if in.budget <= 0 {
		in.budget = DefaultMaxSteps
	}
	for name, v := range env.Globals {
		in.globals[name] = v
	}
	for _, s := range p.stmts {
		done, err := in.exec(s)
		if err != nil {
			return nil, err
		}
		if done {
			in.globals["result"] = in.retValue
			break
		}
	}
	return in.globals, nil
}

// maxCallDepth bounds user-function recursion.
const maxCallDepth = 256

type interp struct {
	env     *Env
	globals map[string]Value
	funcs   map[string]*funcDecl
	budget  int

	// frames is the user-function call stack; the top frame holds the
	// current function's parameters and local variables.
	frames []map[string]Value
	// retValue carries the value of the last executed return statement.
	retValue Value
}

// scope returns the map new variables are declared in.
func (in *interp) scope() map[string]Value {
	if len(in.frames) > 0 {
		return in.frames[len(in.frames)-1]
	}
	return in.globals
}

// lookupVar resolves a variable: current frame first, then globals.
func (in *interp) lookupVar(name string) (Value, bool) {
	if len(in.frames) > 0 {
		if v, ok := in.frames[len(in.frames)-1][name]; ok {
			return v, true
		}
	}
	v, ok := in.globals[name]
	return v, ok
}

// callUser invokes a user-defined function.
func (in *interp) callUser(fn *funcDecl, args []Value, line int) (Value, error) {
	if len(args) != len(fn.params) {
		return nil, fmt.Errorf("webl: line %d: %s needs %d argument(s), got %d",
			line, fn.name, len(fn.params), len(args))
	}
	if len(in.frames) >= maxCallDepth {
		return nil, fmt.Errorf("webl: line %d: call depth exceeds %d (runaway recursion?)", line, maxCallDepth)
	}
	frame := make(map[string]Value, len(fn.params))
	for i, p := range fn.params {
		frame[p] = args[i]
	}
	in.frames = append(in.frames, frame)
	defer func() { in.frames = in.frames[:len(in.frames)-1] }()
	for _, s := range fn.body {
		done, err := in.exec(s)
		if err != nil {
			return nil, err
		}
		if done {
			return in.retValue, nil
		}
	}
	return nil, nil
}

func (in *interp) step(line int) error {
	in.budget--
	if in.budget < 0 {
		return fmt.Errorf("webl: line %d: execution budget exhausted (possible infinite loop)", line)
	}
	return nil
}

// exec runs one statement; done reports that a return was executed.
func (in *interp) exec(s stmt) (done bool, err error) {
	switch st := s.(type) {
	case *varDecl:
		if err := in.step(st.line); err != nil {
			return false, err
		}
		v, err := in.eval(st.init)
		if err != nil {
			return false, err
		}
		in.scope()[st.name] = v
		return false, nil
	case *assign:
		if err := in.step(st.line); err != nil {
			return false, err
		}
		v, err := in.eval(st.value)
		if err != nil {
			return false, err
		}
		return false, in.assignTo(st.target, v, st.line)
	case *ifStmt:
		if err := in.step(st.line); err != nil {
			return false, err
		}
		cond, err := in.eval(st.cond)
		if err != nil {
			return false, err
		}
		body := st.then
		if !truthy(cond) {
			body = st.alt
		}
		for _, inner := range body {
			done, err := in.exec(inner)
			if done || err != nil {
				return done, err
			}
		}
		return false, nil
	case *whileStmt:
		for {
			if err := in.step(st.line); err != nil {
				return false, err
			}
			cond, err := in.eval(st.cond)
			if err != nil {
				return false, err
			}
			if !truthy(cond) {
				return false, nil
			}
			for _, inner := range st.body {
				done, err := in.exec(inner)
				if done || err != nil {
					return done, err
				}
			}
		}
	case *returnStmt:
		if err := in.step(st.line); err != nil {
			return false, err
		}
		v, err := in.eval(st.value)
		if err != nil {
			return false, err
		}
		in.retValue = v
		return true, nil
	case *exprStmt:
		if err := in.step(st.line); err != nil {
			return false, err
		}
		_, err := in.eval(st.e)
		return false, err
	default:
		return false, fmt.Errorf("webl: unknown statement %T", s)
	}
}

func (in *interp) assignTo(target expr, v Value, line int) error {
	switch t := target.(type) {
	case *ident:
		if len(in.frames) > 0 {
			frame := in.frames[len(in.frames)-1]
			if _, local := frame[t.name]; local {
				frame[t.name] = v
				return nil
			}
		}
		if _, declared := in.globals[t.name]; !declared {
			return fmt.Errorf("webl: line %d: assignment to undeclared variable %q (use var)", line, t.name)
		}
		in.globals[t.name] = v
		return nil
	case *indexExpr:
		base, err := in.eval(t.base)
		if err != nil {
			return err
		}
		list, ok := base.([]Value)
		if !ok {
			return fmt.Errorf("webl: line %d: cannot index-assign into %s", line, typeName(base))
		}
		idxV, err := in.eval(t.index)
		if err != nil {
			return err
		}
		i, err := asIndex(idxV, len(list), line)
		if err != nil {
			return err
		}
		list[i] = v
		return nil
	default:
		return fmt.Errorf("webl: line %d: invalid assignment target", line)
	}
}

func (in *interp) eval(e expr) (Value, error) {
	switch x := e.(type) {
	case *stringLit:
		return x.val, nil
	case *numberLit:
		return x.val, nil
	case *boolLit:
		return x.val, nil
	case *nilLit:
		return nil, nil
	case *ident:
		v, ok := in.lookupVar(x.name)
		if !ok {
			return nil, fmt.Errorf("webl: line %d: undefined variable %q", x.line, x.name)
		}
		return v, nil
	case *listLit:
		out := make([]Value, len(x.elems))
		for i, el := range x.elems {
			v, err := in.eval(el)
			if err != nil {
				return nil, err
			}
			out[i] = v
		}
		return out, nil
	case *indexExpr:
		return in.evalIndex(x)
	case *callExpr:
		return in.call(x)
	case *binaryExpr:
		return in.evalBinary(x)
	case *unaryExpr:
		operand, err := in.eval(x.operand)
		if err != nil {
			return nil, err
		}
		switch x.op {
		case "-":
			n, ok := operand.(float64)
			if !ok {
				return nil, fmt.Errorf("webl: line %d: unary '-' needs a number, got %s", x.line, typeName(operand))
			}
			return -n, nil
		case "not":
			return !truthy(operand), nil
		default:
			return nil, fmt.Errorf("webl: line %d: unknown unary operator %q", x.line, x.op)
		}
	default:
		return nil, fmt.Errorf("webl: unknown expression %T", e)
	}
}

func (in *interp) evalIndex(x *indexExpr) (Value, error) {
	base, err := in.eval(x.base)
	if err != nil {
		return nil, err
	}
	idxV, err := in.eval(x.index)
	if err != nil {
		return nil, err
	}
	switch b := base.(type) {
	case []Value:
		i, err := asIndex(idxV, len(b), x.line)
		if err != nil {
			return nil, err
		}
		return b[i], nil
	case string:
		i, err := asIndex(idxV, len(b), x.line)
		if err != nil {
			return nil, err
		}
		return string(b[i]), nil
	default:
		return nil, fmt.Errorf("webl: line %d: cannot index %s", x.line, typeName(base))
	}
}

func (in *interp) evalBinary(x *binaryExpr) (Value, error) {
	// Short-circuit logic.
	if x.op == "and" || x.op == "or" {
		left, err := in.eval(x.left)
		if err != nil {
			return nil, err
		}
		if x.op == "and" && !truthy(left) {
			return false, nil
		}
		if x.op == "or" && truthy(left) {
			return true, nil
		}
		right, err := in.eval(x.right)
		if err != nil {
			return nil, err
		}
		return truthy(right), nil
	}

	left, err := in.eval(x.left)
	if err != nil {
		return nil, err
	}
	right, err := in.eval(x.right)
	if err != nil {
		return nil, err
	}

	switch x.op {
	case "+":
		// String concatenation when either side is a string (the paper's
		// rules build regexes this way); numeric addition otherwise.
		if ls, ok := left.(string); ok {
			return ls + toString(right), nil
		}
		if rs, ok := right.(string); ok {
			return toString(left) + rs, nil
		}
		if ll, ok := left.([]Value); ok {
			if rl, ok := right.([]Value); ok {
				return append(append([]Value{}, ll...), rl...), nil
			}
		}
		return numericOp(x, left, right)
	case "-", "*", "/", "%":
		return numericOp(x, left, right)
	case "==":
		return equalValues(left, right), nil
	case "!=":
		return !equalValues(left, right), nil
	case "<", ">", "<=", ">=":
		c, err := compareValues(left, right)
		if err != nil {
			return nil, fmt.Errorf("webl: line %d: %w", x.line, err)
		}
		switch x.op {
		case "<":
			return c < 0, nil
		case ">":
			return c > 0, nil
		case "<=":
			return c <= 0, nil
		default:
			return c >= 0, nil
		}
	default:
		return nil, fmt.Errorf("webl: line %d: unknown operator %q", x.line, x.op)
	}
}

func numericOp(x *binaryExpr, left, right Value) (Value, error) {
	ln, lok := left.(float64)
	rn, rok := right.(float64)
	if !lok || !rok {
		return nil, fmt.Errorf("webl: line %d: operator %q needs numbers, got %s and %s",
			x.line, x.op, typeName(left), typeName(right))
	}
	switch x.op {
	case "+":
		return ln + rn, nil
	case "-":
		return ln - rn, nil
	case "*":
		return ln * rn, nil
	case "/":
		if rn == 0 {
			return nil, fmt.Errorf("webl: line %d: division by zero", x.line)
		}
		return ln / rn, nil
	case "%":
		if rn == 0 {
			return nil, fmt.Errorf("webl: line %d: modulo by zero", x.line)
		}
		return math.Mod(ln, rn), nil
	default:
		return nil, fmt.Errorf("webl: line %d: unknown numeric operator %q", x.line, x.op)
	}
}

func truthy(v Value) bool {
	switch t := v.(type) {
	case nil:
		return false
	case bool:
		return t
	case string:
		return t != ""
	case float64:
		return t != 0
	case []Value:
		return len(t) > 0
	default:
		return true
	}
}

func equalValues(a, b Value) bool {
	if la, ok := a.([]Value); ok {
		lb, ok := b.([]Value)
		if !ok || len(la) != len(lb) {
			return false
		}
		for i := range la {
			if !equalValues(la[i], lb[i]) {
				return false
			}
		}
		return true
	}
	return a == b
}

// CompareError reports an attempt to order two values whose dynamic
// types have no defined ordering. It is a typed error so extraction
// callers can recognize rule-level type mistakes through the line-number
// wrap with errors.As and classify them as permanent (a bad rule stays
// bad on retry).
type CompareError struct {
	Left, Right string // value type names
}

func (e *CompareError) Error() string {
	return fmt.Sprintf("cannot order %s and %s", e.Left, e.Right)
}

func compareValues(a, b Value) (int, error) {
	if as, ok := a.(string); ok {
		if bs, ok := b.(string); ok {
			return strings.Compare(as, bs), nil
		}
	}
	if an, ok := a.(float64); ok {
		if bn, ok := b.(float64); ok {
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
	return 0, &CompareError{Left: typeName(a), Right: typeName(b)}
}

func typeName(v Value) string {
	switch v.(type) {
	case nil:
		return "nil"
	case string:
		return "string"
	case float64:
		return "number"
	case bool:
		return "boolean"
	case []Value:
		return "list"
	case *Page:
		return "page"
	default:
		return fmt.Sprintf("%T", v)
	}
}

func toString(v Value) string {
	switch t := v.(type) {
	case nil:
		return ""
	case string:
		return t
	case float64:
		if t == math.Trunc(t) && math.Abs(t) < 1e15 {
			return strconv.FormatInt(int64(t), 10)
		}
		return strconv.FormatFloat(t, 'g', -1, 64)
	case bool:
		return strconv.FormatBool(t)
	case []Value:
		parts := make([]string, len(t))
		for i, e := range t {
			parts[i] = toString(e)
		}
		return "[" + strings.Join(parts, ", ") + "]"
	case *Page:
		return t.URL
	default:
		return fmt.Sprintf("%v", v)
	}
}

func asIndex(v Value, length int, line int) (int, error) {
	n, ok := v.(float64)
	if !ok || n != math.Trunc(n) {
		return 0, fmt.Errorf("webl: line %d: index must be an integer, got %s", line, typeName(v))
	}
	i := int(n)
	if i < 0 || i >= length {
		return 0, fmt.Errorf("webl: line %d: index %d out of range (length %d)", line, i, length)
	}
	return i, nil
}

// regexpCache memoizes compiled regular expressions, and with them the
// literal-scan recognition, across rule executions; the extractor manager
// runs different sources' rules concurrently, so access is locked.
// Patterns are rule text, not a fixed set, so the cache flushes wholesale
// at regexpCacheBound, like the extractor's compiled-rule cache: a stream
// of new patterns then still finds its later patterns cached.
var regexpCache = struct {
	sync.Mutex
	m map[string]*rxscan.Regexp
}{m: map[string]*rxscan.Regexp{}}

const regexpCacheBound = 4096

func compileRegexp(pattern string) (*rxscan.Regexp, error) {
	regexpCache.Lock()
	re, ok := regexpCache.m[pattern]
	regexpCache.Unlock()
	if ok {
		return re, nil
	}
	re, err := rxscan.Compile(pattern)
	if err != nil {
		return nil, err
	}
	regexpCache.Lock()
	if len(regexpCache.m) >= regexpCacheBound {
		regexpCache.m = make(map[string]*rxscan.Regexp)
	}
	regexpCache.m[pattern] = re
	regexpCache.Unlock()
	return re, nil
}
