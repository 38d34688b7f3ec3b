// Package loading: parse every package in the module with go/parser and
// type-check it with go/types. Module-internal imports are type-checked
// from source, recursively and memoized; imports that leave the module
// (in practice only the standard library) are satisfied from compiler
// export data located via `go list -export`, fed to go/importer through
// its lookup hook. This keeps the loader pure stdlib — no
// golang.org/x/tools — while still giving analyzers full type
// information, including for _test.go files.

package analysis

import (
	"errors"
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
)

// Unit is one analyzable set of files sharing a types.Package: a plain
// package, a package augmented with its in-package test files, or an
// external (_test) test package.
type Unit struct {
	// PkgPath is the unit's import path (test units share the augmented
	// package's path; external test packages get a "_test" suffix).
	PkgPath string
	// Dir is the directory the files live in.
	Dir string
	// Test marks units that include test files.
	Test bool

	Fset  *token.FileSet
	Files []*ast.File
	// Pkg/Info are nil when the unit was loaded parse-only or failed to
	// type-check; analyzers with NeedTypes skip such units.
	Pkg  *types.Package
	Info *types.Info

	suppress   suppressions
	directives []Directive
	// declIndex lazily maps function objects to their declarations for
	// the dataflow core's per-function summaries (Pass.FuncDeclOf).
	declIndex map[types.Object]*ast.FuncDecl
}

// Loader loads and type-checks the packages of one module.
type Loader struct {
	Fset       *token.FileSet
	ModuleRoot string
	ModulePath string

	// TypeErrors collects non-fatal type-checking diagnostics. The tree
	// is expected to compile (make check builds first), so these are
	// surfaced only in the driver's -debug mode; keeping them soft lets
	// analyzers like stdlibonly still report cleanly on trees whose
	// imports cannot be resolved.
	TypeErrors []error

	exports map[string]string // import path -> export data file
	gc      types.Importer
	pkgs    map[string]*pkgEntry // importable module packages, by path
	ctx     build.Context
}

type pkgEntry struct {
	pkg      *types.Package
	checking bool
}

// NewLoader prepares a loader for the module rooted at root (the
// directory holding go.mod). It shells out once to `go list -export` to
// locate export data for the standard-library dependency closure; the go
// tool is part of the toolchain this repo already requires, and the
// linter reads only the resulting file paths.
func NewLoader(root string) (*Loader, error) {
	modPath, err := modulePath(filepath.Join(root, "go.mod"))
	if err != nil {
		return nil, err
	}
	l := &Loader{
		Fset:       token.NewFileSet(),
		ModuleRoot: root,
		ModulePath: modPath,
		exports:    map[string]string{},
		pkgs:       map[string]*pkgEntry{},
		ctx:        build.Default,
	}
	l.ctx.Dir = root
	if err := l.loadExports(); err != nil {
		return nil, err
	}
	l.gc = importer.ForCompiler(l.Fset, "gc", l.lookup)
	return l, nil
}

// modulePath extracts the module path from a go.mod file.
func modulePath(gomod string) (string, error) {
	raw, err := os.ReadFile(gomod)
	if err != nil {
		return "", fmt.Errorf("analysis: reading %s: %w", gomod, err)
	}
	for _, line := range strings.Split(string(raw), "\n") {
		line = strings.TrimSpace(line)
		if rest, ok := strings.CutPrefix(line, "module"); ok {
			return strings.Trim(strings.TrimSpace(rest), `"`), nil
		}
	}
	return "", fmt.Errorf("analysis: no module line in %s", gomod)
}

// loadExports asks the go tool for the export-data files of every package
// in the module's dependency closure, test imports included. Compiling
// (if needed) and locating the files is the go tool's job; only stdlib
// entries are kept — module packages are type-checked from source.
func (l *Loader) loadExports() error {
	cmd := exec.Command("go", "list", "-export", "-deps", "-test", "-e",
		"-f", "{{if .Export}}{{.ImportPath}}={{.Export}}{{end}}", "./...")
	cmd.Dir = l.ModuleRoot
	out, err := cmd.Output()
	if err != nil {
		detail := ""
		var exitErr *exec.ExitError
		if errors.As(err, &exitErr) {
			detail = ": " + strings.TrimSpace(string(exitErr.Stderr))
		}
		return fmt.Errorf("analysis: go list -export failed: %w%s", err, detail)
	}
	for _, line := range strings.Split(string(out), "\n") {
		path, file, ok := strings.Cut(strings.TrimSpace(line), "=")
		// Test-variant entries print as "pkg [pkg.test]"; skip them — the
		// plain package's export data is what imports resolve against.
		if !ok || strings.Contains(path, " ") {
			continue
		}
		if _, exists := l.exports[path]; !exists {
			l.exports[path] = file
		}
	}
	return nil
}

// lookup feeds export data to the gc importer.
func (l *Loader) lookup(path string) (io.ReadCloser, error) {
	file, ok := l.exports[path]
	if !ok {
		return nil, fmt.Errorf("no export data for %q", path)
	}
	return os.Open(file)
}

// Import implements types.Importer for the type-checker: module-internal
// paths are satisfied from source, everything else from export data. An
// unresolvable import yields an empty placeholder package (recorded in
// TypeErrors) so syntax-level analyzers still run over the unit.
func (l *Loader) Import(path string) (*types.Package, error) {
	if path == "unsafe" {
		return types.Unsafe, nil
	}
	if l.internal(path) {
		return l.importSource(path)
	}
	pkg, err := l.gc.Import(path)
	if err != nil {
		l.TypeErrors = append(l.TypeErrors, fmt.Errorf("import %q: %w", path, err))
		name := path[strings.LastIndex(path, "/")+1:]
		placeholder := types.NewPackage(path, name)
		placeholder.MarkComplete()
		return placeholder, nil
	}
	return pkg, nil
}

// internal reports whether path names a package inside this module.
func (l *Loader) internal(path string) bool {
	return path == l.ModulePath || strings.HasPrefix(path, l.ModulePath+"/")
}

// importSource type-checks a module package (non-test files only) from
// source, memoized. Import cycles are a compile error the build gate
// reports first; here they just degrade to a placeholder.
func (l *Loader) importSource(path string) (*types.Package, error) {
	if e, ok := l.pkgs[path]; ok {
		if e.checking || e.pkg == nil {
			l.TypeErrors = append(l.TypeErrors, fmt.Errorf("import cycle or failed package %q", path))
			placeholder := types.NewPackage(path, path[strings.LastIndex(path, "/")+1:])
			placeholder.MarkComplete()
			return placeholder, nil
		}
		return e.pkg, nil
	}
	entry := &pkgEntry{checking: true}
	l.pkgs[path] = entry

	dir := filepath.Join(l.ModuleRoot, strings.TrimPrefix(strings.TrimPrefix(path, l.ModulePath), "/"))
	names, _, _, err := l.dirFiles(dir)
	if err != nil {
		entry.checking = false
		return nil, err
	}
	files, err := l.parse(dir, names)
	if err != nil {
		entry.checking = false
		return nil, err
	}
	pkg, _, err := l.check(path, files)
	entry.pkg = pkg
	entry.checking = false
	return pkg, err
}

// dirFiles lists the buildable Go files of a directory, split into
// package files, in-package test files, and external test files.
func (l *Loader) dirFiles(dir string) (goFiles, testFiles, xtestFiles []string, err error) {
	p, err := l.ctx.ImportDir(dir, 0)
	if err != nil {
		var noGo *build.NoGoError
		if errors.As(err, &noGo) {
			return nil, nil, nil, nil
		}
		return nil, nil, nil, fmt.Errorf("analysis: scanning %s: %w", dir, err)
	}
	return p.GoFiles, p.TestGoFiles, p.XTestGoFiles, nil
}

// parse parses the named files in dir with comments preserved.
func (l *Loader) parse(dir string, names []string) ([]*ast.File, error) {
	var files []*ast.File
	for _, name := range names {
		f, err := parser.ParseFile(l.Fset, filepath.Join(dir, name), nil, parser.ParseComments)
		if err != nil {
			return nil, fmt.Errorf("analysis: %w", err)
		}
		files = append(files, f)
	}
	return files, nil
}

// check type-checks one set of files as a package. Type errors are
// collected, not fatal: the build gate owns compilability.
func (l *Loader) check(path string, files []*ast.File) (*types.Package, *types.Info, error) {
	info := &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
		Implicits:  map[ast.Node]types.Object{},
	}
	conf := types.Config{
		Importer: l,
		Error: func(err error) {
			l.TypeErrors = append(l.TypeErrors, err)
		},
	}
	pkg, err := conf.Check(path, l.Fset, files, info)
	// err repeats the first collected type error; the package is still
	// usable for analysis, so only a nil package is treated as fatal.
	if pkg == nil {
		return nil, nil, fmt.Errorf("analysis: type-checking %s: %w", path, err)
	}
	return pkg, info, nil
}

// skipDir names directories the walker never descends into.
func skipDir(name string) bool {
	return name == "testdata" || name == "vendor" || name == "bin" ||
		(strings.HasPrefix(name, ".") && name != ".")
}

// Load walks the module tree and returns one analyzable unit per
// package: the package itself (augmented with in-package test files when
// it has any) plus an external test unit when _test-package files exist.
func (l *Loader) Load() ([]*Unit, error) {
	var dirs []string
	err := filepath.WalkDir(l.ModuleRoot, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() {
			return nil
		}
		if path != l.ModuleRoot {
			if skipDir(d.Name()) {
				return filepath.SkipDir
			}
			// A nested go.mod starts another module (benchmark/), which
			// the go tool's ./... does not descend into either; its own
			// gate is `make benchmark-smoke`.
			if _, err := os.Stat(filepath.Join(path, "go.mod")); err == nil {
				return filepath.SkipDir
			}
		}
		dirs = append(dirs, path)
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("analysis: walking %s: %w", l.ModuleRoot, err)
	}
	sort.Strings(dirs)

	var units []*Unit
	for _, dir := range dirs {
		dirUnits, err := l.loadDir(dir)
		if err != nil {
			return nil, err
		}
		units = append(units, dirUnits...)
	}
	return units, nil
}

// importPathFor maps a directory to its import path within the module.
func (l *Loader) importPathFor(dir string) (string, error) {
	rel, err := filepath.Rel(l.ModuleRoot, dir)
	if err != nil {
		return "", err
	}
	if rel == "." {
		return l.ModulePath, nil
	}
	return l.ModulePath + "/" + filepath.ToSlash(rel), nil
}

// loadDir builds the analyzable units for one directory.
func (l *Loader) loadDir(dir string) ([]*Unit, error) {
	goFiles, testFiles, xtestFiles, err := l.dirFiles(dir)
	if err != nil {
		return nil, err
	}
	if len(goFiles)+len(testFiles)+len(xtestFiles) == 0 {
		return nil, nil
	}
	path, err := l.importPathFor(dir)
	if err != nil {
		return nil, err
	}

	var units []*Unit
	if len(goFiles) > 0 || len(testFiles) > 0 {
		// One unit covers the package and its in-package test files; the
		// plain package is additionally memoized (unaugmented) for other
		// packages to import.
		files, err := l.parse(dir, append(append([]string{}, goFiles...), testFiles...))
		if err != nil {
			return nil, err
		}
		pkg, info, err := l.check(path, files)
		if err != nil {
			return nil, err
		}
		units = append(units, l.newUnit(path, dir, files, pkg, info, len(testFiles) > 0))
	}
	if len(xtestFiles) > 0 {
		files, err := l.parse(dir, xtestFiles)
		if err != nil {
			return nil, err
		}
		pkg, info, err := l.check(path+"_test", files)
		if err != nil {
			return nil, err
		}
		units = append(units, l.newUnit(path+"_test", dir, files, pkg, info, true))
	}
	return units, nil
}

// newUnit assembles a Unit and indexes its suppression comments.
func (l *Loader) newUnit(path, dir string, files []*ast.File, pkg *types.Package, info *types.Info, test bool) *Unit {
	u := &Unit{
		PkgPath:  path,
		Dir:      dir,
		Test:     test,
		Fset:     l.Fset,
		Files:    files,
		Pkg:      pkg,
		Info:     info,
		suppress: suppressions{},
	}
	for _, f := range files {
		u.collectSuppressions(l.Fset, f)
	}
	return u
}

// LoadDir loads a single directory outside the normal walk (used by the
// golden-corpus tests, whose packages live under testdata/). When
// typed is false the unit is parse-only, which permits deliberately
// unresolvable imports in the corpus.
func (l *Loader) LoadDir(dir string, typed bool) (*Unit, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("analysis: %w", err)
	}
	var names []string
	for _, e := range entries {
		if !e.IsDir() && strings.HasSuffix(e.Name(), ".go") {
			names = append(names, e.Name())
		}
	}
	sort.Strings(names)
	files, err := l.parse(dir, names)
	if err != nil {
		return nil, err
	}
	path, err := l.importPathFor(dir)
	if err != nil {
		path = filepath.Base(dir)
	}
	if !typed {
		return l.newUnit(path, dir, files, nil, nil, false), nil
	}
	pkg, info, err := l.check(path, files)
	if err != nil {
		return nil, err
	}
	return l.newUnit(path, dir, files, pkg, info, false), nil
}
