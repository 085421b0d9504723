package lint

import (
	"fmt"
	"go/ast"
	"go/build/constraint"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
)

// Loader parses and type-checks packages of a single module. Module-local
// import paths resolve straight to directories under the module root;
// everything else (the standard library) is type-checked from source via
// go/importer, so no compiled export data is required.
type Loader struct {
	Fset *token.FileSet
	// Tests extends Load to the test corpus: every module package is
	// type-checked with its in-package _test.go files merged in (so there is
	// exactly one types.Package per import path and export_test.go hooks are
	// visible everywhere), and each requested directory's external foo_test
	// package (if present) is returned as an additional Package with ForTest
	// set. Must be set before the first Load or Import call.
	Tests   bool
	modRoot string
	modPath string
	pkgs    map[string]*Package // by import path
	loading map[string]bool     // cycle guard
	std     types.Importer
}

// NewLoader returns a loader for the module rooted at modRoot with the
// given module path (the "module" line of go.mod).
func NewLoader(modRoot, modPath string) *Loader {
	fset := token.NewFileSet()
	return &Loader{
		Fset:    fset,
		modRoot: modRoot,
		modPath: modPath,
		pkgs:    map[string]*Package{},
		loading: map[string]bool{},
		std:     importer.ForCompiler(fset, "source", nil),
	}
}

// FindModuleRoot walks upward from dir to the directory containing go.mod
// and returns that directory plus the declared module path.
func FindModuleRoot(dir string) (root, modPath string, err error) {
	dir, err = filepath.Abs(dir)
	if err != nil {
		return "", "", err
	}
	for {
		data, err := os.ReadFile(filepath.Join(dir, "go.mod"))
		if err == nil {
			for _, line := range strings.Split(string(data), "\n") {
				line = strings.TrimSpace(line)
				if rest, ok := strings.CutPrefix(line, "module "); ok {
					return dir, strings.TrimSpace(rest), nil
				}
			}
			return "", "", fmt.Errorf("lint: %s/go.mod has no module line", dir)
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", "", fmt.Errorf("lint: no go.mod found above %s", dir)
		}
		dir = parent
	}
}

// Load resolves the patterns (directory paths relative to the module root;
// a "/..." suffix recurses) and returns the matched packages, type-checked.
// Directories without non-test Go files are skipped silently, as are
// testdata and hidden directories.
func (l *Loader) Load(patterns []string) ([]*Package, error) {
	var dirs []string
	seen := map[string]bool{}
	addDir := func(d string) {
		if !seen[d] {
			seen[d] = true
			dirs = append(dirs, d)
		}
	}
	for _, pat := range patterns {
		rec := false
		if strings.HasSuffix(pat, "/...") {
			rec = true
			pat = strings.TrimSuffix(pat, "/...")
		}
		if pat == "..." {
			rec, pat = true, "."
		}
		abs := pat
		if !filepath.IsAbs(abs) {
			abs = filepath.Join(l.modRoot, pat)
		}
		if !rec {
			addDir(filepath.Clean(abs))
			continue
		}
		err := filepath.WalkDir(abs, func(path string, d os.DirEntry, err error) error {
			if err != nil {
				return err
			}
			if !d.IsDir() {
				return nil
			}
			name := d.Name()
			if path != abs && (strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") || name == "testdata") {
				return filepath.SkipDir
			}
			if path != abs {
				// A directory with its own go.mod is a separate module,
				// outside this one's "./..." exactly as for the go command.
				if _, err := os.Stat(filepath.Join(path, "go.mod")); err == nil {
					return filepath.SkipDir
				}
			}
			addDir(filepath.Clean(path))
			return nil
		})
		if err != nil {
			return nil, err
		}
	}

	var out []*Package
	for _, dir := range dirs {
		names, err := goFilesIn(dir)
		if err != nil {
			return nil, err
		}
		if len(names) == 0 {
			continue
		}
		imp, err := l.importPathFor(dir)
		if err != nil {
			return nil, err
		}
		p, err := l.load(imp)
		if err != nil {
			return nil, err
		}
		if !l.Tests {
			out = append(out, p)
			continue
		}
		out = append(out, p)
		ext, err := l.loadExternalTests(imp, dir, p)
		if err != nil {
			return nil, err
		}
		if ext != nil {
			out = append(out, ext)
		}
	}
	return out, nil
}

// loadExternalTests type-checks the directory's external test package
// (package foo_test) if one exists. It imports the package under test
// through the loader like any other dependency, which — because Tests mode
// merges in-package test files into every load — gives it the augmented
// package, matching `go test` semantics (export_test.go hooks are visible).
func (l *Loader) loadExternalTests(imp, dir string, base *Package) (*Package, error) {
	files, err := l.parseTestFiles(dir, base.Types.Name()+"_test")
	if err != nil || len(files) == 0 {
		return nil, err
	}
	info := newInfo()
	conf := types.Config{Importer: l}
	tpkg, err := conf.Check(imp+"_test", l.Fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("lint: type-checking %s_test: %w", imp, err)
	}
	return &Package{Path: imp + "_test", Dir: dir, Fset: l.Fset, Files: files, Types: tpkg, Info: info, ForTest: imp}, nil
}

// parseTestFiles parses the directory's _test.go files (honoring build
// constraints) that declare the given package name, in sorted file order.
func (l *Loader) parseTestFiles(dir, pkgName string) ([]*ast.File, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var names []string
	for _, e := range entries {
		n := e.Name()
		if e.IsDir() || !strings.HasSuffix(n, "_test.go") {
			continue
		}
		if !buildTagOK(filepath.Join(dir, n)) {
			continue
		}
		names = append(names, n)
	}
	sort.Strings(names)
	var files []*ast.File
	for _, name := range names {
		f, err := parser.ParseFile(l.Fset, filepath.Join(dir, name), nil, parser.ParseComments)
		if err != nil {
			return nil, err
		}
		if f.Name.Name == pkgName {
			files = append(files, f)
		}
	}
	return files, nil
}

// importPathFor maps a directory under the module root to its import path.
func (l *Loader) importPathFor(dir string) (string, error) {
	rel, err := filepath.Rel(l.modRoot, dir)
	if err != nil || strings.HasPrefix(rel, "..") {
		return "", fmt.Errorf("lint: %s is outside module root %s", dir, l.modRoot)
	}
	if rel == "." {
		return l.modPath, nil
	}
	return l.modPath + "/" + filepath.ToSlash(rel), nil
}

// goFilesIn lists the non-test Go files of a directory that are included
// under the default build configuration, sorted. Honoring //go:build lines
// matters because tag-gated variant pairs (for example alternate engine
// defaults) declare the same identifiers and must not be type-checked
// together.
func goFilesIn(dir string) ([]string, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var names []string
	for _, e := range entries {
		n := e.Name()
		if e.IsDir() || !strings.HasSuffix(n, ".go") || strings.HasSuffix(n, "_test.go") {
			continue
		}
		if !buildTagOK(filepath.Join(dir, n)) {
			continue
		}
		names = append(names, n)
	}
	sort.Strings(names)
	return names, nil
}

// buildTagOK reports whether the file's build constraints, if any, are
// satisfied with no build tags set (the configuration `go build` uses by
// default on this platform). Per the toolchain's rules, a //go:build line
// is authoritative and any legacy // +build lines in the same file are
// ignored; with only legacy lines present, multiple // +build lines AND
// together. Unreadable or unparsable headers count as included, matching
// the pre-constraint behavior.
func buildTagOK(path string) bool {
	data, err := os.ReadFile(path)
	if err != nil {
		return true
	}
	var legacy []constraint.Expr
	for _, line := range strings.Split(string(data), "\n") {
		t := strings.TrimSpace(line)
		if strings.HasPrefix(t, "package ") {
			break // constraints are only legal before the package clause
		}
		switch {
		case constraint.IsGoBuild(t):
			expr, err := constraint.Parse(t)
			if err != nil {
				return true
			}
			return expr.Eval(defaultBuildTag)
		case constraint.IsPlusBuild(t):
			expr, err := constraint.Parse(t)
			if err != nil {
				continue
			}
			legacy = append(legacy, expr)
		}
	}
	for _, expr := range legacy {
		if !expr.Eval(defaultBuildTag) {
			return false
		}
	}
	return true
}

// defaultBuildTag evaluates a single build tag for the default (tagless)
// configuration: the host OS/arch, the gc toolchain, and every released
// go1.N language tag hold; custom tags do not.
func defaultBuildTag(tag string) bool {
	if tag == runtime.GOOS || tag == runtime.GOARCH || tag == "gc" {
		return true
	}
	return strings.HasPrefix(tag, "go1.")
}

// Import implements types.Importer, so module-local dependencies of a
// package under analysis are themselves loaded through this loader.
func (l *Loader) Import(path string) (*types.Package, error) {
	if path == l.modPath || strings.HasPrefix(path, l.modPath+"/") {
		p, err := l.load(path)
		if err != nil {
			return nil, err
		}
		return p.Types, nil
	}
	return l.std.Import(path)
}

// load parses and type-checks one module-local package, memoized.
func (l *Loader) load(importPath string) (*Package, error) {
	if p, ok := l.pkgs[importPath]; ok {
		return p, nil
	}
	if l.loading[importPath] {
		return nil, fmt.Errorf("lint: import cycle through %s", importPath)
	}
	l.loading[importPath] = true
	defer func() { l.loading[importPath] = false }()

	dir := l.modRoot
	if importPath != l.modPath {
		dir = filepath.Join(l.modRoot, filepath.FromSlash(strings.TrimPrefix(importPath, l.modPath+"/")))
	}
	names, err := goFilesIn(dir)
	if err != nil {
		return nil, err
	}
	if len(names) == 0 {
		return nil, fmt.Errorf("lint: no Go files in %s", dir)
	}
	var files []*ast.File
	for _, name := range names {
		f, err := parser.ParseFile(l.Fset, filepath.Join(dir, name), nil, parser.ParseComments)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	if l.Tests {
		// Merge the in-package test files into the one canonical package for
		// this import path. Doing it for dependencies too (not just directly
		// requested packages) keeps type identity consistent: an external
		// test package and the libraries it pulls in all see the same
		// augmented types.Package.
		tfiles, err := l.parseTestFiles(dir, files[0].Name.Name)
		if err != nil {
			return nil, err
		}
		files = append(files, tfiles...)
	}
	info := newInfo()
	conf := types.Config{Importer: l}
	tpkg, err := conf.Check(importPath, l.Fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("lint: type-checking %s: %w", importPath, err)
	}
	p := &Package{
		Path:  importPath,
		Dir:   dir,
		Fset:  l.Fset,
		Files: files,
		Types: tpkg,
		Info:  info,
	}
	l.pkgs[importPath] = p
	return p, nil
}

func newInfo() *types.Info {
	return &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
		Scopes:     map[ast.Node]*types.Scope{},
	}
}
