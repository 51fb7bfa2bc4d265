package lint

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// Package is one type-checked package as the analyzers see it: parsed
// non-test sources (with comments, for the suppression directives) plus
// full go/types information resolved against the real module tree, so an
// analyzer can ask "is this mp.Request?" rather than pattern-match on
// names.
type Package struct {
	// Path is the import path the package was checked under. Fixture
	// packages under testdata are loaded with a spoofed in-module path so
	// path-scoped analyzers treat them like the package they impersonate.
	Path  string
	Dir   string
	Fset  *token.FileSet
	Files []*ast.File
	Types *types.Package
	Info  *types.Info
}

// Loader parses and type-checks packages of one module using only the
// standard library: module-internal imports are resolved by recursively
// loading their source directories, everything else is delegated to the
// compiler's export data (importer.Default). go.mod stays dependency-free.
type Loader struct {
	ModuleRoot string
	ModulePath string

	fset *token.FileSet
	std  types.Importer
	pkgs map[string]*Package // keyed by import path
}

// NewLoader creates a loader for the module rooted at root (the directory
// holding go.mod).
func NewLoader(root string) (*Loader, error) {
	abs, err := filepath.Abs(root)
	if err != nil {
		return nil, err
	}
	data, err := os.ReadFile(filepath.Join(abs, "go.mod"))
	if err != nil {
		return nil, fmt.Errorf("lint: module root %s: %w", abs, err)
	}
	mod := ""
	for _, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if rest, ok := strings.CutPrefix(line, "module "); ok {
			mod = strings.TrimSpace(rest)
			break
		}
	}
	if mod == "" {
		return nil, fmt.Errorf("lint: no module line in %s/go.mod", abs)
	}
	return &Loader{
		ModuleRoot: abs,
		ModulePath: mod,
		fset:       token.NewFileSet(),
		std:        importer.Default(),
		pkgs:       map[string]*Package{},
	}, nil
}

// FindModuleRoot walks up from dir to the nearest directory containing
// go.mod.
func FindModuleRoot(dir string) (string, error) {
	d, err := filepath.Abs(dir)
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(d, "go.mod")); err == nil {
			return d, nil
		}
		parent := filepath.Dir(d)
		if parent == d {
			return "", fmt.Errorf("lint: no go.mod above %s", dir)
		}
		d = parent
	}
}

// Import implements types.Importer so a package under load can resolve its
// own module's packages from source; stdlib goes through export data.
func (l *Loader) Import(path string) (*types.Package, error) {
	if path == l.ModulePath || strings.HasPrefix(path, l.ModulePath+"/") {
		p, err := l.Load(path)
		if err != nil {
			return nil, err
		}
		return p.Types, nil
	}
	return l.std.Import(path)
}

// Load loads (or returns the cached) package with the given in-module
// import path.
func (l *Loader) Load(path string) (*Package, error) {
	if p, ok := l.pkgs[path]; ok {
		if p == nil {
			return nil, fmt.Errorf("lint: import cycle through %s", path)
		}
		return p, nil
	}
	rel := strings.TrimPrefix(strings.TrimPrefix(path, l.ModulePath), "/")
	dir := filepath.Join(l.ModuleRoot, filepath.FromSlash(rel))
	return l.loadDir(dir, path)
}

// loadDir type-checks the package in dir under the import path path. The
// tests load fixture packages from testdata this way, under a spoofed
// in-module path (path-scoped analyzers key off it).
func (l *Loader) loadDir(dir, path string) (*Package, error) {
	l.pkgs[path] = nil // cycle marker
	names, err := sourceFiles(dir)
	if err != nil {
		return nil, err
	}
	if len(names) == 0 {
		return nil, fmt.Errorf("lint: no Go sources in %s", dir)
	}
	var files []*ast.File
	for _, n := range names {
		f, err := parser.ParseFile(l.fset, filepath.Join(dir, n), nil, parser.ParseComments)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	info := &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
	}
	conf := types.Config{Importer: l}
	tpkg, err := conf.Check(path, l.fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("lint: type-checking %s: %w", path, err)
	}
	p := &Package{Path: path, Dir: dir, Fset: l.fset, Files: files, Types: tpkg, Info: info}
	l.pkgs[path] = p
	return p, nil
}

// sourceFiles lists, sorted, the files of dir the compiler would build into
// the package on this host: non-test .go files whose //go:build line and
// _GOOS/_GOARCH name suffix match the default build context. Loading the
// others too would type-check per-OS variants of one declaration against
// each other.
func sourceFiles(dir string) ([]string, error) {
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
		ok, err := build.Default.MatchFile(dir, n)
		if err != nil {
			return nil, err
		}
		if ok {
			names = append(names, n)
		}
	}
	sort.Strings(names)
	return names, nil
}

// LoadModule loads every package of the module: each directory under the
// root that contains non-test Go sources built on this host, skipping
// testdata trees and hidden directories. Returned in deterministic
// import-path order.
func (l *Loader) LoadModule() ([]*Package, error) {
	var paths []string
	err := filepath.WalkDir(l.ModuleRoot, func(dir string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() {
			return nil
		}
		base := filepath.Base(dir)
		if base == "testdata" || (strings.HasPrefix(base, ".") && dir != l.ModuleRoot) {
			return filepath.SkipDir
		}
		names, err := sourceFiles(dir)
		if err != nil {
			return err
		}
		if len(names) > 0 {
			rel, err := filepath.Rel(l.ModuleRoot, dir)
			if err != nil {
				return err
			}
			p := l.ModulePath
			if rel != "." {
				p += "/" + filepath.ToSlash(rel)
			}
			paths = append(paths, p)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	sort.Strings(paths)
	pkgs := make([]*Package, 0, len(paths))
	for _, p := range paths {
		pkg, err := l.Load(p)
		if err != nil {
			return nil, err
		}
		pkgs = append(pkgs, pkg)
	}
	return pkgs, nil
}
