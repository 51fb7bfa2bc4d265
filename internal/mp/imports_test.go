package mp

import (
	"go/parser"
	"go/token"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// TestLeafPackagesImportStdlibOnly keeps the module's leaf packages leaves:
// their non-test files import only the standard library. The transport is
// one, so every package of the module can build on mp, and wrap a Comm,
// without an import cycle; model is another, the machine and the formulas
// of eq. 3–5 with no derivation of its own (core.Plan derives a loop
// nest's tiling, mapping and schedule).
func TestLeafPackagesImportStdlibOnly(t *testing.T) {
	for _, c := range []struct{ pkg, dir string }{
		{"internal/mp", "."},
		{"internal/model", "../model"},
	} {
		t.Run(c.pkg, func(t *testing.T) {
			files, err := filepath.Glob(filepath.Join(c.dir, "*.go"))
			if err != nil {
				t.Fatal(err)
			}
			fset := token.NewFileSet()
			parsed := 0
			for _, name := range files {
				if strings.HasSuffix(name, "_test.go") {
					continue
				}
				f, err := parser.ParseFile(fset, name, nil, parser.ImportsOnly)
				if err != nil {
					t.Fatal(err)
				}
				parsed++
				for _, imp := range f.Imports {
					path, err := strconv.Unquote(imp.Path.Value)
					if err != nil {
						t.Fatal(err)
					}
					if path == "repro" || strings.HasPrefix(path, "repro/") {
						t.Errorf("%s imports %s: %s must import only the standard library", name, path, c.pkg)
					}
				}
			}
			if parsed == 0 {
				t.Fatal("no non-test Go files found")
			}
		})
	}
}
