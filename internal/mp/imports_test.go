package mp

import (
	"go/parser"
	"go/token"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// TestTransportImportsStdlibOnly keeps the transport a leaf: its non-test
// files import only the standard library, so every package of the module
// can build on mp, and wrap a Comm, without an import cycle.
func TestTransportImportsStdlibOnly(t *testing.T) {
	files, err := filepath.Glob("*.go")
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
				t.Errorf("%s imports %s: internal/mp must import only the standard library", name, path)
			}
		}
	}
	if parsed == 0 {
		t.Fatal("no non-test Go files found")
	}
}
