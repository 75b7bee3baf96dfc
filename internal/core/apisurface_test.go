package core

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"sort"
	"strings"
	"testing"
)

// TestAPISurfaceOneExploreEntryPoint parses the package source and
// enforces the finalized v2 contract: exactly two exported Explore entry
// points exist — core.Explore, the service engine, and
// core.ExploreAnalytical, the paper's engine kept for reproduction — and
// no Deprecated: Explore shims remain; the old compatibility wrappers
// were deleted once every caller had migrated to Explore(ctx, src, opts).
// This is the apidiff gate: adding a third entry point, or reintroducing
// a shim, fails here before review.
func TestAPISurfaceOneExploreEntryPoint(t *testing.T) {
	fset := token.NewFileSet()
	pkgs, err := parser.ParseDir(fset, ".", func(fi fs.FileInfo) bool {
		return !strings.HasSuffix(fi.Name(), "_test.go")
	}, parser.ParseComments)
	if err != nil {
		t.Fatal(err)
	}
	pkg, ok := pkgs["core"]
	if !ok {
		t.Fatalf("package core not found in %v", pkgs)
	}

	var live, deprecated []string
	for _, file := range pkg.Files {
		for _, decl := range file.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Recv != nil || !fn.Name.IsExported() {
				continue
			}
			name := fn.Name.Name
			if !strings.HasPrefix(name, "Explore") {
				continue
			}
			if isDeprecated(fn.Doc) {
				deprecated = append(deprecated, name)
			} else {
				live = append(live, name)
			}
		}
	}
	sort.Strings(live)
	sort.Strings(deprecated)

	if len(live) != 2 || live[0] != "Explore" || live[1] != "ExploreAnalytical" {
		t.Fatalf("non-deprecated Explore entry points = %v, want exactly [Explore ExploreAnalytical]", live)
	}
	if len(deprecated) != 0 {
		t.Fatalf("Deprecated: Explore shims = %v, want none (the v2 surface has a single entry point; new options go on core.Options, not on new wrappers)", deprecated)
	}
}

// TestAPISurfaceOnePostlude locks in the paper engine's single LRU
// postlude: the engine switch (Options.Engine, the Engine type and its
// constants) and its serial-engine error were removed when the
// depth-first walk became ExploreAnalytical's only postlude. The walk is
// serial; Options.Workers parallelises only Explore's stack-distance
// passes. Reintroducing any of them fails here.
func TestAPISurfaceOnePostlude(t *testing.T) {
	fset := token.NewFileSet()
	pkgs, err := parser.ParseDir(fset, ".", func(fi fs.FileInfo) bool {
		return !strings.HasSuffix(fi.Name(), "_test.go")
	}, 0)
	if err != nil {
		t.Fatal(err)
	}
	removed := map[string]bool{
		"Engine": true, "EngineAuto": true, "EngineDFS": true, "EngineBCAT": true, "ErrEngineSerial": true,
	}
	for _, file := range pkgs["core"].Files {
		ast.Inspect(file, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.TypeSpec:
				if removed[n.Name.Name] {
					t.Errorf("type %s is back", n.Name.Name)
				}
				if st, ok := n.Type.(*ast.StructType); ok && n.Name.Name == "Options" {
					for _, f := range st.Fields.List {
						for _, name := range f.Names {
							if removed[name.Name] {
								t.Errorf("Options.%s is back", name.Name)
							}
						}
					}
				}
			case *ast.ValueSpec:
				for _, name := range n.Names {
					if removed[name.Name] {
						t.Errorf("%s is back", name.Name)
					}
				}
			}
			return true
		})
	}
}

func isDeprecated(doc *ast.CommentGroup) bool {
	if doc == nil {
		return false
	}
	for _, c := range doc.List {
		if strings.Contains(c.Text, "Deprecated:") {
			return true
		}
	}
	return false
}
