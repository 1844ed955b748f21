package mixnn_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// unreached is every name in internal/ that no non-test file of the two
// modules (mixnn and mixnn/bench) reaches, with the reason it stays.
// The list only shrinks: TestEveryInternalNameIsReached fails on a name
// missing from it, on an entry that gained a non-test caller, and on an
// entry whose declaration is gone.
var unreached = map[string]string{
	"attack.NewLayerObserver":            "the tier-level layer attack (ROADMAP item 7) wires it in or deletes it",
	"attack.LayerObserver.LayerNames":    "the tier-level layer attack (ROADMAP item 7) wires it in or deletes it",
	"attack.LayerObserver.LayerAccuracy": "the tier-level layer attack (ROADMAP item 7) wires it in or deletes it",
	"enclave.Encrypt":                    "the one-shot seal the root crypto benchmarks that CI gates run",
	"enclave.NewObliviousStore":          "the oblivious store (ROADMAP item 7) is wired in or deleted with the attack",
	"enclave.ObliviousStore.Accesses":    "the oblivious store (ROADMAP item 7) is wired in or deleted with the attack",
	"enclave.ObliviousStore.SlotSize":    "the oblivious store (ROADMAP item 7) is wired in or deleted with the attack",
	"nn.SlabLayout.AppendWire":           "the reference encoder the slab wire round-trip tests compare against",
	"nn.WeightedAverage":                 "the reference TestWeightedAverageBreaksUnderMixing compares mixing against",
	"privacy.ClippedNoisyTransform":      "no arm runs the clipped DP-SGD baseline; only its own tests call it",
	"route.Topology.Equal":               "the planner tests compare topologies with it",
	"tensor.Equal":                       "a test helper the tests of several packages share",
	"tensor.MustFromSlice":               "a test helper the tests of several packages share",
	"tensor.Ones":                        "a test helper the tests of several packages share",
	"tensor.Tensor.Max":                  "the tensor tests check reductions and initialiser ranges with it",
	"tensor.Tensor.Min":                  "the tensor tests check reductions and initialiser ranges with it",
}

// TestEveryInternalNameIsReached keeps internal/ free of code nothing
// ships. It lists every exported package-level name and every method
// declared in a non-test file under internal/, and counts one as
// reached when a non-test file of either module names it: a package
// name qualified by an import of its package, or unqualified inside its
// own package; a method by any selector of its name. Two kinds are not
// listed: methods of the types the root facade (mixnn.go) aliases, which
// are the library's API, and methods whose name an interface in the
// modules declares, which a name cannot tell from their implementations.
func TestEveryInternalNameIsReached(t *testing.T) {
	fset := token.NewFileSet()
	var files []srcFile
	err := filepath.WalkDir(".", func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if p != "." && (strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(p, ".go") || strings.HasSuffix(p, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, p, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		files = append(files, srcFile{pkg: path.Join("mixnn", filepath.ToSlash(filepath.Dir(p))), f: f})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}

	refs := make(map[string]bool)    // "import/path.Name" named from outside or inside its package
	called := make(map[string]bool)  // selector names: methods are matched by name
	iface := make(map[string]bool)   // method names some interface declares
	facade := make(map[string]bool)  // "import/path.Type" the facade aliases
	decls := make(map[string]string) // "import/path.Name" or "import/path.Type.Method" -> listed name
	for _, sf := range files {
		sf.refs(refs, called, iface)
		if sf.pkg == "mixnn" {
			sf.aliases(facade)
		}
		if strings.HasPrefix(sf.pkg, "mixnn/internal/") {
			sf.decls(decls)
		}
	}

	var missing []string
	declared := make(map[string]bool) // listed names
	reached := make(map[string]bool)  // listed names some non-test file reaches
	for key, name := range decls {
		declared[name] = true
		pkg, rest, _ := strings.Cut(key, "\x00")
		var hit bool
		if typ, method, ok := strings.Cut(rest, "."); ok {
			if facade[pkg+"."+typ] || iface[method] {
				continue
			}
			hit = called[method]
		} else {
			hit = refs[pkg+"."+rest]
		}
		if hit {
			reached[name] = true
		} else if _, ok := unreached[name]; !ok {
			missing = append(missing, name)
		}
	}
	sort.Strings(missing)
	for _, name := range missing {
		t.Errorf("%s: no non-test file reaches it; delete it, or give it a caller", name)
	}
	var stale []string
	for name := range unreached {
		switch {
		case !declared[name]:
			stale = append(stale, name+": on the allow-list but no longer declared; take it off the list")
		case reached[name]:
			stale = append(stale, name+": on the allow-list but a non-test file now reaches it; take it off the list")
		}
	}
	sort.Strings(stale)
	for _, s := range stale {
		t.Error(s)
	}
}

// srcFile is one parsed non-test file and the import path of its
// package.
type srcFile struct {
	pkg string
	f   *ast.File
}

// imports maps the names the file imports packages under to their
// paths.
func (sf srcFile) imports() map[string]string {
	imports := make(map[string]string)
	for _, im := range sf.f.Imports {
		p, _ := strconv.Unquote(im.Path.Value)
		name := path.Base(p)
		if im.Name != nil {
			name = im.Name.Name
		}
		imports[name] = p
	}
	return imports
}

// refs records what the file names: package-level names qualified by an
// import or unqualified in its own package, selector names, and the
// method names of the interfaces it declares. A declaration does not
// count as naming itself, and neither does a function's own body or a
// method's receiver.
func (sf srcFile) refs(refs, called, iface map[string]bool) {
	imports := sf.imports()
	// self is the declaration being walked: its own name does not count
	// as a reference to it, nor does recv.self inside a method on recv.
	var walk func(n ast.Node, self, recv string)
	walk = func(n ast.Node, self, recv string) {
		ast.Inspect(n, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.SelectorExpr:
				x, _ := n.X.(*ast.Ident)
				if x != nil {
					if p, ok := imports[x.Name]; ok {
						refs[p+"."+n.Sel.Name] = true
						return false
					}
				}
				if recv == "" || x == nil || x.Name != recv || n.Sel.Name != self {
					called[n.Sel.Name] = true
				}
				walk(n.X, self, recv)
				return false
			case *ast.Ident:
				if recv != "" || n.Name != self {
					refs[sf.pkg+"."+n.Name] = true
				}
			case *ast.InterfaceType:
				for _, m := range n.Methods.List {
					for _, name := range m.Names {
						iface[name.Name] = true
					}
				}
			}
			return true
		})
	}
	for _, d := range sf.f.Decls {
		switch d := d.(type) {
		case *ast.FuncDecl:
			recv := ""
			if d.Recv != nil {
				recv = "_"
				if names := d.Recv.List[0].Names; len(names) == 1 {
					recv = names[0].Name
				}
			}
			walk(d.Type, d.Name.Name, recv)
			if d.Body != nil {
				walk(d.Body, d.Name.Name, recv)
			}
		case *ast.GenDecl:
			for _, s := range d.Specs {
				switch s := s.(type) {
				case *ast.TypeSpec:
					if s.TypeParams != nil {
						walk(s.TypeParams, s.Name.Name, "")
					}
					walk(s.Type, s.Name.Name, "")
				case *ast.ValueSpec:
					self := ""
					if len(s.Names) == 1 {
						self = s.Names[0].Name
					}
					if s.Type != nil {
						walk(s.Type, self, "")
					}
					for _, v := range s.Values {
						walk(v, self, "")
					}
				}
			}
		}
	}
}

// aliases records the internal types the facade file aliases.
func (sf srcFile) aliases(facade map[string]bool) {
	imports := sf.imports()
	for _, d := range sf.f.Decls {
		g, ok := d.(*ast.GenDecl)
		if !ok {
			continue
		}
		for _, s := range g.Specs {
			ts, ok := s.(*ast.TypeSpec)
			if !ok || !ts.Assign.IsValid() {
				continue
			}
			if sel, ok := ts.Type.(*ast.SelectorExpr); ok {
				if x, ok := sel.X.(*ast.Ident); ok {
					facade[imports[x.Name]+"."+sel.Sel.Name] = true
				}
			}
		}
	}
}

// decls records the file's exported package-level names and its
// methods, keyed by import path and name, with the name the test lists
// them under.
func (sf srcFile) decls(decls map[string]string) {
	short := sf.f.Name.Name
	add := func(name string) {
		if ast.IsExported(name) {
			decls[sf.pkg+"\x00"+name] = short + "." + name
		}
	}
	for _, d := range sf.f.Decls {
		switch d := d.(type) {
		case *ast.FuncDecl:
			if d.Recv == nil {
				add(d.Name.Name)
				continue
			}
			typ := recvType(d.Recv.List[0].Type)
			decls[sf.pkg+"\x00"+typ+"."+d.Name.Name] = short + "." + typ + "." + d.Name.Name
		case *ast.GenDecl:
			for _, s := range d.Specs {
				switch s := s.(type) {
				case *ast.TypeSpec:
					add(s.Name.Name)
				case *ast.ValueSpec:
					for _, n := range s.Names {
						add(n.Name)
					}
				}
			}
		}
	}
}

// recvType is the name of a method's receiver type.
func recvType(e ast.Expr) string {
	for {
		switch x := e.(type) {
		case *ast.StarExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.IndexListExpr:
			e = x.X
		case *ast.ParenExpr:
			e = x.X
		case *ast.Ident:
			return x.Name
		default:
			return ""
		}
	}
}
