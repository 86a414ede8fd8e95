// Command linkcheck fails when a function declared in this module is linked
// by no binary and is not listed, with a citation, in allow.txt. It builds
// every main package, the bench module and a generated binary referencing
// each exported function of apiRoots, with inlining off, and compares the
// text symbols go tool nm reads from them with the functions declared in the
// non-test files of every package but this one. The linker keeps a method an
// interface call might reach, so the check under-reports. Run it from the
// module root: go run ./ci/linkcheck
package main

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"maps"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
)

const self = "squall/ci/linkcheck"

var (
	// apiRoots' exported API is the product: the library, the paper's
	// experiments and the harness other suites drive.
	apiRoots = []string{"squall", "squall/experiments", "squall/internal/enginetest"}
	testFunc = regexp.MustCompile(`(?m)^func ((?:Test|Fuzz)\w*)\(`)
	typeArgs = regexp.MustCompile(`\[[^\[\]]*\]`)
	funcSym  = regexp.MustCompile(`^[\pL_][\pL\d_]*(\.[\pL_][\pL\d_]*)?$`)
	closure  = regexp.MustCompile(`\.(func|gowrap|deferwrap)\d+$`)
	recvType = regexp.MustCompile(`^\*?(\w+)(\[.*\])?$`)
)

// module is what the check knows of the module's source.
type module struct {
	funcs   map[string]int  // lines of each declared function, by symbol key
	ifaces  map[string]bool // pkg.Name of each declared interface type
	tests   map[string]bool // Test and Fuzz functions of every package
	roadmap string
}

func main() {
	root := must(os.Getwd())
	out := must(exec.Command("go", "list", "-f", `{{.ImportPath}}|{{.Name}}|{{.Dir}}|{{join .GoFiles ","}}|{{join .TestGoFiles ","}},{{join .XTestGoFiles ","}}`, "./...").Output())
	m := &module{funcs: map[string]int{}, ifaces: map[string]bool{}, tests: map[string]bool{}}
	mains := map[string]string{"api": self + "/api"}
	fset := token.NewFileSet()
	var refs []string
	for _, line := range strings.Split(strings.TrimSpace(string(out)), "\n") {
		f := strings.Split(line, "|")
		path, name, dir := f[0], f[1], f[2]
		if path == self {
			continue
		}
		if name == "main" {
			mains[filepath.Base(path)] = path
		}
		api := slices.Contains(apiRoots, path)
		for _, file := range strings.Split(f[4], ",") {
			src, _ := os.ReadFile(filepath.Join(dir, file)) // none when the package has no tests
			for _, t := range testFunc.FindAllSubmatch(src, -1) {
				m.tests[string(t[1])] = true
			}
		}
		for _, file := range strings.Split(f[3], ",") {
			af := must(parser.ParseFile(fset, filepath.Join(dir, file), nil, parser.SkipObjectResolution))
			refs = append(refs, m.declare(fset, path, name, af, api)...)
		}
	}
	m.roadmap = string(must(os.ReadFile(filepath.Join(root, "ROADMAP.md"))))
	allow := string(must(os.ReadFile(filepath.Join(root, "ci", "linkcheck", "allow.txt"))))
	api := fmt.Sprintf("package main\n\nimport (\n\t\"fmt\"\n\t\"os\"\n\t\"%s\"\n)\n\nvar refs = []any{\n\t%s,\n}\n\nfunc main() {\n\tif len(os.Args) > len(refs) {\n\t\tfmt.Println(refs...)\n\t}\n}\n", strings.Join(apiRoots, "\"\n\t\""), strings.Join(refs, ",\n\t"))
	errs := m.check(allow, buildAndRead(root, mains, api), os.Stdout)
	if len(errs) > 0 {
		fmt.Fprintln(os.Stderr, strings.Join(errs, "\n"))
		os.Exit(1)
	}
}

// tmp holds the binaries; must removes it before exiting.
var tmp string

// must exits on a failure of the toolchain or the file system.
func must[T any](v T, err error) T {
	if err != nil {
		os.RemoveAll(tmp)
		fmt.Fprintln(os.Stderr, "linkcheck:", err)
		os.Exit(2)
	}
	return v
}

// declare records the functions and interfaces af declares in package path
// and returns, for an API package, a reference to each exported function.
func (m *module) declare(fset *token.FileSet, path, name string, af *ast.File, api bool) (refs []string) {
	for _, d := range af.Decls {
		if gd, ok := d.(*ast.GenDecl); ok && gd.Tok == token.TYPE {
			for _, s := range gd.Specs {
				if _, ok := s.(*ast.TypeSpec).Type.(*ast.InterfaceType); ok {
					m.ifaces[path+"."+s.(*ast.TypeSpec).Name.Name] = true
				}
			}
		}
		fd, ok := d.(*ast.FuncDecl)
		if !ok || fd.Name.Name == "_" || fd.Recv == nil && fd.Name.Name == "init" {
			continue
		}
		key, recv, generic := declKey(path, fd)
		m.funcs[key] = fset.Position(fd.End()).Line - fset.Position(fd.Pos()).Line + 1
		if exported := api && !generic && fd.Name.IsExported(); exported && recv == "" {
			refs = append(refs, name+"."+fd.Name.Name)
		} else if exported && ast.IsExported(recv) {
			refs = append(refs, fmt.Sprintf("(*%s.%s).%s", name, recv, fd.Name.Name))
		}
	}
	return refs
}

// declKey is a declared function's symbol key, pkg.F or pkg.T.M for a method
// on T or *T, its receiver type and whether either has type parameters.
func declKey(pkg string, fd *ast.FuncDecl) (key, recv string, generic bool) {
	if fd.Recv == nil {
		return pkg + "." + fd.Name.Name, "", fd.Type.TypeParams != nil
	}
	r := recvType.FindStringSubmatch(types.ExprString(fd.Recv.List[0].Type))
	return pkg + "." + r[1] + "." + fd.Name.Name, r[1], r[2] != ""
}

// buildAndRead builds the binaries, the API one from source overlaid on a
// missing directory, and returns the keys their text symbols name.
func buildAndRead(root string, mains map[string]string, api string) map[string]bool {
	tmp = must(os.MkdirTemp("", "linkcheck"))
	defer os.RemoveAll(tmp)
	bin := tmp + string(filepath.Separator)
	overlay := fmt.Sprintf(`{"Replace":{%q:%q}}`, filepath.Join(root, "ci", "linkcheck", "api", "main.go"), bin+"api.go")
	must(0, os.WriteFile(bin+"api.go", []byte(api), 0o644))
	must(0, os.WriteFile(bin+"overlay.json", []byte(overlay), 0o644))
	build := append([]string{"build", "-overlay", bin + "overlay.json", "-gcflags=all=-l", "-o", bin}, slices.Collect(maps.Values(mains))...)
	for _, args := range [][]string{build, {"build", "-C", "bench", "-gcflags=all=-l", "-o", bin + "bench", "."}} {
		if out, err := exec.Command("go", args...).CombinedOutput(); err != nil {
			must(0, fmt.Errorf("go %s: %v\n%s", strings.Join(args, " "), err, out))
		}
	}
	mains["bench"] = "squall/bench"
	linked := map[string]bool{}
	for name, path := range mains {
		for _, line := range strings.Split(string(must(exec.Command("go", "tool", "nm", bin+name).Output())), "\n") {
			if f := strings.Fields(line); len(f) == 3 && (f[1] == "T" || f[1] == "t") {
				if sym, ok := strings.CutPrefix(f[2], "main."); ok {
					f[2] = path + "." + sym
				}
				if key, ok := symKey(f[2]); ok {
					linked[key] = true
				}
			}
		}
	}
	return linked
}

// symKey maps a text symbol to its function's declKey, dropping type
// arguments and (*...); closures, wrappers and runtime helpers report false.
func symKey(sym string) (string, bool) {
	for typeArgs.MatchString(sym) {
		sym = typeArgs.ReplaceAllString(sym, "")
	}
	pkg := pkgOf(sym)
	rest := strings.NewReplacer("(*", "", ")", "").Replace(strings.TrimPrefix(sym, pkg+"."))
	if pkg == sym || !funcSym.MatchString(rest) || closure.MatchString(rest) {
		return "", false
	}
	return pkg + "." + rest, true
}

// pkgOf is the import path of a function key.
func pkgOf(key string) string {
	slash := strings.LastIndexByte(key, '/') + 1
	return key[:slash] + strings.Split(key[slash:], ".")[0]
}

// cite returns why the citation "kind:ref" of key's entry is rejected, or "".
func (m *module) cite(key, kind, ref string) string {
	if kind == "item" {
		for _, l := range strings.Split(m.roadmap, "\n") {
			if strings.HasPrefix(l, "### "+ref+". ") && !strings.Contains(l, "— done") {
				return ""
			}
		}
		return "ROADMAP.md has no open item headed ### " + ref + "."
	}
	resolved, known := map[string]bool{"oracle": m.tests[ref], "api": m.funcs["squall."+ref] > 0, "marker": m.ifaces[pkgOf(key)+"."+ref]}[kind]
	if resolved {
		return ""
	} else if known {
		return "no " + kind + " named " + ref
	}
	return "missing citation: want item: N, oracle: TestOrFuzzName, api: RootName or marker: Interface"
}

// check reports each unlinked function allow does not list, each entry that
// lists nothing unlinked and each citation it rejects; w gets a summary.
func (m *module) check(allow string, linked map[string]bool, w io.Writer) []string {
	var errs []string
	covered := map[string]string{}
	for i, line := range strings.Split(allow, "\n") {
		f := strings.Fields(strings.Split(line, "#")[0])
		if len(f) == 0 {
			continue
		}
		key, citation := f[0], strings.Join(f[1:], "")
		kind, ref, _ := strings.Cut(citation, ":")
		bad, n, live := m.cite(key, kind, ref), 0, false
		for k := range m.funcs {
			if k == key || pkgOf(k) == key {
				n, live = n+1, live || linked[k]
				covered[k] = kind
			}
		}
		if bad == "" && n == 0 {
			bad = "stale entry: no such function or package"
		} else if bad == "" && live {
			bad = "stale entry: linked"
		}
		if bad != "" {
			errs = append(errs, fmt.Sprintf("ci/linkcheck/allow.txt:%d: %s: %s", i+1, key, bad))
		}
	}
	unlinked, lines, kinds := 0, 0, map[string]int{}
	for _, k := range slices.Sorted(maps.Keys(m.funcs)) {
		if linked[k] {
			continue
		}
		unlinked++
		lines += m.funcs[k]
		if kind, ok := covered[k]; ok {
			kinds[kind]++
			continue
		}
		errs = append(errs, fmt.Sprintf("%s is linked by no binary; delete it, move it into a _test.go file, or list it in ci/linkcheck/allow.txt with a citation", k))
	}
	fmt.Fprintf(w, "linkcheck: %d declared functions, %d unlinked (%d lines); allowlisted by item %d, oracle %d, api %d, marker %d\n",
		len(m.funcs), unlinked, lines, kinds["item"], kinds["oracle"], kinds["api"], kinds["marker"])
	return errs
}
