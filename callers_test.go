package eventnet

import (
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// callerAllowlist names the functions that no non-test code calls and
// that stay anyway. Each entry says why: it is a reference oracle (and
// names the test that holds production code against it), or it is a
// hook that another package's tests need. A key is
// "<package path>.<func>" or "<package path>.(<type>).<method>".
var callerAllowlist = map[string]string{
	// Reference oracles.
	"eventnet/internal/nkc.CompileDNF":               "oracle: TestCompileFDDMatchesDNFOnApps and TestProgramCacheMatchesScratchAndDNF hold the FDD compiler against it",
	"eventnet/internal/trace.CheckUpdate":            "oracle: Definition 6 read literally; TestCheckNESMatchesDefinition holds trace.CheckNES against it",
	"eventnet/internal/nes.(NES).AllowedSequences":   "oracle: TestCheckNESMatchesDefinition enumerates the allowed sequences with it",
	"eventnet/internal/nes.(NES).EventSets":          "oracle: TestEventSetsMatchFamily and TestAppsToNES hold the built family against it",
	"eventnet/internal/optimize.Optimal":             "oracle: TestGreedyVsOptimal holds the greedy trie against the exhaustive optimum",
	"eventnet/internal/stateful.CollectGuards":       "oracle: TestSkeletonMatchesReference holds the compiler's one-pass guard index against it",
	"eventnet/internal/netkat.EquivOn":               "oracle: TestFirewallSourceMatchesAST and TestProjectEvalAgreement compare policies by netkat.Eval",
	"eventnet/internal/chaos.ParseReproducer":        "oracle: replays the reproducer line a violating chaos run prints (docs/CHAOS.md); ExampleParseReproducer",
	"eventnet/internal/topo.(Topology).Validate":     "oracle: TestAllValid and TestBuildersValid check every built-in topology with it",
	"eventnet/internal/obs.(Metrics).Histogram":      "oracle: cmd/netctl's TestParseMetricsRoundTrip and FuzzParseMetrics hold the scraper against the in-process snapshot",
	"eventnet/internal/dataplane.(Batch).Injections": "oracle: cmd/netd's FuzzInjectDecode reads a filled batch back to hold the wire scanner against encoding/json",

	// Hooks that another package's tests need.
	"eventnet/internal/sim.(Sim).NetTrace":              "hook: trace's TestCheckNESMatchesDefinition judges the simulator's recorded traces",
	"eventnet/internal/nes.(NES).Family":                "hook: ets's and trace's tests read a built NES's family",
	"eventnet/internal/netkat.(DPacket).Key":            "hook: nkc's, dataplane's and trace's tests key directed packets by it",
	"eventnet/internal/netkat.SeqAll":                   "hook: nkc's compiler tests build policies with it",
	"eventnet/internal/stateful.Lift":                   "hook: nkc's, ets's, dataplane's and optimize's tests compile a plain policy as its one-state program",
	"eventnet/internal/stateful.(GuardIndex).Tests":     "hook: nkc's TestTwoComponentAppShape reads a program's state tests",
	"eventnet/internal/stateful/statefultest.RandCmd":   "hook: the random program generator of syntax's and nkc's tests",
	"eventnet/internal/stateful/statefultest.StringRef": "hook: the reference renderer syntax's and nkc's tests hold Cmd.String against",
}

// TestEveryFunctionHasACaller type-checks every non-test package of the
// module, plus the nested bench module, and fails on any function or
// method declared in non-test code of this module that non-test code
// does not reach: one no non-test file references, or one referenced
// only from such functions. A reference from inside the function's own
// body does not count. Reaching starts from main, init, every method
// that implements an interface method, the entries of callerAllowlist,
// and every reference made outside a function of this module — from a
// package-level declaration, or from bench.
func TestEveryFunctionHasACaller(t *testing.T) {
	const module = "eventnet"
	fset := token.NewFileSet()
	dirs := map[string]string{} // import path -> directory
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() {
			return nil
		}
		name := d.Name()
		if path != "." && (strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") || name == "testdata") {
			return filepath.SkipDir
		}
		ip := module
		if path != "." {
			ip = module + "/" + filepath.ToSlash(path)
		}
		dirs[ip] = path
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}

	type pkgInfo struct {
		pkg   *types.Package
		files []*ast.File
		info  *types.Info
	}
	checked := map[string]*pkgInfo{}
	std := importer.Default()
	var imp importerFunc
	var check func(ip string) (*types.Package, error)
	imp = func(ip string) (*types.Package, error) {
		if _, ok := dirs[ip]; ok {
			return check(ip)
		}
		return std.Import(ip)
	}
	check = func(ip string) (*types.Package, error) {
		if p, ok := checked[ip]; ok {
			return p.pkg, nil
		}
		bp, err := build.ImportDir(dirs[ip], 0)
		if err != nil {
			return nil, err
		}
		var files []*ast.File
		for _, name := range bp.GoFiles {
			f, err := parser.ParseFile(fset, filepath.Join(dirs[ip], name), nil, 0)
			if err != nil {
				return nil, err
			}
			files = append(files, f)
		}
		info := &types.Info{
			Types: map[ast.Expr]types.TypeAndValue{},
			Defs:  map[*ast.Ident]types.Object{},
			Uses:  map[*ast.Ident]types.Object{},
		}
		conf := types.Config{Importer: imp}
		pkg, err := conf.Check(ip, fset, files, info)
		if err != nil {
			return nil, err
		}
		checked[ip] = &pkgInfo{pkg, files, info}
		return pkg, nil
	}
	var paths []string
	for ip, dir := range dirs {
		if _, err := build.ImportDir(dir, 0); err != nil {
			continue // no non-test Go files
		}
		paths = append(paths, ip)
	}
	sort.Strings(paths)
	for _, ip := range paths {
		if _, err := check(ip); err != nil {
			t.Fatalf("%s: %v", ip, err)
		}
	}

	// Every interface type in reach: the universe's error, the scopes
	// of every package checked or imported, and every interface
	// literal the checked code spells.
	var ifaces []*types.Interface
	seenPkg := map[*types.Package]bool{}
	var addScope func(p *types.Package)
	addScope = func(p *types.Package) {
		if seenPkg[p] {
			return
		}
		seenPkg[p] = true
		for _, name := range p.Scope().Names() {
			if tn, ok := p.Scope().Lookup(name).(*types.TypeName); ok {
				if it, ok := tn.Type().Underlying().(*types.Interface); ok {
					ifaces = append(ifaces, it)
				}
			}
		}
		for _, q := range p.Imports() {
			addScope(q)
		}
	}
	ifaces = append(ifaces, types.Universe.Lookup("error").Type().Underlying().(*types.Interface))
	for _, ip := range paths {
		p := checked[ip]
		addScope(p.pkg)
		for _, tv := range p.info.Types {
			if it, ok := tv.Type.Underlying().(*types.Interface); ok {
				ifaces = append(ifaces, it)
			}
		}
	}
	implementsInterface := func(fn *types.Func) bool {
		recv := fn.Type().(*types.Signature).Recv().Type()
		if ptr, ok := recv.(*types.Pointer); ok {
			recv = ptr.Elem()
		}
		ptr := types.NewPointer(recv)
		for _, it := range ifaces {
			if it.NumMethods() == 0 {
				continue
			}
			obj, _, _ := types.LookupFieldOrMethod(it, false, fn.Pkg(), fn.Name())
			if obj == nil {
				continue
			}
			if types.Implements(recv, it) || types.Implements(ptr, it) {
				return true
			}
		}
		return false
	}

	// Declarations in this module (bench is a caller only) and the
	// references between them. A reference from code outside any
	// function of this module — a package-level declaration, or bench —
	// makes its target a root.
	decls := map[*types.Func]token.Pos{}
	calls := map[*types.Func][]*types.Func{}
	var roots []*types.Func
	for _, ip := range paths {
		p := checked[ip]
		inBench := ip == module+"/bench" || strings.HasPrefix(ip, module+"/bench/")
		for _, f := range p.files {
			for _, d := range f.Decls {
				var self *types.Func
				if fd, ok := d.(*ast.FuncDecl); ok && !inBench {
					self, _ = p.info.Defs[fd.Name].(*types.Func)
					if self != nil {
						decls[self] = fd.Pos()
					}
				}
				ast.Inspect(d, func(n ast.Node) bool {
					id, ok := n.(*ast.Ident)
					if !ok {
						return true
					}
					fn, ok := p.info.Uses[id].(*types.Func)
					switch {
					case !ok || fn.Origin() == self:
					case self == nil:
						roots = append(roots, fn.Origin())
					default:
						calls[self] = append(calls[self], fn.Origin())
					}
					return true
				})
			}
		}
	}

	// The other roots: main, init, methods that implement an interface
	// method, and, after them, the allowlist.
	keyOf := func(fn *types.Func) string {
		recv := fn.Type().(*types.Signature).Recv()
		if recv == nil {
			return fn.Pkg().Path() + "." + fn.Name()
		}
		typ := recv.Type()
		if ptr, ok := typ.(*types.Pointer); ok {
			typ = ptr.Elem()
		}
		return fn.Pkg().Path() + ".(" + typ.(*types.Named).Obj().Name() + ")." + fn.Name()
	}
	var listed []*types.Func
	for fn := range decls {
		if _, ok := callerAllowlist[keyOf(fn)]; ok {
			listed = append(listed, fn)
		}
		method := fn.Type().(*types.Signature).Recv() != nil
		if fn.Name() == "main" || fn.Name() == "init" || method && implementsInterface(fn) {
			roots = append(roots, fn)
		}
	}
	live := map[*types.Func]bool{}
	reach := func(roots []*types.Func) {
		for len(roots) > 0 {
			fn := roots[len(roots)-1]
			roots = roots[:len(roots)-1]
			if !live[fn] {
				live[fn] = true
				roots = append(roots, calls[fn]...)
			}
		}
	}
	reach(roots)
	// An allowlist entry must name a function that exists and that no
	// root reaches without it.
	allowed := map[string]bool{}
	for _, fn := range listed {
		allowed[keyOf(fn)] = !live[fn]
	}
	reach(listed)

	var missing []string
	for fn, pos := range decls {
		if !live[fn] {
			missing = append(missing, fset.Position(pos).String()+": "+keyOf(fn))
		}
	}
	sort.Strings(missing)
	for _, m := range missing {
		t.Errorf("no non-test caller: %s", m)
	}
	for key := range callerAllowlist {
		if !allowed[key] {
			t.Errorf("allowlist entry %s names no function, or one with a non-test caller", key)
		}
	}
}

type importerFunc func(path string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }
