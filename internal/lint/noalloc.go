package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// noAllocMarker is the annotation contract: a function whose doc comment
// group contains this directive promises zero heap allocations per call in
// steady state. The static check below enforces the promise structurally;
// `make lint-alloc` (cmd/mpclint -alloccheck) cross-checks it against the
// compiler's own escape analysis so the analyzer and gc agree.
const noAllocMarker = "mpc:noalloc"

// NoAlloc enforces the //mpc:noalloc contract on the solver/lookup hot
// paths (core.Optimizer.Plan/PlanScratch/search/seedIncumbent, the Eq. 3/4
// buffer step model.Step that search inlines, the fastmpc bin mappers and
// table lookups, the abrsvc decide lookup path). Inside an annotated
// function it flags the constructs that force heap allocation or defeat
// escape analysis:
//
//   - make/new builtins and append
//   - slice/map composite literals and &composite (escaping candidates)
//   - function literals (closure environment capture)
//   - string concatenation and string<->[]byte/[]rune conversions
//   - fmt.* calls (variadic ...any boxes every argument)
//   - passing a non-pointer concrete value where an interface is expected
//     (interface boxing; pointers store directly in the iface data word)
//
// The check is intraprocedural: calls to other functions are not followed,
// which is exactly why the -alloccheck compiler cross-check exists. Cold
// paths that intentionally allocate (pool refill, lazy growth) belong in
// separate un-annotated functions, not under a //lint:allow.
var NoAlloc = &Analyzer{
	Name: "noalloc",
	Doc:  "functions annotated //mpc:noalloc must avoid allocation-inducing constructs",
	Run:  runNoAlloc,
}

// NoAllocFunc locates one annotated function for the escape-analysis
// cross-check: any compiler "escapes to heap"/"moved to heap" message
// positioned within [StartLine, EndLine] of File is a contract violation.
type NoAllocFunc struct {
	Name      string // package-qualified, e.g. "core.(*Optimizer).PlanScratch"
	File      string
	StartLine int
	EndLine   int
}

// NoAllocInventory lists every //mpc:noalloc function in pkgs, sorted by
// file then start line.
func NoAllocInventory(pkgs []*Package) []NoAllocFunc {
	var out []NoAllocFunc
	for _, pkg := range pkgs {
		for _, f := range pkg.Files {
			for _, decl := range f.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || !hasNoAllocMarker(fd) {
					continue
				}
				start := pkg.Fset.Position(fd.Pos())
				end := pkg.Fset.Position(fd.End())
				out = append(out, NoAllocFunc{
					Name:      pkg.Name + "." + funcDisplayName(fd),
					File:      start.Filename,
					StartLine: start.Line,
					EndLine:   end.Line,
				})
			}
		}
	}
	for i := 1; i < len(out); i++ {
		for j := i; j > 0 && noAllocLess(out[j], out[j-1]); j-- {
			out[j], out[j-1] = out[j-1], out[j]
		}
	}
	return out
}

func noAllocLess(a, b NoAllocFunc) bool {
	if a.File != b.File {
		return a.File < b.File
	}
	return a.StartLine < b.StartLine
}

func funcDisplayName(fd *ast.FuncDecl) string {
	if fd.Recv == nil || len(fd.Recv.List) == 0 {
		return fd.Name.Name
	}
	recv := fd.Recv.List[0].Type
	star := ""
	if se, ok := recv.(*ast.StarExpr); ok {
		star, recv = "*", se.X
	}
	if id, ok := recv.(*ast.Ident); ok {
		return "(" + star + id.Name + ")." + fd.Name.Name
	}
	return fd.Name.Name
}

func hasNoAllocMarker(fd *ast.FuncDecl) bool {
	if fd.Doc == nil {
		return false
	}
	for _, c := range fd.Doc.List {
		if strings.HasPrefix(strings.TrimPrefix(c.Text, "//"), noAllocMarker) {
			return true
		}
	}
	return false
}

func runNoAlloc(p *Pass) {
	for _, f := range p.Pkg.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || !hasNoAllocMarker(fd) {
				continue
			}
			if fd.Body == nil {
				continue
			}
			checkNoAllocBody(p, fd)
		}
	}
}

func checkNoAllocBody(p *Pass, fd *ast.FuncDecl) {
	info := p.Pkg.Info
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			p.Reportf(n.Pos(), "closure literal in //mpc:noalloc function %s: the environment capture allocates; inline the logic or hoist state into a scratch struct", fd.Name.Name)
			return false
		case *ast.CompositeLit:
			t := info.TypeOf(n)
			if t == nil {
				return true
			}
			switch t.Underlying().(type) {
			case *types.Slice:
				p.Reportf(n.Pos(), "slice literal in //mpc:noalloc function %s allocates its backing array; reuse a scratch buffer", fd.Name.Name)
			case *types.Map:
				p.Reportf(n.Pos(), "map literal in //mpc:noalloc function %s allocates; hoist it to a package-level table", fd.Name.Name)
			}
		case *ast.UnaryExpr:
			if n.Op == token.AND {
				if _, isLit := n.X.(*ast.CompositeLit); isLit {
					p.Reportf(n.Pos(), "&composite literal in //mpc:noalloc function %s is an escape candidate; use a value or a caller-provided pointer", fd.Name.Name)
				}
			}
		case *ast.BinaryExpr:
			if n.Op == token.ADD && isString(info.TypeOf(n.X)) {
				p.Reportf(n.Pos(), "string concatenation in //mpc:noalloc function %s allocates", fd.Name.Name)
			}
		case *ast.AssignStmt:
			if n.Tok == token.ADD_ASSIGN && len(n.Lhs) == 1 && isString(info.TypeOf(n.Lhs[0])) {
				p.Reportf(n.Pos(), "string += in //mpc:noalloc function %s allocates", fd.Name.Name)
			}
		case *ast.CallExpr:
			checkNoAllocCall(p, fd, n)
		}
		return true
	})
}

func checkNoAllocCall(p *Pass, fd *ast.FuncDecl, call *ast.CallExpr) {
	info := p.Pkg.Info
	// Builtins: make, new, append.
	if id, ok := call.Fun.(*ast.Ident); ok {
		if b, isBuiltin := info.Uses[id].(*types.Builtin); isBuiltin {
			switch b.Name() {
			case "make", "new", "append":
				p.Reportf(call.Pos(), "%s in //mpc:noalloc function %s allocates; move growth to an un-annotated cold path", b.Name(), fd.Name.Name)
			}
			return
		}
	}
	// Conversions: string([]byte), []byte(string), []rune(string), string([]rune).
	if tv, ok := info.Types[call.Fun]; ok && tv.IsType() && len(call.Args) == 1 {
		to, from := info.TypeOf(call.Fun), info.TypeOf(call.Args[0])
		if isStringBytesConversion(to, from) {
			p.Reportf(call.Pos(), "string/[]byte conversion in //mpc:noalloc function %s copies and allocates", fd.Name.Name)
		}
		return
	}
	// fmt.* anywhere on the hot path boxes arguments and allocates.
	if sel, ok := call.Fun.(*ast.SelectorExpr); ok {
		if path, isPkg := importedPackage(info, sel.X); isPkg && path == "fmt" {
			p.Reportf(call.Pos(), "fmt.%s in //mpc:noalloc function %s allocates (variadic ...any boxing)", sel.Sel.Name, fd.Name.Name)
			return
		}
	}
	// Interface boxing at the call site: a non-pointer concrete argument
	// passed to an interface-typed parameter must be heap-boxed.
	sig, ok := info.TypeOf(call.Fun).(*types.Signature)
	if !ok {
		return
	}
	params := sig.Params()
	for i, arg := range call.Args {
		var pt types.Type
		switch {
		case sig.Variadic() && i >= params.Len()-1 && call.Ellipsis == token.NoPos:
			pt = params.At(params.Len() - 1).Type().Underlying().(*types.Slice).Elem()
		case i < params.Len():
			pt = params.At(i).Type()
		default:
			continue
		}
		if !types.IsInterface(pt.Underlying()) {
			continue
		}
		at := info.TypeOf(arg)
		if at == nil || types.IsInterface(at.Underlying()) {
			continue // interface-to-interface copies, no box
		}
		if _, isPtr := at.Underlying().(*types.Pointer); isPtr {
			continue // pointers store directly in the iface data word
		}
		if b, isBasic := at.Underlying().(*types.Basic); isBasic && b.Kind() == types.UntypedNil {
			continue
		}
		p.Reportf(arg.Pos(), "non-pointer value boxed into interface in //mpc:noalloc function %s; pass a pointer or avoid the interface", fd.Name.Name)
	}
}

func isString(t types.Type) bool {
	if t == nil {
		return false
	}
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsString != 0
}

func isStringBytesConversion(to, from types.Type) bool {
	return (isString(to) && isByteOrRuneSlice(from)) || (isByteOrRuneSlice(to) && isString(from))
}

func isByteOrRuneSlice(t types.Type) bool {
	if t == nil {
		return false
	}
	s, ok := t.Underlying().(*types.Slice)
	if !ok {
		return false
	}
	b, ok := s.Elem().Underlying().(*types.Basic)
	return ok && (b.Kind() == types.Uint8 || b.Kind() == types.Int32)
}
