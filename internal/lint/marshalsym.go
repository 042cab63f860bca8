package lint

import (
	"go/ast"
	"go/types"
	"strings"
)

// MarshalSym checks that every MarshalBinary/UnmarshalBinary pair
// moves the same data. The repo's state blobs (Generator, Parallel,
// Pool, the baselines) evolve by appending fields behind version
// tags; the recurring bug class — PR 2 shipped one — is adding a
// field to the encoder and forgetting the decoder (or the version
// bump), which corrupts every field that follows it on resume.
//
// The check is a width-budget comparison, not a field-by-field
// simulation: for each codec width (2-, 4- and 8-byte little-endian
// operations) it computes how many operations each side performs at
// minimum (unconditional ops only) and at maximum (ops under
// if/switch count once, ops in loops count as unbounded), inlining
// same-package helper calls and local closures like put32/put64 at
// their call sites. A pair is reported when one side's guaranteed
// traffic exceeds the other side's possible traffic at some width:
// encode-min > decode-max (a field the decoder can never consume) or
// decode-min > encode-max (the decoder demands bytes the encoder
// never produces). Version-guarded asymmetry is legal by
// construction — a decode behind `if version >= 2` contributes to
// the maximum, not the minimum.
var MarshalSym = &Analyzer{
	Name: "marshalsym",
	Doc: "MarshalBinary and UnmarshalBinary must move the same fields in the same order, " +
		"with version tags guarding any asymmetry",
	Run: runMarshalSym,
}

// widths indexes the op-count arrays: 2-, 4- and 8-byte operations.
var widths = [3]int{2, 4, 8}

// msUnbounded caps the max counters ("a loop ran this op").
const msUnbounded = 1 << 30

// opCounts tallies a function body's codec traffic per width.
type opCounts struct {
	encMin, encMax [3]int
	decMin, decMax [3]int
}

func (c *opCounts) add(o *opCounts, cond, loop bool) {
	for w := range widths {
		switch {
		case loop:
			if o.encMax[w] > 0 {
				c.encMax[w] = msUnbounded
			}
			if o.decMax[w] > 0 {
				c.decMax[w] = msUnbounded
			}
		case cond:
			c.encMax[w] = satAdd(c.encMax[w], o.encMax[w])
			c.decMax[w] = satAdd(c.decMax[w], o.decMax[w])
		default:
			c.encMin[w] = satAdd(c.encMin[w], o.encMin[w])
			c.encMax[w] = satAdd(c.encMax[w], o.encMax[w])
			c.decMin[w] = satAdd(c.decMin[w], o.decMin[w])
			c.decMax[w] = satAdd(c.decMax[w], o.decMax[w])
		}
	}
}

func satAdd(a, b int) int {
	if s := a + b; s < msUnbounded {
		return s
	}
	return msUnbounded
}

func runMarshalSym(pass *Pass) error {
	ms := &marshalSym{
		pass:  pass,
		decls: make(map[types.Object]*ast.FuncDecl),
		memo:  make(map[*ast.FuncDecl]*opCounts),
	}
	for _, fd := range funcDecls(pass.Files) {
		if fd.Body != nil && !isTestFile(pass.Fset, fd.Pos()) {
			if obj := pass.Info.Defs[fd.Name]; obj != nil {
				ms.decls[obj] = fd
			}
		}
	}
	scope := pass.Pkg.Scope()
	for _, name := range scope.Names() {
		tn, ok := scope.Lookup(name).(*types.TypeName)
		if !ok {
			continue
		}
		named, ok := tn.Type().(*types.Named)
		if !ok {
			continue
		}
		ms.checkPair(named)
	}
	return nil
}

type marshalSym struct {
	pass  *Pass
	decls map[types.Object]*ast.FuncDecl
	memo  map[*ast.FuncDecl]*opCounts
}

func (ms *marshalSym) checkPair(named *types.Named) {
	enc := ms.methodDecl(named, "MarshalBinary")
	dec := ms.methodDecl(named, "UnmarshalBinary")
	if enc == nil || dec == nil {
		return
	}
	e := ms.countFunc(enc)
	d := ms.countFunc(dec)
	for w, width := range widths {
		if e.encMin[w] > d.decMax[w] {
			ms.pass.Reportf(enc.Pos(),
				"%s.MarshalBinary always writes %d %d-byte values but UnmarshalBinary consumes at most %s; the decoder misses a field — read it back, or gate the new field behind a version tag",
				named.Obj().Name(), e.encMin[w], width, boundStr(d.decMax[w]))
		}
		if d.decMin[w] > e.encMax[w] {
			ms.pass.Reportf(dec.Pos(),
				"%s.UnmarshalBinary always reads %d %d-byte values but MarshalBinary writes at most %s; the decoder demands bytes the encoder never produces",
				named.Obj().Name(), d.decMin[w], width, boundStr(e.encMax[w]))
		}
	}
}

func boundStr(n int) string {
	if n >= msUnbounded {
		return "unbounded"
	}
	if n == 1 {
		return "1"
	}
	return itoa(n)
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var b [20]byte
	i := len(b)
	for n > 0 {
		i--
		b[i] = byte('0' + n%10)
		n /= 10
	}
	return string(b[i:])
}

// methodDecl finds the FuncDecl for named's method, searching the
// pointer method set so value- and pointer-receiver pairs both
// resolve.
func (ms *marshalSym) methodDecl(named *types.Named, name string) *ast.FuncDecl {
	mset := types.NewMethodSet(types.NewPointer(named))
	for i := 0; i < mset.Len(); i++ {
		fn := mset.At(i).Obj()
		if fn.Name() == name && fn.Pkg() == ms.pass.Pkg {
			return ms.decls[fn]
		}
	}
	return nil
}

// countFunc computes fd's codec traffic, memoized. A cycle (direct
// or mutual recursion) yields zero counts for the back edge, which
// only ever under-counts minimums — safe, never a false positive.
func (ms *marshalSym) countFunc(fd *ast.FuncDecl) *opCounts {
	if c, ok := ms.memo[fd]; ok {
		if c == nil {
			return &opCounts{} // in progress: break the cycle
		}
		return c
	}
	ms.memo[fd] = nil
	c := &opCounts{}
	closures := collectClosures(ms.pass, fd.Body)
	ms.countStmts(c, fd.Body.List, closures, false, false)
	ms.memo[fd] = c
	return c
}

// collectClosures maps local variables bound to function literals
// (put32 := func(...) {...}) to their bodies, so calls through them
// inline.
func collectClosures(pass *Pass, body *ast.BlockStmt) map[types.Object]*ast.FuncLit {
	out := make(map[types.Object]*ast.FuncLit)
	ast.Inspect(body, func(n ast.Node) bool {
		as, ok := n.(*ast.AssignStmt)
		if !ok {
			return true
		}
		for i, rhs := range as.Rhs {
			lit, ok := rhs.(*ast.FuncLit)
			if !ok || i >= len(as.Lhs) {
				continue
			}
			if id, ok := as.Lhs[i].(*ast.Ident); ok {
				if obj := pass.Info.Defs[id]; obj != nil {
					out[obj] = lit
				} else if obj := pass.Info.Uses[id]; obj != nil {
					out[obj] = lit
				}
			}
		}
		return true
	})
	return out
}

// countStmts walks statements accumulating codec ops into c. cond
// marks if/switch arms (runs at most once), loop marks loop bodies
// (runs any number of times).
func (ms *marshalSym) countStmts(c *opCounts, stmts []ast.Stmt, closures map[types.Object]*ast.FuncLit, cond, loop bool) {
	for _, s := range stmts {
		ms.countStmt(c, s, closures, cond, loop)
	}
}

func (ms *marshalSym) countStmt(c *opCounts, s ast.Stmt, closures map[types.Object]*ast.FuncLit, cond, loop bool) {
	switch s := s.(type) {
	case nil:
	case *ast.BlockStmt:
		ms.countStmts(c, s.List, closures, cond, loop)
	case *ast.IfStmt:
		ms.countStmt(c, s.Init, closures, cond, loop)
		ms.countExpr(c, s.Cond, closures, cond, loop)
		ms.countStmt(c, s.Body, closures, true, loop)
		ms.countStmt(c, s.Else, closures, true, loop)
	case *ast.SwitchStmt:
		ms.countStmt(c, s.Init, closures, cond, loop)
		ms.countExpr(c, s.Tag, closures, cond, loop)
		for _, cc := range s.Body.List {
			ms.countStmts(c, cc.(*ast.CaseClause).Body, closures, true, loop)
		}
	case *ast.TypeSwitchStmt:
		ms.countStmt(c, s.Init, closures, cond, loop)
		for _, cc := range s.Body.List {
			ms.countStmts(c, cc.(*ast.CaseClause).Body, closures, true, loop)
		}
	case *ast.SelectStmt:
		for _, cc := range s.Body.List {
			ms.countStmts(c, cc.(*ast.CommClause).Body, closures, true, loop)
		}
	case *ast.ForStmt:
		ms.countStmt(c, s.Init, closures, cond, loop)
		ms.countStmt(c, s.Body, closures, cond, true)
	case *ast.RangeStmt:
		ms.countStmt(c, s.Body, closures, cond, true)
	case *ast.LabeledStmt:
		ms.countStmt(c, s.Stmt, closures, cond, loop)
	case *ast.ExprStmt:
		ms.countExpr(c, s.X, closures, cond, loop)
	case *ast.AssignStmt:
		for _, e := range s.Rhs {
			ms.countExpr(c, e, closures, cond, loop)
		}
		for _, e := range s.Lhs {
			ms.countExpr(c, e, closures, cond, loop)
		}
	case *ast.DeclStmt:
		if gd, ok := s.Decl.(*ast.GenDecl); ok {
			for _, spec := range gd.Specs {
				if vs, ok := spec.(*ast.ValueSpec); ok {
					for _, e := range vs.Values {
						ms.countExpr(c, e, closures, cond, loop)
					}
				}
			}
		}
	case *ast.ReturnStmt:
		for _, e := range s.Results {
			ms.countExpr(c, e, closures, cond, loop)
		}
	case *ast.DeferStmt:
		ms.countExpr(c, s.Call, closures, true, loop)
	case *ast.GoStmt:
		ms.countExpr(c, s.Call, closures, cond, loop)
	case *ast.IncDecStmt:
		ms.countExpr(c, s.X, closures, cond, loop)
	case *ast.SendStmt:
		ms.countExpr(c, s.Value, closures, cond, loop)
	}
}

// countExpr finds calls inside e and classifies them. Function
// literals are skipped here — their bodies count at call sites.
func (ms *marshalSym) countExpr(c *opCounts, e ast.Expr, closures map[types.Object]*ast.FuncLit, cond, loop bool) {
	if e == nil {
		return
	}
	ast.Inspect(e, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			return false
		case *ast.CallExpr:
			ms.countCall(c, n, closures, cond, loop)
			// args were visited by countCall; stop the generic walk.
			return false
		}
		return true
	})
}

func (ms *marshalSym) countCall(c *opCounts, call *ast.CallExpr, closures map[types.Object]*ast.FuncLit, cond, loop bool) {
	for _, arg := range call.Args {
		ms.countExpr(c, arg, closures, cond, loop)
	}
	// encoding/binary byte-order methods: PutUintN / AppendUintN
	// encode, UintN decodes. The checkpoint framing package adds
	// AppendBytesN (a length header, then the bytes) on the encode
	// side and its Reader's UintN / BytesN on the decode side.
	if sel, ok := call.Fun.(*ast.SelectorExpr); ok {
		if fn, ok := ms.pass.Info.Uses[sel.Sel].(*types.Func); ok {
			if fn.Pkg() != nil && (fn.Pkg().Path() == "encoding/binary" || fn.Pkg().Path() == "repro/internal/blob") {
				name := fn.Name()
				enc := true
				switch {
				case strings.HasPrefix(name, "PutUint"):
					name = name[len("PutUint"):]
				case strings.HasPrefix(name, "AppendUint"):
					name = name[len("AppendUint"):]
				case strings.HasPrefix(name, "AppendBytes"):
					name = name[len("AppendBytes"):]
				case strings.HasPrefix(name, "Uint"):
					name, enc = name[len("Uint"):], false
				case strings.HasPrefix(name, "Bytes"):
					name, enc = name[len("Bytes"):], false
				default:
					return
				}
				w := -1
				switch name {
				case "16":
					w = 0
				case "32":
					w = 1
				case "64":
					w = 2
				}
				if w < 0 {
					return
				}
				one := &opCounts{}
				if enc {
					one.encMin[w], one.encMax[w] = 1, 1
				} else {
					one.decMin[w], one.decMax[w] = 1, 1
				}
				c.add(one, cond, loop)
				return
			}
			// Same-package function or method: inline its counts.
			if fn.Pkg() == ms.pass.Pkg {
				if fd := ms.decls[fn]; fd != nil {
					c.add(ms.countFunc(fd), cond, loop)
				}
				return
			}
		}
	}
	if id, ok := call.Fun.(*ast.Ident); ok {
		if obj := ms.pass.Info.Uses[id]; obj != nil {
			// Local closure (put32/put64 pattern).
			if lit, ok := closures[obj]; ok {
				sub := &opCounts{}
				ms.countStmts(sub, lit.Body.List, closures, false, false)
				c.add(sub, cond, loop)
				return
			}
			// Same-package top-level function.
			if fn, ok := obj.(*types.Func); ok && fn.Pkg() == ms.pass.Pkg {
				if fd := ms.decls[fn]; fd != nil {
					c.add(ms.countFunc(fd), cond, loop)
				}
			}
		}
	}
}
