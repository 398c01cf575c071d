package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// GuardField enforces annotated lock/field associations, in the style
// of Clang's thread-safety attributes:
//
//	type Router struct {
//		mu    sync.Mutex
//		moves int //sglint:guard mu
//	}
//
// Every access to a guarded field must happen with the named sibling
// mutex held — the write side for writes, either side for reads — or
// go through sync/atomic. The variant `//sglint:guard <mutex> writes`
// guards only writes, for fields with a documented quiescent-read
// contract (compute reads adjacency lists only while no updater runs).
//
// Functions can declare a lock precondition instead of acquiring:
//
//	//sglint:locked mu
//	func (r *Router) countMoveLocked() { ... }
//
// The body is then checked as if the receiver's mutex were held (read
// side), and every call site must actually hold it.
//
// Construction is exempt: accesses whose base variable's reaching
// definition is a fresh composite literal (s := &Store{...}) happen
// before the value is shared.
var GuardField = &Analyzer{
	Name: "guardfield",
	Doc:  "fields annotated //sglint:guard <mutex> are only accessed with that mutex held or via sync/atomic",
	Run:  runGuardField,
}

// guardInfo is one parsed //sglint:guard annotation.
type guardInfo struct {
	mu         *types.Var
	muName     string
	writesOnly bool
}

// lockedInfo is one parsed //sglint:locked annotation.
type lockedInfo struct {
	mu     *types.Var
	muName string
}

func runGuardField(prog *Program, report Reporter) {
	guards := collectGuards(prog, report)
	locked := collectLockedFuncs(prog, report)
	if len(guards) == 0 && len(locked) == 0 {
		return
	}
	for _, pkg := range prog.Packages {
		for _, file := range pkg.Files {
			for _, decl := range file.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				checkGuardedBody(prog, pkg, fd, guards, locked, report)
			}
		}
	}
}

// collectGuards parses every //sglint:guard field annotation in the
// module, reporting malformed ones. The named mutex must be a sibling
// field of type sync.Mutex or sync.RWMutex.
func collectGuards(prog *Program, report Reporter) map[*types.Var]*guardInfo {
	guards := make(map[*types.Var]*guardInfo)
	for _, pkg := range prog.Packages {
		for _, file := range pkg.Files {
			ast.Inspect(file, func(n ast.Node) bool {
				st, ok := n.(*ast.StructType)
				if !ok || st.Fields == nil {
					return true
				}
				var strct *types.Struct
				if tv, ok := pkg.Info.Types[st]; ok {
					strct, _ = tv.Type.(*types.Struct)
				}
				for _, field := range st.Fields.List {
					payload, comment := directivePayload([]*ast.CommentGroup{field.Doc, field.Comment}, "guard")
					if comment == nil {
						continue
					}
					parts := strings.Fields(payload)
					switch {
					case strct == nil:
						continue
					case len(parts) == 0:
						report(comment.Pos(), "//sglint:guard needs a mutex field name: //sglint:guard <mutex> [writes]")
						continue
					case len(parts) > 2 || (len(parts) == 2 && parts[1] != "writes"):
						report(comment.Pos(), "unrecognized //sglint:guard option %q: only \"writes\" is supported", strings.Join(parts[1:], " "))
						continue
					case len(field.Names) == 0:
						report(comment.Pos(), "//sglint:guard cannot annotate an embedded field; name the field")
						continue
					}
					mu := structFieldNamed(strct, parts[0])
					if mu == nil {
						report(comment.Pos(), "//sglint:guard names unknown sibling field %q", parts[0])
						continue
					}
					if !isSyncLocker(mu.Type()) {
						report(comment.Pos(), "field %q named by //sglint:guard is not a sync.Mutex or sync.RWMutex", parts[0])
						continue
					}
					gi := &guardInfo{mu: mu, muName: parts[0], writesOnly: len(parts) == 2}
					for _, name := range field.Names {
						if v, ok := pkg.Info.Defs[name].(*types.Var); ok {
							guards[v] = gi
						}
					}
				}
				return true
			})
		}
	}
	return guards
}

// collectLockedFuncs parses every //sglint:locked method annotation.
// report may be nil when a sibling analyzer only needs the map and the
// grammar diagnostics are already guardfield's job.
func collectLockedFuncs(prog *Program, report Reporter) map[*types.Func]*lockedInfo {
	locked := make(map[*types.Func]*lockedInfo)
	complain := func(pos token.Pos, format string, args ...any) {
		if report != nil {
			report(pos, format, args...)
		}
	}
	for f, node := range prog.funcDecls {
		payload, comment := directivePayload([]*ast.CommentGroup{node.decl.Doc}, "locked")
		if comment == nil {
			continue
		}
		parts := strings.Fields(payload)
		if len(parts) != 1 {
			complain(comment.Pos(), "//sglint:locked needs exactly one mutex field name")
			continue
		}
		recv := f.Type().(*types.Signature).Recv()
		if recv == nil {
			complain(comment.Pos(), "//sglint:locked only applies to methods (the mutex is a receiver field)")
			continue
		}
		named := namedOf(recv.Type())
		var strct *types.Struct
		if named != nil {
			strct, _ = named.Underlying().(*types.Struct)
		}
		var mu *types.Var
		if strct != nil {
			mu = structFieldNamed(strct, parts[0])
		}
		if mu == nil || !isSyncLocker(mu.Type()) {
			complain(comment.Pos(), "//sglint:locked names %q, which is not a sync.Mutex/RWMutex field of the receiver", parts[0])
			continue
		}
		locked[f] = &lockedInfo{mu: mu, muName: parts[0]}
	}
	return locked
}

// structFieldNamed returns the field of strct with the given name.
func structFieldNamed(strct *types.Struct, name string) *types.Var {
	for i := 0; i < strct.NumFields(); i++ {
		if strct.Field(i).Name() == name {
			return strct.Field(i)
		}
	}
	return nil
}

// lockedSeed builds the held-locks seed for a function annotated
// //sglint:locked: the receiver's mutex, read side, keyed on the
// receiver name.
func lockedSeed(pkg *Package, fd *ast.FuncDecl, locked map[*types.Func]*lockedInfo) []heldEntry {
	f, _ := pkg.Info.Defs[fd.Name].(*types.Func)
	li := locked[f]
	if li == nil || fd.Recv == nil || len(fd.Recv.List) == 0 || len(fd.Recv.List[0].Names) == 0 {
		return nil
	}
	recvName := fd.Recv.List[0].Names[0].Name
	return []heldEntry{{class: li.mu, key: recvName + "." + li.muName, index: -1, read: true}}
}

// checkGuardedBody walks one function enforcing guarded-field access
// and //sglint:locked call preconditions.
func checkGuardedBody(prog *Program, pkg *Package, fd *ast.FuncDecl, guards map[*types.Var]*guardInfo, locked map[*types.Func]*lockedInfo, report Reporter) {
	defs := collectDefs(pkg, fd.Body)
	walkWithHeld(pkg, fd.Body, lockedSeed(pkg, fd, locked), func(n ast.Node, held []heldEntry, stack []ast.Node) bool {
		switch n := n.(type) {
		case *ast.CallExpr:
			checkLockedCall(pkg, n, held, locked, report)
		case *ast.SelectorExpr:
			checkGuardedAccess(pkg, n, held, stack, defs, guards, report)
		}
		return true
	})
}

// checkLockedCall verifies a call to a //sglint:locked method holds
// the receiver's mutex.
func checkLockedCall(pkg *Package, call *ast.CallExpr, held []heldEntry, locked map[*types.Func]*lockedInfo, report Reporter) {
	callee := calleeFunc(pkg.Info, call)
	if callee == nil {
		return
	}
	li := locked[callee]
	if li == nil {
		return
	}
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return
	}
	key := types.ExprString(sel.X) + "." + li.muName
	if holdsAny(held, li.mu, key) {
		return
	}
	report(call.Pos(), "call to %s without %s held: the method is //sglint:locked %s",
		callee.Name(), key, li.muName)
}

// checkGuardedAccess verifies one selector naming a guarded field.
func checkGuardedAccess(pkg *Package, sel *ast.SelectorExpr, held []heldEntry, stack []ast.Node, defs *funcDefs, guards map[*types.Var]*guardInfo, report Reporter) {
	f := selectedField(pkg.Info, sel)
	if f == nil {
		return
	}
	gi := guards[f]
	if gi == nil {
		return
	}
	if isAtomicAddressArg(pkg, sel, stack) {
		return
	}
	// Construction-time accesses on a freshly built value are private
	// to this goroutine.
	if base, _ := baseIdent(sel.X); base != nil {
		if v, ok := pkg.Info.Uses[base].(*types.Var); ok && defs.isFreshComposite(v, sel.Pos()) {
			return
		}
	}
	key := types.ExprString(sel.X) + "." + gi.muName
	owner := ownerName(f)
	write := isWriteTarget(sel, stack, pkg)
	switch {
	case write && holdsWrite(held, gi.mu, key):
	case write && holdsAny(held, gi.mu, key):
		report(sel.Pos(), "write to %s.%s while holding only the read side of %s: guarded writes need the write lock",
			owner, f.Name(), key)
	case write:
		report(sel.Pos(), "write to %s.%s without %s held: the field is //sglint:guard %s",
			owner, f.Name(), key, gi.muName)
	case gi.writesOnly:
	case holdsAny(held, gi.mu, key):
	default:
		report(sel.Pos(), "read of %s.%s without %s held: the field is //sglint:guard %s (RLock suffices for reads)",
			owner, f.Name(), key, gi.muName)
	}
}

// isAtomicAddressArg reports whether sel appears as &sel passed
// directly to a sync/atomic call — the sanctioned lock-free access.
func isAtomicAddressArg(pkg *Package, sel *ast.SelectorExpr, stack []ast.Node) bool {
	if !isAddressOperand(sel, stack) || len(stack) < 2 {
		return false
	}
	call, ok := stack[len(stack)-2].(*ast.CallExpr)
	if !ok {
		return false
	}
	callee := calleeFunc(pkg.Info, call)
	return callee != nil && callee.Pkg() != nil && callee.Pkg().Path() == "sync/atomic"
}

// isWriteTarget reports whether sel is written: on the lvalue spine of
// an assignment or inc/dec, the target of builtin copy, or
// address-taken outside a sync/atomic argument (the pointer escapes
// the guard, so treat it as a write).
func isWriteTarget(sel *ast.SelectorExpr, stack []ast.Node, pkg *Package) bool {
	if isAddressOperand(sel, stack) {
		return true
	}
	for i := len(stack) - 1; i >= 0; i-- {
		switch st := stack[i].(type) {
		case *ast.AssignStmt:
			for _, lhs := range st.Lhs {
				if lvalueSpineContains(lhs, sel) {
					return true
				}
			}
			return false
		case *ast.IncDecStmt:
			return lvalueSpineContains(st.X, sel)
		case *ast.CallExpr:
			if bi, ok := pkg.Info.Uses[identOf(st.Fun)].(*types.Builtin); ok && bi.Name() == "copy" {
				if len(st.Args) > 0 && lvalueSpineContains(st.Args[0], sel) {
					return true
				}
			}
		case *ast.FuncLit, *ast.FuncDecl:
			return false
		}
	}
	return false
}

// lvalueSpineContains reports whether target sits on the spine of
// lvalue expr lhs: the chain of selector/index/deref/slice links from
// the base identifier outward. An expression nested in an index or
// call argument is not on the spine.
func lvalueSpineContains(lhs ast.Expr, target ast.Expr) bool {
	for {
		lhs = ast.Unparen(lhs)
		if lhs == target {
			return true
		}
		switch e := lhs.(type) {
		case *ast.SelectorExpr:
			lhs = e.X
		case *ast.IndexExpr:
			lhs = e.X
		case *ast.StarExpr:
			lhs = e.X
		case *ast.SliceExpr:
			lhs = e.X
		default:
			return false
		}
	}
}

// identOf returns expr as a bare identifier, or nil.
func identOf(expr ast.Expr) *ast.Ident {
	id, _ := ast.Unparen(expr).(*ast.Ident)
	return id
}
