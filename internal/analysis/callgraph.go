package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// This file builds the module-wide call graph the interprocedural
// analyzers (lockgraph, publishsafety) walk: one node per function
// declaration and per function literal, edges resolved through the
// type-checker — static calls by object identity, method calls through
// go/types.Selections, and interface-method calls fanned out to every
// module type implementing the interface (a may-analysis: the real
// callee is one of them). Standard-library callees have no bodies in the
// load and are simply absent, which is the right conservative shape for
// lock analysis: the stdlib does not touch this module's locks.

// funcNode is one analyzable function body: a declaration or a literal.
type funcNode struct {
	obj  *types.Func   // nil for literals
	decl *ast.FuncDecl // nil for literals
	lit  *ast.FuncLit  // nil for declarations
	pkg  *Package
	// parent is the enclosing funcNode of a literal (nil for decls):
	// the lexical chain publishsafety uses to scope engine methods.
	parent *funcNode
	// name is the diagnostic-friendly label: "core.(*ConcurrentFile).putSlow",
	// "core.(*ConcurrentFile).PutBatchSpan$1" for literals.
	name string

	// sum is the function's lock summary, filled by the lockflow engine.
	sum *funcSummary
}

func (n *funcNode) pos() token.Pos {
	if n.decl != nil {
		return n.decl.Pos()
	}
	return n.lit.Pos()
}

func (n *funcNode) body() *ast.BlockStmt {
	if n.decl != nil {
		return n.decl.Body
	}
	return n.lit.Body
}

// receiverNamed returns the named type of the node's method receiver
// (through one pointer), or nil for plain functions and literals.
func (n *funcNode) receiverNamed() *types.Named {
	if n.obj == nil {
		return nil
	}
	sig, ok := n.obj.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return nil
	}
	return namedOf(sig.Recv().Type())
}

// callGraph indexes every function body of a load and resolves call
// expressions to candidate callees.
type callGraph struct {
	nodes []*funcNode
	byObj map[*types.Func]*funcNode
	byLit map[*ast.FuncLit]*funcNode
	// impls caches interface-method resolution: interface method object
	// -> concrete method objects of module types implementing it.
	impls map[*types.Func][]*types.Func
	// namedTypes are every named (non-alias) type declared in the module,
	// the candidate set for interface resolution.
	namedTypes []*types.Named
}

// buildCallGraph collects every function declaration and literal of the
// load into nodes, in deterministic (package, position) order.
func buildCallGraph(pkgs []*Package) *callGraph {
	g := &callGraph{
		byObj: make(map[*types.Func]*funcNode),
		byLit: make(map[*ast.FuncLit]*funcNode),
		impls: make(map[*types.Func][]*types.Func),
	}
	for _, pkg := range pkgs {
		scope := pkg.Types.Scope()
		names := scope.Names()
		sort.Strings(names)
		for _, name := range names {
			if tn, ok := scope.Lookup(name).(*types.TypeName); ok && !tn.IsAlias() {
				if n, ok := tn.Type().(*types.Named); ok {
					g.namedTypes = append(g.namedTypes, n)
				}
			}
		}
		for _, file := range pkg.Files {
			for _, decl := range file.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				obj, _ := pkg.Info.Defs[fd.Name].(*types.Func)
				node := &funcNode{
					obj:  obj,
					decl: fd,
					pkg:  pkg,
					name: declName(pkg, fd),
				}
				g.nodes = append(g.nodes, node)
				if obj != nil {
					g.byObj[obj] = node
				}
				g.collectLits(pkg, node, fd.Body)
			}
		}
	}
	return g
}

// collectLits registers every function literal under body as a child
// node of parent, numbered in source order.
func (g *callGraph) collectLits(pkg *Package, parent *funcNode, body ast.Node) {
	seq := 0
	var walk func(n ast.Node, p *funcNode)
	walk = func(n ast.Node, p *funcNode) {
		ast.Inspect(n, func(x ast.Node) bool {
			lit, ok := x.(*ast.FuncLit)
			if !ok || x == n {
				return true
			}
			seq++
			node := &funcNode{
				lit:    lit,
				pkg:    pkg,
				parent: p,
				name:   fmt.Sprintf("%s$%d", p.name, seq),
			}
			g.nodes = append(g.nodes, node)
			g.byLit[lit] = node
			walk(lit.Body, node)
			return false
		})
	}
	walk(body, parent)
}

// declName renders "pkg.Func" / "pkg.(*Recv).Method" for diagnostics.
func declName(pkg *Package, fd *ast.FuncDecl) string {
	name := fd.Name.Name
	if fd.Recv != nil && len(fd.Recv.List) > 0 {
		t := fd.Recv.List[0].Type
		recv := ""
		switch x := t.(type) {
		case *ast.StarExpr:
			recv = "(*" + typeExprName(x.X) + ")"
		default:
			recv = typeExprName(t)
		}
		name = recv + "." + name
	}
	return pkg.Types.Name() + "." + name
}

func typeExprName(e ast.Expr) string {
	switch x := e.(type) {
	case *ast.Ident:
		return x.Name
	case *ast.IndexExpr: // generic receiver
		return typeExprName(x.X)
	case *ast.IndexListExpr:
		return typeExprName(x.X)
	default:
		return "?"
	}
}

// resolve returns the candidate callee nodes of a call expression in
// pkg, in deterministic order. Unresolvable calls (func-typed variables,
// stdlib callees, builtins, conversions) return nil.
func (g *callGraph) resolve(pkg *Package, call *ast.CallExpr) []*funcNode {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.FuncLit:
		if n := g.byLit[fun]; n != nil {
			return []*funcNode{n}
		}
	case *ast.Ident:
		if f, ok := pkg.Info.Uses[fun].(*types.Func); ok {
			if n := g.byObj[f]; n != nil {
				return []*funcNode{n}
			}
		}
	case *ast.SelectorExpr:
		if sel, ok := pkg.Info.Selections[fun]; ok && sel.Kind() == types.MethodVal {
			m, ok := sel.Obj().(*types.Func)
			if !ok {
				return nil
			}
			if isInterfaceMethod(m) {
				return g.resolveInterface(m)
			}
			if n := g.byObj[m]; n != nil {
				return []*funcNode{n}
			}
			return nil
		}
		// Package-qualified function call.
		if f, ok := pkg.Info.Uses[fun.Sel].(*types.Func); ok {
			if n := g.byObj[f]; n != nil {
				return []*funcNode{n}
			}
		}
	}
	return nil
}

func isInterfaceMethod(f *types.Func) bool {
	sig, ok := f.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return false
	}
	return types.IsInterface(sig.Recv().Type())
}

// resolveInterface fans an interface-method call out to the concrete
// method of every module type implementing the interface.
func (g *callGraph) resolveInterface(m *types.Func) []*funcNode {
	concrete, ok := g.impls[m]
	if !ok {
		sig := m.Type().(*types.Signature)
		iface, _ := sig.Recv().Type().Underlying().(*types.Interface)
		if iface != nil {
			for _, n := range g.namedTypes {
				if types.IsInterface(n.Underlying()) {
					continue
				}
				ptr := types.NewPointer(n)
				if !types.Implements(n, iface) && !types.Implements(ptr, iface) {
					continue
				}
				obj, _, _ := types.LookupFieldOrMethod(ptr, true, m.Pkg(), m.Name())
				if cf, ok := obj.(*types.Func); ok && cf != m {
					concrete = append(concrete, cf)
				}
			}
		}
		sort.Slice(concrete, func(i, j int) bool {
			return concrete[i].FullName() < concrete[j].FullName()
		})
		g.impls[m] = concrete
	}
	var out []*funcNode
	for _, cf := range concrete {
		if n := g.byObj[cf]; n != nil {
			out = append(out, n)
		}
	}
	return out
}

// sccOrder returns the nodes grouped into strongly connected components
// in reverse topological order (callees before callers), so one
// bottom-up pass over the groups — iterating inside each group to a
// fixed point — stabilizes every summary. Tarjan's algorithm, iterative
// over the static call edges.
func (g *callGraph) sccOrder(edges map[*funcNode][]*funcNode) [][]*funcNode {
	index := make(map[*funcNode]int)
	low := make(map[*funcNode]int)
	onStack := make(map[*funcNode]bool)
	var stack []*funcNode
	var sccs [][]*funcNode
	next := 0

	type frame struct {
		n  *funcNode
		ei int
	}
	for _, root := range g.nodes {
		if _, seen := index[root]; seen {
			continue
		}
		work := []frame{{n: root}}
		for len(work) > 0 {
			f := &work[len(work)-1]
			n := f.n
			if f.ei == 0 {
				index[n] = next
				low[n] = next
				next++
				stack = append(stack, n)
				onStack[n] = true
			}
			advanced := false
			for f.ei < len(edges[n]) {
				m := edges[n][f.ei]
				f.ei++
				if _, seen := index[m]; !seen {
					work = append(work, frame{n: m})
					advanced = true
					break
				}
				if onStack[m] && low[m] < low[n] {
					low[n] = low[m]
				}
			}
			if advanced {
				continue
			}
			if low[n] == index[n] {
				var scc []*funcNode
				for {
					m := stack[len(stack)-1]
					stack = stack[:len(stack)-1]
					onStack[m] = false
					scc = append(scc, m)
					if m == n {
						break
					}
				}
				sccs = append(sccs, scc)
			}
			work = work[:len(work)-1]
			if len(work) > 0 {
				p := work[len(work)-1].n
				if low[n] < low[p] {
					low[p] = low[n]
				}
			}
		}
	}
	return sccs
}

// nodeLabel shortens a node name for witness paths ("core.(*ConcurrentFile).putSlow").
func nodeLabel(n *funcNode) string {
	return strings.TrimPrefix(n.name, "main.")
}
