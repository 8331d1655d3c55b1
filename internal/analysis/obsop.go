package analysis

import (
	"go/ast"
)

// ObsOp enforces the observability discipline on the public API.
//
// Rule 1: every method that dispatches a data operation to the engine (a
// call through an `eng` field to one of engineOps) must also route
// through the obs timing hook — RecordOp; FinishSpan, which records the
// whole-op sample when it closes the span; or a deferred FinishOp, the
// OpScope helper that does either. The whole point of the observability
// layer is that attaching an Observer covers every operation; a new
// public method that forwards to the engine but skips the hook would
// silently fall out of the latency histograms and make "p99 regressed"
// undiagnosable for exactly the calls that regressed. FinishOp counts
// only deferred: it is how the helper is meant to be used, and an inline
// call misses early returns.
//
// Rule 2 (span tracing): a function that starts an op's instrumentation
// must contain the matching deferred finish — StartSpan a deferred
// FinishSpan, StartOp a deferred FinishOp. Spans are pooled and their
// stage totals are only published at the finish; an undeferred finish
// misses early returns, and a missing finish leaks the span and loses the
// op's samples. The defer may be conditional in the source the way ours
// never is — the analyzer requires the syntactic `defer ...Finish*(...)`
// form somewhere in the function body.
var ObsOp = &Analyzer{
	Name: "obsop",
	Doc:  "public API methods dispatching engine operations must call the obs timing hook (RecordOp/FinishSpan/deferred FinishOp); StartSpan and StartOp require a deferred FinishSpan and FinishOp",
	Run:  runObsOp,
}

// engineOps are the engine methods that correspond to obs.Op samples: the
// span-taking op bodies the public layer dispatches, and the plain
// one-line delegates (span nil) paper-facing callers use.
var engineOps = map[string]bool{
	"GetSpan":      true,
	"PutSpan":      true,
	"DeleteSpan":   true,
	"RangeSpan":    true,
	"GetBatchSpan": true,
	"PutBatchSpan": true,
	"Get":          true,
	"Put":          true,
	"Delete":       true,
	"Range":        true,
	"GetBatch":     true,
	"PutBatch":     true,
}

// engDispatch is one call through an `eng` field to an engine op.
type engDispatch struct {
	call *ast.CallExpr
	name string
}

func runObsOp(pass *Pass) {
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil {
				continue
			}
			var ops []engDispatch                // every eng dispatch, in source order
			starts := map[string]*ast.CallExpr{} // start method -> first call
			deferred := map[string]bool{}        // finish methods deferred
			recorded := false
			ast.Inspect(fn.Body, func(n ast.Node) bool {
				if ds, ok := n.(*ast.DeferStmt); ok {
					if _, _, name, ok := methodCall(pass.Info, ds.Call); ok {
						deferred[name] = true
						if name == "FinishOp" {
							recorded = true
						}
					}
					return true
				}
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				_, recv, name, ok := methodCall(pass.Info, call)
				if !ok {
					return true
				}
				switch name {
				case "RecordOp", "FinishSpan":
					recorded = true
					return true
				case "StartSpan", "StartOp":
					if starts[name] == nil {
						starts[name] = call
					}
					return true
				}
				if !engineOps[name] {
					return true
				}
				// Only calls dispatched through an `eng` field count: that
				// is the public File's engine indirection. (f.single /
				// f.multi never serve operations directly.)
				if rsel, ok := recv.(*ast.SelectorExpr); ok && rsel.Sel.Name == "eng" {
					ops = append(ops, engDispatch{call, name})
				}
				return true
			})
			fname := fn.Name.Name
			// Each unhooked dispatch is its own finding, so a sanction
			// on one line covers that dispatch and no other.
			if !recorded {
				for _, d := range ops {
					pass.Reportf(d.call.Pos(),
						"%s dispatches eng.%s without the obs timing hook: time the call and report it with Observer.RecordOp, or defer OpScope.FinishOp (or route through an instrumented public method)",
						fname, d.name)
				}
			}
			if c := starts["StartSpan"]; c != nil && !deferred["FinishSpan"] {
				pass.Reportf(c.Pos(),
					"%s starts a span without a deferred FinishSpan: every return path must end the span (defer o.FinishSpan(sp))",
					fname)
			}
			if c := starts["StartOp"]; c != nil && !deferred["FinishOp"] {
				pass.Reportf(c.Pos(),
					"%s starts an op scope without a deferred FinishOp: every return path must end it (defer t.FinishOp())",
					fname)
			}
		}
	}
}
