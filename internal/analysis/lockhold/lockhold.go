// Package lockhold flags blocking operations reached while a
// sync.Mutex or sync.RWMutex is held.
//
// This is the bug class once fixed in the coordinator ranking loop (an
// RPC encode under the directory lock) and in the server's Shutdown
// (channel wait under the drain lock): a blocking call under a lock
// turns one slow peer into a stalled shard. The analyzer tracks lock
// acquisitions through each function body with a simple forward walk —
// branches are analyzed with a copy of the held set, deferred unlocks
// keep the lock held to the end of the function (which is exactly when
// blocking calls under it deserve a look), and goroutine and closure
// bodies are analyzed separately with an empty held set.
//
// Blocking operations: net dials/reads/writes/accepts, wire frame reads,
// the reads and writes of the framed connection (wire.Conn) and the
// pooled call that dials, writes and reads one (wire.Pool.Call), channel
// sends/receives (including select without default and range over a
// channel), file fsync, WAL appends, time.Sleep, and WaitGroup/Cond
// waits. Deliberate holds — e.g. the WAL's single-writer group commit —
// are annotated //geodabs:vet-ignore with a reason.
package lockhold

import (
	"go/ast"
	"go/token"
	"go/types"

	"geodabs/internal/analysis"
)

// Analyzer is the lockhold check.
var Analyzer = &analysis.Analyzer{
	Name: "lockhold",
	Doc:  "flag blocking operations performed while a sync mutex is held",
	Run:  run,
}

var lockMethods = map[string]bool{
	"(*sync.Mutex).Lock":    true,
	"(*sync.RWMutex).Lock":  true,
	"(*sync.RWMutex).RLock": true,
}

var unlockMethods = map[string]bool{
	"(*sync.Mutex).Unlock":    true,
	"(*sync.RWMutex).Unlock":  true,
	"(*sync.RWMutex).RUnlock": true,
}

// blocking maps callee full names to a short label used in diagnostics.
var blocking = map[string]string{
	"time.Sleep":                                  "time.Sleep",
	"(*sync.WaitGroup).Wait":                      "WaitGroup.Wait",
	"(*sync.Cond).Wait":                           "Cond.Wait",
	"(*os.File).Sync":                             "file fsync",
	"net.Dial":                                    "net dial",
	"net.DialTimeout":                             "net dial",
	"(*net.Dialer).Dial":                          "net dial",
	"(*net.Dialer).DialContext":                   "net dial",
	"(net.Conn).Read":                             "net read",
	"(net.Conn).Write":                            "net write",
	"(*net.TCPConn).Read":                         "net read",
	"(*net.TCPConn).Write":                        "net write",
	"(net.Listener).Accept":                       "net accept",
	"(*net.TCPListener).Accept":                   "net accept",
	"geodabs/internal/wire.ReadFrame":             "wire read",
	"geodabs/internal/wire.ReadFrameInto":         "wire read",
	"(*geodabs/internal/wire.Conn).ReadFrame":     "frame read",
	"(*geodabs/internal/wire.Conn).SendFrame":     "frame send",
	"(*geodabs/internal/wire.Conn).WriteFrames":   "frame write",
	"(*geodabs/internal/wire.Pool[S]).Call":       "pooled call",
	"(*geodabs/internal/wal.Log).Append":          "WAL append (group commit fsync)",
	"(*geodabs/internal/wal.Log).Sync":            "WAL fsync",
	"(*geodabs/internal/wal.Log).Seal":            "WAL seal (fsync)",
	"(geodabs/internal/wal.segmentFile).Write":    "segment write",
	"(geodabs/internal/wal.segmentFile).Sync":     "segment fsync",
	"(geodabs/internal/wal.segmentFile).Truncate": "segment truncate",
}

func run(pass *analysis.Pass) error {
	for _, file := range pass.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			switch fn := n.(type) {
			case *ast.FuncDecl:
				if fn.Body != nil {
					w := &walker{pass: pass}
					w.stmts(fn.Body.List)
				}
			case *ast.FuncLit:
				// Closures run on their own schedule; analyze each body
				// with an empty held set (the outer walk skips them).
				w := &walker{pass: pass}
				w.stmts(fn.Body.List)
			}
			return true
		})
	}
	return nil
}

// heldLock is one acquired mutex, keyed by the canonical source text of
// its receiver expression (e.g. "n.mu").
type heldLock struct {
	key string
	pos token.Pos
}

type walker struct {
	pass *analysis.Pass
	held []heldLock
}

func (w *walker) clone() *walker {
	return &walker{pass: w.pass, held: append([]heldLock(nil), w.held...)}
}

func (w *walker) acquire(key string, pos token.Pos) {
	w.held = append(w.held, heldLock{key: key, pos: pos})
}

func (w *walker) release(key string) {
	for i := len(w.held) - 1; i >= 0; i-- {
		if w.held[i].key == key {
			w.held = append(w.held[:i], w.held[i+1:]...)
			return
		}
	}
}

func (w *walker) holding() (string, bool) {
	if len(w.held) == 0 {
		return "", false
	}
	// Report against the most recently acquired lock.
	return w.held[len(w.held)-1].key, true
}

// stmts walks a statement list sequentially, stopping at a terminating
// statement.
func (w *walker) stmts(list []ast.Stmt) {
	for _, s := range list {
		w.stmt(s)
		switch s.(type) {
		case *ast.ReturnStmt, *ast.BranchStmt:
			return
		}
	}
}

func (w *walker) stmt(s ast.Stmt) {
	switch s := s.(type) {
	case nil:
	case *ast.ExprStmt:
		w.expr(s.X)
	case *ast.AssignStmt:
		for _, e := range s.Rhs {
			w.expr(e)
		}
		for _, e := range s.Lhs {
			w.expr(e)
		}
	case *ast.DeclStmt:
		if gd, ok := s.Decl.(*ast.GenDecl); ok {
			for _, spec := range gd.Specs {
				if vs, ok := spec.(*ast.ValueSpec); ok {
					for _, e := range vs.Values {
						w.expr(e)
					}
				}
			}
		}
	case *ast.SendStmt:
		w.expr(s.Value)
		if key, ok := w.holding(); ok {
			w.pass.Reportf(s.Arrow, "channel send may block while %q is held", key)
		}
	case *ast.IncDecStmt:
		w.expr(s.X)
	case *ast.DeferStmt:
		// A deferred unlock keeps the lock held to the end of the
		// function; a deferred blocking call runs after the body, so
		// only its arguments (evaluated now) are walked.
		if name := analysis.CalleeFullName(w.pass.TypesInfo, s.Call); unlockMethods[name] {
			return
		}
		for _, arg := range s.Call.Args {
			w.expr(arg)
		}
	case *ast.GoStmt:
		// The spawned goroutine does not inherit the caller's locks;
		// only the call's arguments are evaluated here.
		for _, arg := range s.Call.Args {
			w.expr(arg)
		}
	case *ast.ReturnStmt:
		for _, e := range s.Results {
			w.expr(e)
		}
	case *ast.BlockStmt:
		w.clone().stmts(s.List)
	case *ast.IfStmt:
		w.stmt(s.Init)
		w.expr(s.Cond)
		w.clone().stmts(s.Body.List)
		if s.Else != nil {
			w.clone().stmt(s.Else)
		}
	case *ast.ForStmt:
		w.stmt(s.Init)
		if s.Cond != nil {
			w.expr(s.Cond)
		}
		inner := w.clone()
		inner.stmts(s.Body.List)
		inner.stmt(s.Post)
	case *ast.RangeStmt:
		w.expr(s.X)
		if t, ok := w.pass.TypesInfo.Types[s.X]; ok {
			if _, isChan := t.Type.Underlying().(*types.Chan); isChan {
				if key, ok := w.holding(); ok {
					w.pass.Reportf(s.For, "range over channel may block while %q is held", key)
				}
			}
		}
		w.clone().stmts(s.Body.List)
	case *ast.SwitchStmt:
		w.stmt(s.Init)
		if s.Tag != nil {
			w.expr(s.Tag)
		}
		for _, c := range s.Body.List {
			cc := c.(*ast.CaseClause)
			inner := w.clone()
			for _, e := range cc.List {
				inner.expr(e)
			}
			inner.stmts(cc.Body)
		}
	case *ast.TypeSwitchStmt:
		w.stmt(s.Init)
		w.stmt(s.Assign)
		for _, c := range s.Body.List {
			cc := c.(*ast.CaseClause)
			w.clone().stmts(cc.Body)
		}
	case *ast.SelectStmt:
		hasDefault := false
		for _, c := range s.Body.List {
			if c.(*ast.CommClause).Comm == nil {
				hasDefault = true
			}
		}
		if !hasDefault {
			if key, ok := w.holding(); ok {
				w.pass.Reportf(s.Select, "select without default may block while %q is held", key)
			}
		}
		for _, c := range s.Body.List {
			cc := c.(*ast.CommClause)
			inner := w.clone()
			// The comm clauses themselves are the select's blocking
			// points, already covered above; only walk the bodies.
			inner.stmts(cc.Body)
		}
	case *ast.LabeledStmt:
		w.stmt(s.Stmt)
	}
}

// expr walks an expression, classifying calls and channel receives.
// Function literal bodies are skipped; they are analyzed independently.
func (w *walker) expr(e ast.Expr) {
	ast.Inspect(e, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			return false
		case *ast.UnaryExpr:
			if n.Op == token.ARROW {
				if key, ok := w.holding(); ok {
					w.pass.Reportf(n.OpPos, "channel receive may block while %q is held", key)
				}
			}
		case *ast.CallExpr:
			w.call(n)
		}
		return true
	})
}

func (w *walker) call(call *ast.CallExpr) {
	name := analysis.CalleeFullName(w.pass.TypesInfo, call)
	if name == "" {
		return
	}
	switch {
	case lockMethods[name]:
		w.acquire(receiverKey(call), call.Pos())
	case unlockMethods[name]:
		w.release(receiverKey(call))
	default:
		if label, ok := blocking[name]; ok {
			if key, held := w.holding(); held {
				w.pass.Reportf(call.Pos(), "%s (%s) may block while %q is held", label, name, key)
			}
		}
	}
}

// receiverKey canonicalizes the mutex receiver of a Lock/Unlock call,
// e.g. "n.mu" for n.mu.Lock().
func receiverKey(call *ast.CallExpr) string {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return "<mutex>"
	}
	return types.ExprString(sel.X)
}
