package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// LockSafe enforces the concurrency rules the ROADMAP-1 concurrent layer
// will live under, reusing the paircheck path-sensitive engine with
// sync.Mutex/RWMutex lock-unlock as the tracked pair:
//
//  1. unlock-on-all-paths: a lock acquired in a function is released on
//     every exit (directly or by defer), and never released twice;
//  2. lock-ordering lattice: locks are ranked conn → object → store →
//     epoch → latch → pool → volume. The server's connection-layer lock
//     ("connmu") sits above everything — it must never be held across an
//     engine call; the three engine levels rank by exact variable name
//     ("objmu", "storemu", "epochmu"), and so does the latch class, the
//     volume decorator's "volmu"; below them, buffer-package/"pool" names
//     and disk/filevol-package/"vol" names rank as before. Acquiring a
//     lower-ranked lock while holding a higher-ranked one is an inversion;
//  3. no durability barrier or durable file I/O while a latch-class lock
//     is held — transitive call summaries decide whether a callee
//     reaches a barrier (Disk.Barrier, Store.SyncBarrier, disk.Volume's
//     Sync) or the filevol layer.
var LockSafe = &Analyzer{
	Name: "locksafe",
	Doc: "check unlock-on-all-paths, the conn→object→store→epoch→latch→pool→volume " +
		"lock-ordering lattice, and that no barrier or durable I/O runs under a latch",
	Run: runLockSafe,
}

const (
	diskPkgPath    = "lobstore/internal/disk"
	filevolPkgPath = "lobstore/internal/filevol"
)

// isMutexType reports whether t is sync.Mutex or sync.RWMutex (possibly
// behind a pointer); such parameters are seeded by the interprocedural
// summaries, so helpers like unlock(mu *sync.Mutex) count as releases.
func isMutexType(t types.Type) bool {
	if p, ok := t.Underlying().(*types.Pointer); ok {
		t = p.Elem()
	}
	n, ok := t.(*types.Named)
	if !ok || n.Obj().Pkg() == nil {
		return false
	}
	return n.Obj().Pkg().Path() == "sync" &&
		(n.Obj().Name() == "Mutex" || n.Obj().Name() == "RWMutex")
}

// lockRecvVar resolves the receiver expression of mu.Lock() / s.mu.Lock()
// to the lock's variable identity: a plain ident's object or the struct
// field object of the final selector. The field object is shared by every
// selection path to it, so s.mu and t.mu of the same instance field are
// one lock for analysis purposes.
func lockRecvVar(info *types.Info, x ast.Expr) *types.Var {
	switch x := ast.Unparen(x).(type) {
	case *ast.Ident:
		return objVar(info, x)
	case *ast.SelectorExpr:
		v, _ := info.Uses[x.Sel].(*types.Var)
		return v
	}
	return nil
}

// lockRank places a lock variable in the declared lattice. Unranked locks
// (-1) are still checked for unlock-on-all-paths but carry no ordering
// obligation.
func lockRank(v *types.Var) (int, string) {
	name := strings.ToLower(v.Name())
	pkg := ""
	if v.Pkg() != nil {
		pkg = v.Pkg().Path()
	}
	switch {
	case name == "connmu":
		return 0, "conn"
	case name == "objmu":
		return 1, "object"
	case name == "storemu":
		return 2, "store"
	case name == "epochmu":
		return 3, "epoch"
	case name == "volmu":
		return 4, "latch"
	case pkg == bufferPkgPath || strings.Contains(name, "pool"):
		return 5, "pool"
	case pkg == diskPkgPath || pkg == filevolPkgPath || strings.Contains(name, "vol"):
		return 6, "volume"
	}
	return -1, ""
}

// lockEffect summarizes whether calling a function can (transitively)
// reach a durability barrier or durable file I/O.
type lockEffect struct {
	barrier   bool
	durableIO bool
}

// lockEffect computes fn's memoized transitive effect. Goroutines spawned
// by the callee run concurrently, not under the caller's latch, so GoStmt
// subtrees are excluded; recursion is cut conservatively.
func (p *Program) lockEffect(fn *types.Func) lockEffect {
	if fn == nil {
		return lockEffect{}
	}
	if e, ok := p.lockFx[fn]; ok {
		return *e
	}
	if p.lockBusy[fn] {
		return lockEffect{}
	}
	eff := directLockEffect(fn)
	src := p.source(fn)
	if src == nil || (eff.barrier && eff.durableIO) {
		p.lockFx[fn] = &eff
		return eff
	}
	p.lockBusy[fn] = true
	ast.Inspect(src.decl.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.GoStmt:
			return false
		case *ast.CallExpr:
			sub := p.lockEffect(calleeFunc(src.pkg.Info, n))
			eff.barrier = eff.barrier || sub.barrier
			eff.durableIO = eff.durableIO || sub.durableIO
		}
		return true
	})
	delete(p.lockBusy, fn)
	p.lockFx[fn] = &eff
	return eff
}

// osFileIO lists *os.File methods that touch the durable file.
var osFileIO = map[string]bool{
	"Read": true, "ReadAt": true, "Write": true, "WriteAt": true,
	"Sync": true, "Truncate": true, "Close": true,
}

// directLockEffect classifies a function without looking at its body:
// barrier methods by name (the Volume interface dispatches them, so no
// body is available) — Barrier, SyncBarrier, and Sync when the disk
// package declares it — the filevol package wholesale, and raw *os.File
// I/O.
func directLockEffect(fn *types.Func) lockEffect {
	var eff lockEffect
	sig, _ := fn.Type().(*types.Signature)
	isMethod := sig != nil && sig.Recv() != nil
	inDisk := fn.Pkg() != nil && fn.Pkg().Path() == diskPkgPath
	if isMethod && (fn.Name() == "Barrier" || fn.Name() == "SyncBarrier" || (inDisk && fn.Name() == "Sync")) {
		eff.barrier = true
	}
	if fn.Pkg() != nil && fn.Pkg().Path() == filevolPkgPath {
		eff.durableIO = true
	}
	if isMethod && osFileIO[fn.Name()] {
		if p, ok := sig.Recv().Type().(*types.Pointer); ok {
			if n, ok := p.Elem().(*types.Named); ok && n.Obj().Pkg() != nil &&
				n.Obj().Pkg().Path() == "os" && n.Obj().Name() == "File" {
				eff.durableIO = true
			}
		}
	}
	return eff
}

func runLockSafe(pass *Pass) {
	seen := make(map[token.Pos]bool)
	reportOnce := func(c *pairChecker, pos token.Pos, format string, args ...any) {
		if !seen[pos] {
			seen[pos] = true
			c.report(pos, format, args...)
		}
	}
	spec := &pairSpec{
		key:          "locksafe",
		resourceType: isMutexType,
		releaseName:  "Unlock",
		acquireRecv: func(info *types.Info, call *ast.CallExpr) (*types.Var, string, bool) {
			fn := calleeFunc(info, call)
			if fn == nil || fn.Pkg() == nil || fn.Pkg().Path() != "sync" {
				return nil, "", false
			}
			var desc string
			switch fn.Name() {
			case "Lock":
				desc = "lock"
			case "RLock":
				desc = "read lock"
			default:
				return nil, "", false
			}
			sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
			if !ok {
				return nil, "", false
			}
			v := lockRecvVar(info, sel.X)
			if v == nil {
				return nil, "", false
			}
			return v, desc, true
		},
		release: func(info *types.Info, call *ast.CallExpr, v *types.Var) bool {
			fn := calleeFunc(info, call)
			if fn == nil || fn.Pkg() == nil || fn.Pkg().Path() != "sync" {
				return false
			}
			if fn.Name() != "Unlock" && fn.Name() != "RUnlock" {
				return false
			}
			sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
			if !ok {
				return false
			}
			return lockRecvVar(info, sel.X) == v
		},
		onAcquire: func(c *pairChecker, call *ast.CallExpr, v *types.Var, e env) {
			nr, nclass := lockRank(v)
			if nr < 0 {
				return
			}
			for hv, t := range e {
				if hv == v || !t.mayLive || t.escaped {
					continue
				}
				hr, hclass := lockRank(hv)
				if hr >= 0 && nr < hr {
					reportOnce(c, call.Pos(),
						"lock-order inversion: %s-class lock %q acquired while %s-class lock %q is held (declared order: conn → object → store → epoch → latch → pool → volume)",
						nclass, v.Name(), hclass, hv.Name())
				}
			}
		},
		onCall: func(c *pairChecker, call *ast.CallExpr, e env) {
			var latch *types.Var
			for hv, t := range e {
				if !t.mayLive || t.escaped {
					continue
				}
				if _, cls := lockRank(hv); cls == "latch" {
					latch = hv
					break
				}
			}
			if latch == nil || c.pass.Prog == nil {
				return
			}
			fn := calleeFunc(c.pass.Info, call)
			if fn == nil || (fn.Pkg() != nil && fn.Pkg().Path() == "sync") {
				return
			}
			eff := c.pass.Prog.lockEffect(fn)
			switch {
			case eff.barrier:
				reportOnce(c, call.Pos(),
					"durability barrier reached while latch %q is held: barriers block for device flushes, release the latch first",
					latch.Name())
			case eff.durableIO:
				reportOnce(c, call.Pos(),
					"durable file I/O reached while latch %q is held: filevol calls block on the device, release the latch first",
					latch.Name())
			}
		},
	}
	checkPairs(pass, spec)
}
