package lint

import (
	"go/ast"
)

// Goroutine flags go statements in model packages. The kernel guarantees
// that exactly one goroutine — the engine loop or one cooperatively
// scheduled process — is runnable at any instant; a raw go statement
// races the engine, and the Go scheduler's interleaving is not
// reproducible across runs. Processes are coroutines (iter.Pull), not
// goroutines; the single legitimate use is the sharded engine's per-shard
// worker (internal/sim/shard.go), which carries an allow directive.
var Goroutine = &Analyzer{
	Name: "goroutine",
	Doc: "forbid go statements in model packages; all model code must run on the engine " +
		"goroutine (use Engine.Spawn for process-style concurrency)",
	Run: runGoroutine,
}

func runGoroutine(pass *Pass) error {
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			if g, ok := n.(*ast.GoStmt); ok {
				pass.Reportf(g.Pos(),
					"go statement escapes the engine goroutine; model code must use Engine.Spawn (kernel-internal uses carry an allow directive)")
			}
			return true
		})
	}
	return nil
}
