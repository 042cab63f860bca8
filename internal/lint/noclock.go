package lint

import (
	"go/ast"
	"go/types"
)

// NoClock reports wall-clock and global-randomness reads in library
// code. The repo's exact-resume guarantee and its deterministic
// chaos/recovery schedules hold only because every time read and
// every random draw flows through an injected source (Pool.WithClock,
// seeded feeds); a stray time.Now or math/rand call silently breaks
// replayability. Binaries (cmd/), runnable docs (examples/) and test
// files are exempt; an intentional wall-clock default in library
// code carries a //lint:wallclock marker, which the driver verifies
// is load-bearing.
var NoClock = &Analyzer{
	Name: "noclock",
	Doc: "forbid time.Now/Since/Until/After/Tick and global math/rand in library packages; " +
		"thread the injected clock / seeded feed instead, or mark //lint:wallclock",
	Run: runNoClock,
}

// clockFuncs are the package-level time functions that read the wall
// clock directly. (time.NewTimer/NewTicker express a real wait, not
// a time read, and stay allowed.)
var clockFuncs = map[string]bool{
	"Now":   true,
	"Since": true,
	"Until": true,
	"After": true,
	"Tick":  true,
}

// randConstructors are the math/rand package-level functions that do
// NOT touch the global source: building a private Source/Rand around
// an injected stream is exactly the sanctioned pattern
// (Generator.MathRandSource, Client.Rand).
var randConstructors = map[string]bool{
	"New":        true,
	"NewSource":  true,
	"NewZipf":    true,
	"NewPCG":     true, // math/rand/v2
	"NewChaCha8": true,
}

func runNoClock(pass *Pass) error {
	if pathExempt(pass.ImportPath) {
		return nil
	}
	for _, file := range pass.Files {
		if isTestFile(pass.Fset, file.Pos()) {
			continue
		}
		ast.Inspect(file, func(n ast.Node) bool {
			sel, ok := n.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			ident, ok := sel.X.(*ast.Ident)
			if !ok {
				return true
			}
			pkgName, ok := pass.Info.Uses[ident].(*types.PkgName)
			if !ok {
				return true
			}
			switch pkgName.Imported().Path() {
			case "time":
				if clockFuncs[sel.Sel.Name] {
					pass.Reportf(sel.Pos(),
						"time.%s reads the wall clock in library code; thread an injected clock (mirror Pool.WithClock) or justify with //lint:wallclock",
						sel.Sel.Name)
				}
			case "math/rand", "math/rand/v2":
				if obj, ok := pass.Info.Uses[sel.Sel].(*types.Func); ok &&
					obj.Type().(*types.Signature).Recv() == nil &&
					!randConstructors[sel.Sel.Name] {
					pass.Reportf(sel.Pos(),
						"%s.%s draws from the global math/rand source in library code; use an injected seeded generator",
						pkgName.Imported().Path(), sel.Sel.Name)
				}
			}
			return true
		})
	}
	return nil
}
