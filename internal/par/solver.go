package par

import "context"

// Solver is implemented by every algorithm in this repository that produces
// a feasible PAR solution: the CELF lazy-greedy solver, the Sviridenko
// partial-enumeration solver, the exact branch-and-bound solver, and the
// four baselines. The instance must be finalized.
type Solver interface {
	// Solve returns a feasible solution for the instance.
	Solve(inst *Instance) (Solution, error)
	// Name identifies the algorithm in reports ("PHOcus", "RAND-A", ...).
	Name() string
}

// ContextSolver is a Solver with cooperative cancellation: SolveContext
// checks ctx.Err() at bounded intervals inside its main loop (per CELF
// priority-queue round, per Sviridenko enumeration step, per branch-and-bound
// node) and returns the context's error promptly once the context is done.
// Plain Solve remains the compatibility path, equivalent to SolveContext
// with context.Background().
type ContextSolver interface {
	Solver
	// SolveContext is Solve with cooperative cancellation.
	SolveContext(ctx context.Context, inst *Instance) (Solution, error)
}
