package par

import "context"

// Solver is implemented by every algorithm in this repository that produces
// a feasible PAR solution: the CELF lazy-greedy solver, the Sviridenko
// partial-enumeration solver, the exact branch-and-bound solver, the
// sieve-streaming solver, and the four baselines. The instance must be
// finalized.
type Solver interface {
	// Name identifies the algorithm in reports ("PHOcus", "RAND-A", ...).
	Name() string
	// Solve returns a feasible solution for the instance. It checks
	// ctx.Err() at bounded intervals inside its main loop (per selection,
	// per CELF priority-queue round, per Sviridenko enumeration step, per
	// branch-and-bound node) and returns the context's error promptly once
	// the context is done.
	Solve(ctx context.Context, inst *Instance) (Solution, error)
}
