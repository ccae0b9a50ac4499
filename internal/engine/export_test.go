package engine

import "mix/internal/solver"

// SetQueryHook installs fn as the observer of every query a pool
// answers, with the pool's final verdict, and returns a function that
// restores the previous observer. Set it only while no engine runs.
func SetQueryHook(fn func(pc *solver.PC, extras []solver.Formula, sat bool, err error)) (restore func()) {
	old := queryHook
	queryHook = fn
	return func() { queryHook = old }
}
