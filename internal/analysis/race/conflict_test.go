package race

import "testing"

// TestSolve drives the prover's integer feasibility check on small
// systems, one per refutation rule. Variables are 0 (x) and 1 (y).
func TestSolve(t *testing.T) {
	x := func(k int64) Term { return Term{Sym: 0, Coef: k} }
	y := func(k int64) Term { return Term{Sym: 1, Coef: k} }
	row := func(c int64, eq bool, ts ...Term) lin { return lin{t: ts, c: c, eq: eq} }
	cases := []struct {
		name string
		rows []lin
		want bool
	}{
		{"2x = 1: gcd", []lin{row(-1, true, x(2))}, false},
		{"2x >= 1 and 2x <= 1: floor tightening",
			[]lin{row(-1, false, x(2)), row(1, false, x(-2))}, false},
		{"-x + y = 0 with x >= 1, y <= 0: negative pivot",
			[]lin{row(0, true, x(-1), y(1)), row(-1, false, x(1)), row(0, false, y(-1))}, false},
		{"x - y >= 1 and y - x >= 0: one FM combination",
			[]lin{row(-1, false, x(1), y(-1)), row(0, false, x(-1), y(1))}, false},
		{"0 <= x <= 3, y = x + 1: feasible",
			[]lin{row(0, false, x(1)), row(3, false, x(-1)), row(1, true, x(1), y(-1))}, true},
		{"coefficients past coefLimit: gives up",
			[]lin{row(-1, true, x(2*coefLimit)), row(-1, false, x(-1))}, true},
	}
	// One solver for every case: its reused buffers must not carry a
	// query's rows into the next.
	var s solver
	for _, c := range cases {
		if got := s.solve(c.rows); got != c.want {
			t.Errorf("%s: solve = %v, want %v", c.name, got, c.want)
		}
	}
}
