"""Build and solve a tiny cone program by hand.

Minimizes the Euclidean distance from the point (3, 4) to the line
x0 = x1, written as: min t  s.t.  ||v|| <= t,  v = x - (3, 4),  x0 = x1.
The answer is the distance from (3,4) to the diagonal, |3-4|/sqrt(2).
"""

import math

from socprune import QUADRATIC, Cone, ConeProgram, SolverSettings, kkt_residuals, solve


def main():
    # variables: t, v = x - (3, 4), and the free point x
    t, v, x = 0, (1, 2), (3, 4)
    program = ConeProgram(
        num_vars=5,
        objective=[1.0, 0.0, 0.0, 0.0, 0.0],
        eq_A=[[0.0, 1.0, 0.0, -1.0, 0.0],   # v0 - x0 = -3
              [0.0, 0.0, 1.0, 0.0, -1.0],   # v1 - x1 = -4
              [0.0, 0.0, 0.0, 1.0, -1.0]],  # x0 - x1 = 0
        eq_b=[-3.0, -4.0, 0.0],
        cones=(Cone(QUADRATIC, (t, *v)),),
        free_vars=x,
    )

    print(f"program: {program.num_vars} variables, {program.num_eqs} equalities")
    sol = solve(program, SolverSettings(verbose=True))
    print(f"status={sol.status} after {sol.iterations} iterations")

    distance = sol.x[t]
    point = sol.x[x[0]], sol.x[x[1]]
    print(f"distance  = {distance:.12f}")
    print(f"expected  = {abs(3.0 - 4.0) / math.sqrt(2):.12f}")
    print(f"foot      = ({point[0]:.6f}, {point[1]:.6f})  (expect (3.5, 3.5))")

    gap, pres, dres = kkt_residuals(program, sol)
    print(f"recomputed residuals: gap={gap:.2e} primal={pres:.2e} dual={dres:.2e}")


if __name__ == "__main__":
    main()
