"""Conductance cuts and the frozen-edge relaxation lower bound.

Pinning one color class of a busy edge gives a cut of small conductance, so
Cheeger's inequality forces T_rel >= n*delta / (2 (q - delta)^2).  The demo
also shows that the enumerated frozen-edge probability differs from the
closed form printed next to that argument (see the ledger of the test suite);
the lower bound itself is insensitive to the difference.
"""

from treecolor import dynamics, spectral
from treecolor.colorings import uniform_lists
from treecolor.trees import tree_from_parents

# two adjacent degree-3 vertices with two extra leaves each
dstar = tree_from_parents([None, 0, 0, 0, 1, 1], 0)

for q in (4, 5, 6):
    rec = spectral.lower_bound_check(dstar, 0, q)
    print(f"q={q}: frozen prob exact {rec['p_frozen_exact']:.4f} "
          f"(closed form {rec['p_frozen_formula']:.4f}); "
          f"T_rel {rec['t_rel']:.2f} >= bound {rec['trel_bound']:.2f}")

print()
tm = spectral.transition_matrix(dstar, uniform_lists(dstar, 4),
                                dynamics.HEATBATH_GLAUBER)
rep = spectral.spectral_report(tm)
phi, cut = spectral.conductance_star(tm)
print(f"best color cut: {cut}, phi = {phi:.5f}")
print(f"Cheeger sandwich: {phi * phi / 2:.6f} <= {1 / rep.t_rel:.6f} <= {2 * phi:.6f}")
