"""Closed-form heat-bath Glauber gaps: exact references for the Lanczos
solver at sizes where no dense cross-check runs.

Paths, q = 3.  Write a coloring x_1..x_m as its steps d_k = +1 if
x_{k+1} = x_k + 1 mod 3, else -1 (k = 1..m-1).  Resampling an inner edge k
keeps (d_{k-1}, d_k) when x_{k-1} != x_{k+1} (one color is free, so the two
steps are equal) and otherwise sets it to (+1, -1) or (-1, +1) with
probability 1/2 each: in both cases the pair's mean becomes its average.
Resampling an end edge sets its step to +-1 with probability 1/2.  So for
f = sum_k w_k d_k, (P - I) f = (1/2m) sum_k (w_{k-1} - 2 w_k + w_{k+1}) d_k
with w_0 = -w_1 and w_m = -w_{m-1}, and w_k = sin(pi j (k - 1/2) / (m - 1))
gives the eigenvalue 1 - (1 - cos(pi j / (m - 1))) / m.  For j = 1 it is
lambda_2 from m = 11 on (for m <= 10 a slower mode lies above it); that
part is observed, not proved.

Stars K_{1,D}, q > D.  Every two edges meet, so a coloring is an injection
of the D edges into 1..q and an edge resamples among the q - D + 1 colors
the others leave.  For g on 1..q with sum_c g(c) = 0, resampling e takes
g(x_e) to -sum_{f != e} g(x_f) / (q - D + 1) in the mean, so
f = g(x_e) - g(x_f) is an eigenfunction with
1 - lambda = (q - D) / (D (q - D + 1)).  That it is lambda_2 is observed.
"""

import math

import pytest

from treecolor import dynamics, spectral
from treecolor.colorings import uniform_lists
from treecolor.trees import build_complete_regular, tree_from_parents


def heat_bath_lambda2(tree, q):
    tm = spectral.transition_matrix(tree, uniform_lists(tree, q), dynamics.HEATBATH_GLAUBER)
    return tm.n, spectral.spectral_report(tm, compute_lambda_min=False).lambda2


@pytest.mark.parametrize("m", [11, 12, 13, 14])
def test_path_lambda2_at_q3_is_the_first_exclusion_mode(m):
    n, lambda2 = heat_bath_lambda2(tree_from_parents([None] + list(range(m)), 0), 3)
    assert n == 3 * 2 ** (m - 1)
    assert abs(lambda2 - (1 - (1 - math.cos(math.pi / (m - 1))) / m)) <= 1e-12


@pytest.mark.parametrize("delta", [2, 3, 4, 5])
def test_star_gap_is_rational(delta):
    star = build_complete_regular(delta, 1)
    for q in range(delta + 1, delta + 4):
        n, lambda2 = heat_bath_lambda2(star, q)
        assert n == math.perm(q, delta)
        assert abs((1 - lambda2) - (q - delta) / (delta * (q - delta + 1))) <= 1e-12, q
