"""Cross-validation against sympy's independent Smith normal form.

These run only when sympy happens to be installed; the suite's own oracles
(gcd-of-minors, brute-force search) do not depend on it.
"""

from __future__ import annotations

from math import lcm

import pytest

sympy = pytest.importorskip("sympy")

from hypothesis import example, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402
from sympy import Matrix, ZZ  # noqa: E402
from sympy.matrices.normalforms import smith_normal_form as sympy_snf  # noqa: E402

from ckgraph import (  # noqa: E402
    IntMatrix,
    k_invariants,
    k_presentation_matrix,
    smith_normal_form,
)
from ckgraph.intmatrix import _unit_pivots  # noqa: E402
from ckgraph.randgen import (  # noqa: E402
    SplitMix64,
    derive_seed,
    random_graph,
    random_int_matrix,
)
from conftest import dense_unit_matrices, large_random_graphs, unit_heavy_matrices  # noqa: E402
from oracles import (  # noqa: E402
    determinant,
    markowitz_unit_pivots,
    minors_divisors,
    naive_product,
)


def _sympy_divisors(rows: list[list[int]]) -> tuple[int, ...]:
    if not rows or not rows[0]:
        return ()
    reduced = sympy_snf(Matrix(rows), domain=ZZ)
    return tuple(
        sorted(abs(int(reduced[i, i])) for i in range(min(reduced.shape)) if reduced[i, i])
    )


def _lattice_invariants(cols: list[list[int]], dim: int) -> tuple[int, tuple[int, ...]]:
    if not cols:
        return (0, ())
    rows = [[c[i] for c in cols] for i in range(dim)]
    divisors = _sympy_divisors(rows)
    return (len(divisors), divisors)


def _in_column_span(cols: list[list[int]], vec: list[int], dim: int) -> bool:
    # a sublattice equals its extension by `vec` exactly when the invariants agree
    return _lattice_invariants(cols, dim) == _lattice_invariants(cols + [vec], dim)


def test_divisors_agree_with_sympy_on_random_matrices():
    rng = SplitMix64(derive_seed(99, "sympy-matrices"))
    for _ in range(40):
        m = random_int_matrix(rng, max_dim=7)
        assert tuple(sorted(smith_normal_form(m).divisors())) == _sympy_divisors(m.to_rows())


def test_divisors_agree_with_sympy_at_benchmark_size():
    for g in large_random_graphs("sympy-large"):
        pres = k_presentation_matrix(g)
        ours = tuple(sorted(smith_normal_form(pres).divisors()))
        assert ours == _sympy_divisors(pres.to_rows())


def _check_unit_heavy(m: IntMatrix) -> None:
    result = smith_normal_form(m)
    assert tuple(sorted(result.divisors())) == _sympy_divisors(m.to_rows())
    assert abs(determinant(result.u)) == 1 and abs(determinant(result.v)) == 1
    assert naive_product(naive_product(result.u, m), result.v) == result.d


@settings(max_examples=150, deadline=None)
@given(unit_heavy_matrices(max_dim=12))
def test_unit_heavy_sparse_matrices_agree_with_sympy(m):
    _check_unit_heavy(m)


def _examples(inputs):
    """Hypothesis's ``example`` for each of ``inputs``."""

    def decorate(test):
        for m in reversed(inputs):
            test = example(m)(test)
        return test

    return decorate


@settings(max_examples=150, deadline=None)
@given(unit_heavy_matrices(max_dim=10))
# pivot (1, 2) leaves row 0 alone in column 1, so row 0 must come back on
# the heap ahead of row 2, though no row operation touched it
@example(IntMatrix.from_rows([[1, 1, 0, 0], [0, 2, 1, 0], [0, 0, 0, 1], [1, 0, 0, 1]]))
# the presentations of benchmark-size graphs, about half dense: rarely a
# unit of cost 0, so the full scan picks nearly every pivot, among ties of
# equal cost across rows
@_examples([k_presentation_matrix(g) for g in large_random_graphs("dense-pivots")])
def test_unit_pivots_follow_the_full_markowitz_scan(m):
    # the heap of cost-0 candidates must pick the pivots a scan of every
    # unit entry picks, so the transforms stay the same
    _check_unit_pivots(m)


@settings(max_examples=150, deadline=None)
@given(dense_unit_matrices(max_dim=7))
# every column holds 3 entries, so once row 0 is read the bound is 2 per
# entry of a row past the first: rows 1 and 2 reach the best cost 4, and
# their unit (1, 0) of that cost, at a lower column than (0, 2), must lose
@example(IntMatrix.from_rows([[2, 2, 1], [1, 1, 1], [1, 1, 1]]))
# the first scan stops at (0, 0) of cost 1 after reading 2 entries, fewer
# than the 5 columns; the next makes its bound exact after row 2, and then
# rows 3 and 4 reach its best cost 4
@example(
    IntMatrix.from_rows(
        [[1, 1, 0, 0, 0], [1, -1, 0, 0, 0], [0, 0, 1, 1, 1], [0, 0, 1, 1, 1], [0, 0, 1, 1, 1]]
    )
)
def test_unit_pivots_follow_the_full_markowitz_scan_past_the_column_bound(m):
    # with no unit of cost 0 or 1 the scan skips rows by the fewest entries
    # of a column, which must not change the pivots
    _check_unit_pivots(m)


def _check_unit_pivots(m: IntMatrix) -> None:
    rows = {i: dict(row) for i, row in enumerate(m.data)}
    cols = {j: {i for i, row in rows.items() if j in row} for j in range(m.cols)}
    pivots = [(p, c) for p, c, *_ in _unit_pivots(rows, cols)]
    assert pivots == markowitz_unit_pivots(m)
    # the result's orders start with those pivots
    result = smith_normal_form(m)
    assert list(zip(result.row_order, result.col_order))[: len(pivots)] == pivots


@settings(max_examples=100, deadline=None)
@given(unit_heavy_matrices(max_dim=4))
def test_small_unit_heavy_matrices_agree_with_sympy_and_the_minors(m):
    _check_unit_heavy(m)
    assert smith_normal_form(m).divisors() == minors_divisors(m)


def test_k_invariants_and_unit_order_agree_with_sympy():
    rng = SplitMix64(derive_seed(99, "sympy-graphs"))
    for _ in range(15):
        g = random_graph(rng, max_vertices=5, max_parallel=2)
        inv = k_invariants(g)
        pres = k_presentation_matrix(g)
        dim = len(g.vertices)
        dense = pres.to_rows()
        cols = [[dense[r][c] for r in range(pres.rows)] for c in range(pres.cols)]
        divisors = _lattice_invariants(cols, dim)[1]
        assert tuple(sorted(inv.k0_torsion)) == tuple(d for d in divisors if d > 1)
        assert inv.k0_rank == dim - len(divisors)
        assert inv.k1_rank == pres.cols - len(divisors)

        # a finite unit order divides the torsion exponent, so only those
        # candidates need a lattice-membership test
        exponent = lcm(1, *(d for d in divisors if d > 1)) if divisors else 1
        order = None
        for n in sorted(k for k in range(1, exponent + 1) if exponent % k == 0):
            if _in_column_span(cols, [n] * dim, dim):
                order = n
                break
        assert order == inv.unit_profile.order
