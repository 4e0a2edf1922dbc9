from __future__ import annotations

import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ckgraph import (
    CertificateError,
    GraphFormatError,
    IntMatrix,
    SnfResult,
    k_presentation_matrix,
    smith_normal_form,
    verify_snf,
)
from ckgraph.intmatrix import _unit_pivots
from oracles import (
    cycle_with_chord,
    determinant,
    laplace_determinant,
    minors_divisors,
    naive_product,
)

matrices = st.integers(1, 5).flatmap(
    lambda r: st.integers(1, 5).flatmap(
        lambda c: st.lists(
            st.lists(st.integers(-9, 9), min_size=c, max_size=c),
            min_size=r,
            max_size=r,
        ).map(IntMatrix.from_rows)
    )
)

# three entries in four are 0; the others range past 64 bits
sparse_entries = st.tuples(st.integers(0, 3), st.integers(-(2**80), 2**80)).map(
    lambda pick: pick[1] if pick[0] == 0 else 0
)


def sparse_matrix(rows: int, cols: int):
    return st.lists(sparse_entries, min_size=rows * cols, max_size=rows * cols).map(
        lambda flat: IntMatrix.from_rows([flat[i * cols : (i + 1) * cols] for i in range(rows)])
    )


def test_from_rows_validation():
    with pytest.raises(GraphFormatError):
        IntMatrix.from_rows([[1, 2], [3]])
    with pytest.raises(GraphFormatError):
        IntMatrix.from_rows([[1.5]])  # type: ignore[list-item]


@given(matrices)
def test_sparse_rows_agree_with_the_dense_views(m):
    rows = m.to_rows()
    assert all(0 not in row.values() for row in m.data)
    assert IntMatrix.from_rows(rows) == m
    assert m.entries == tuple(x for row in rows for x in row)
    for i in range(m.rows):
        for j in range(m.cols):
            assert m.data[i].get(j, 0) == rows[i][j] == m.entries[i * m.cols + j]


def test_basic_algebra():
    m = IntMatrix.from_rows([[1, 2], [3, 4]])
    assert m.to_rows()[1][0] == 3
    assert determinant(m) == -2
    assert determinant(IntMatrix.from_rows([])) == 1


def test_snf_divisor_chain_example():
    result = smith_normal_form(IntMatrix.from_rows([[2, 4], [6, 8]]))
    # first divisor is the gcd of the entries, the product is |det| = 8
    assert result.diagonal == (2, 4)


def test_snf_identity_and_zero():
    eye = IntMatrix.from_rows([[1, 0, 0], [0, 1, 0], [0, 0, 1]])
    result = smith_normal_form(eye)
    assert result.d == eye and result.u == eye and result.v == eye
    zero = smith_normal_form(IntMatrix.from_rows([[0]]))
    assert zero.diagonal == (0,)


def test_snf_empty_dimensions():
    for shape in [(0, 0), (0, 3), (3, 0)]:
        m = IntMatrix(*shape, tuple({} for _ in range(shape[0])))
        result = smith_normal_form(m)
        verify_snf(m, result)
        assert result.rank() == 0


@settings(max_examples=150)
@given(matrices)
def test_snf_certificate_holds(m):
    result = smith_normal_form(m)
    verify_snf(m, result)


@settings(max_examples=80)
@given(matrices.filter(lambda m: m.rows <= 4 and m.cols <= 4))
def test_snf_matches_minors_oracle(m):
    result = smith_normal_form(m)
    assert result.divisors() == minors_divisors(m)


@settings(max_examples=60)
@given(
    st.integers(1, 4).flatmap(
        lambda n: st.lists(
            st.lists(st.integers(-6, 6), min_size=n, max_size=n), min_size=n, max_size=n
        )
    )
)
def test_determinant_matches_laplace(rows):
    assert determinant(IntMatrix.from_rows(rows)) == laplace_determinant(rows)


def _certificate(a, diagonal, log=(), **phase1):
    """An input and a hand-made result that eliminates ``a`` by ``log``.

    A hand-made certificate is the case where phase 1 took no pivot: both
    pivot orders are the identity, ``L`` and ``R`` are identities and the
    core is ``a`` itself.  ``phase1`` replaces any of those fields.
    """
    m, n = len(a), len(a[0])
    eye = lambda size: tuple({i: 1} for i in range(size))  # noqa: E731
    result = SnfResult(
        diagonal=tuple(diagonal),
        row_order=tuple(range(m)),
        col_order=tuple(range(n)),
        u1_inv=eye(m),
        v1_inv=eye(n),
        core=tuple(map(tuple, a)),
        log=tuple(log),
    )
    return IntMatrix.from_rows(a), replace(result, **phase1)


EYE2 = [[1, 0], [0, 1]]
ONES = (1, 1)
# a real elimination with more than one operation, for a log cut short
CHAIN = smith_normal_form(IntMatrix.from_rows([[2, 4], [6, 8]]))

# each case fails exactly one of the certificate's checks
BROKEN_CERTIFICATES = {
    "product": (_certificate([[1]], (2,)), "u\\*a\\*v != d"),
    "divisor-chain": (_certificate([[2, 0], [0, 1]], (2, 1)), "divisor chain"),
    # a diagonal holds min(m, n) entries, all ints
    "short-diagonal": (_certificate(EYE2, (1,)), "shapes"),
    "long-diagonal": (_certificate([[1, 0]], (1, 0)), "shapes"),
    "float-diagonal": (_certificate([[2]], (2.0,)), "non-integer"),
    "bool-diagonal": (_certificate([[1]], (True,)), "non-integer"),
    # u * a * v = d holds, but u = diag(1, 2), a mix of determinant 2, has no
    # integer inverse
    "not-unimodular": (
        _certificate(EYE2, (1, 2), [("mix", False, 0, 1, 1, 0, 0, 2)]),
        "not unimodular",
    ),
    # row 0 += row 0 doubles it: u = [[2]] again
    "add-to-itself": (_certificate([[1]], (2,), [("add", False, 0, ((0, 1),))]), "not unimodular"),
    # the same inside a batch: row 1 -= row 0 clears it, then row 0 doubles
    "source-among-targets": (
        _certificate([[1], [1]], (2,), [("add", False, 0, ((1, -1), (0, 1)))]),
        "not unimodular",
    ),
    # row 1 -= 2 row 0, then row 1 += row 0: each is unimodular and the
    # replay gives d, but a batch names each target once
    "repeated-target": (
        _certificate([[1], [1]], (1,), [("add", False, 0, ((1, -2), (1, 1)))]),
        "not unimodular",
    ),
    # row 1 is outside a core of one row
    "target-out-of-range": (
        _certificate([[1, 0]], (1,), [("add", False, 0, ((1, 1),))]),
        "not unimodular",
    ),
    # a negative target would name a line from the end: here row 0 itself
    "negative-target": (
        _certificate([[1]], (2,), [("add", False, 0, ((-1, 1),))]),
        "not unimodular",
    ),
    # adding a zero row leaves the core as it is, and 1.0 and True equal 1,
    # but only ints are coefficients
    "float-coefficient": (
        _certificate([[1, 0], [0, 0]], (1, 0), [("add", False, 1, ((0, 1.0),))]),
        "not unimodular",
    ),
    "bool-coefficient": (
        _certificate([[1, 0], [0, 0]], (1, 0), [("add", False, 1, ((0, True),))]),
        "not unimodular",
    ),
    # lines outside the core: a row index within the width but not the
    # height, and a column index within the height but not the width
    "row-out-of-range": (
        _certificate([[1, 0]], (1,), [("swap", False, 0, 1)]),
        "not unimodular",
    ),
    "column-out-of-range": (
        _certificate([[1], [0]], (1,), [("swap", True, 0, 1)]),
        "not unimodular",
    ),
    "unknown-kind": (_certificate([[1]], (2,), [("scale", False, 0, 2)]), "not unimodular"),
    # row 1 -= row 0 eliminates a to (1,), but an operation is a tuple, and
    # so is each of an add's pairs
    "list-op": (_certificate([[1], [1]], (1,), [["add", False, 0, ((1, -1),)]]), "not unimodular"),
    "list-pair": (
        _certificate([[1], [1]], (1,), [("add", False, 0, ([1, -1],))]),
        "not unimodular",
    ),
    # a negative source would name a line from the end: here row 0 itself
    "negative-line": (_certificate([[1]], (2,), [("add", False, -1, ((0, 1),))]), "not unimodular"),
    # adding half of a zero row leaves the core as it is, but u is not an
    # integer matrix
    "fractional-coefficient": (
        _certificate([[1, 0], [0, 0]], (1, 0), [("add", False, 1, ((0, 0.5),))]),
        "not unimodular",
    ),
    # the elimination's log without its last operation
    "missing-last": (
        (IntMatrix.from_rows([[2, 4], [6, 8]]), replace(CHAIN, log=CHAIN.log[:-1])),
        "u\\*a\\*v != d",
    ),
    # a = R = [[1, 0], [1, 1]] is unimodular, but row 1 of R holds an entry
    # at column 0, which comes earlier in the pivot order: R is not
    # triangular in it, so the certificate proves nothing
    "earlier-entry": (
        _certificate([[1, 0], [1, 1]], ONES, v1_inv=({0: 1}, {0: 1, 1: 1}), core=((1, 0), (0, 1))),
        "not unimodular",
    ),
    # a = L * 1 * R with L = [[2]], which has no integer inverse
    "pivot-diagonal": (
        _certificate([[2]], (1,), u1_inv=({0: 2},), core=((1,),)),
        "not unimodular",
    ),
    # a = L * 1 * R with R = [[-1]]: unimodular, but phase 1 only ever
    # records a diagonal of 1 in R, so this R is not one it made
    "pivot-diagonal-r": (
        _certificate([[-1]], (1,), v1_inv=({0: -1},), core=((1,),)),
        "not unimodular",
    ),
    "repeated-pivot": (_certificate(EYE2, ONES, row_order=(0, 0)), "not a permutation"),
    # L = [[1, 0], [0.5, 1]] is triangular with a unit diagonal and gives
    # L * diag(2, 2) = a, but diag(2, 2) is not the Smith form of a, diag(1, 4)
    "fractional-factor": (
        _certificate([[2, 0], [1, 2]], (2, 2), u1_inv=({0: 1, 1: 0.5}, {1: 1}), core=()),
        "non-integer",
    ),
    "non-integer-index": (_certificate([[1]], (1,), u1_inv=({"x": 1},)), "non-integer"),
    # 1.0 and True equal 1 and hash like it, so with them read as 1 each of
    # these certificates is valid: only a type check made before an index's
    # position is looked up refuses them
    "float-index": (_certificate(EYE2, ONES, u1_inv=({0: 1}, {1.0: 1})), "non-integer"),
    "bool-entry": (_certificate(EYE2, ONES, u1_inv=({0: True}, {1: 1})), "non-integer"),
    "non-integer-order": (_certificate(EYE2, ONES, col_order=(0, "1")), "non-integer"),
}


@pytest.mark.parametrize("case", sorted(BROKEN_CERTIFICATES))
def test_verify_snf_refuses_a_broken_certificate(case):
    (a, result), message = BROKEN_CERTIFICATES[case]
    with pytest.raises(CertificateError, match=message):
        verify_snf(a, result)


def test_verify_snf_refuses_mismatched_shapes():
    a, result = _certificate([[1, 0]], (1,))
    verify_snf(a, result)
    # a core of the wrong width, or with more rows than a
    for core in (((1, 0, 0),), ((1, 0), (0, 0))):
        with pytest.raises(CertificateError, match="shapes"):
            verify_snf(a, replace(result, core=core))
    # an index outside a sparse factor, a pivot order of the wrong length, or
    # a ragged core, is a shape error too
    for row in ({1: 1}, {-1: 1}):
        with pytest.raises(CertificateError, match="shapes"):
            verify_snf(a, replace(result, u1_inv=(row,)))
    with pytest.raises(CertificateError, match="shapes"):
        verify_snf(a, replace(result, col_order=(0,)))
    square, result = _certificate(EYE2, ONES)
    with pytest.raises(CertificateError, match="shapes"):
        verify_snf(square, replace(result, core=((1, 0), (0, 1, 0))))


# phase 1's sparse factors, with the order each is triangular in and the
# entries its diagonal may hold
SPARSE_FACTORS = {"u1_inv": ("row_order", (1, -1)), "v1_inv": ("col_order", (1,))}


def _break_sparse_factor(result, name, data):
    """The result with one entry of L or R changed: at an earlier pivot
    position, on the diagonal to a non-unit, or at a later position of a
    pivot's vector, where the product with a changes."""
    order_name, units = SPARSE_FACTORS[name]
    vectors, order = list(getattr(result, name)), getattr(result, order_name)
    # the pivots come first in both orders; a change to a core line of L or
    # R need not change the product when the core is zero
    split = len(result.row_order) - len(result.core)
    t = data.draw(st.integers(0, len(vectors) - 1))
    kinds = ["diagonal"] + ["earlier"] * (t > 0) + ["later"] * (t < split and t < len(order) - 1)
    kind = data.draw(st.sampled_from(kinds))
    if kind == "diagonal":
        index = order[t]
        value = data.draw(st.integers(-3, 3).filter(lambda x: x not in units))
    else:
        positions = range(t) if kind == "earlier" else range(t + 1, len(order))
        index = order[data.draw(st.sampled_from(positions))]
        value = vectors[t].get(index, 0) + data.draw(st.integers(-3, 3).filter(bool))
    changed = {**vectors[t], index: value}
    vectors[t] = {k: x for k, x in changed.items() if x}
    return replace(result, **{name: tuple(vectors)})


def _break_log(result, data):
    """The result with one logged operation changed: a line index or a
    coefficient moved, a batch's target or multiplier among them, the other
    side, another kind, or the operation dropped."""
    log = list(result.log)
    t = data.draw(st.integers(0, len(log) - 1))
    op = list(log[t])
    change = data.draw(st.sampled_from(["entry", "side", "kind", "drop"]))
    if change == "drop":
        del log[t]
    else:
        if change == "entry":
            at = data.draw(st.integers(2, len(op) - 1))
            delta = data.draw(st.integers(-3, 3).filter(bool))
            if op[0] == "add" and at == 3:
                pairs = [list(pair) for pair in op[3]]
                pair = pairs[data.draw(st.integers(0, len(pairs) - 1))]
                pair[data.draw(st.integers(0, 1))] += delta
                op[3] = tuple(map(tuple, pairs))
            else:
                op[at] += delta
        elif change == "side":
            op[1] = not op[1]
        else:
            op[0] = data.draw(st.sampled_from(sorted({"swap", "negate", "add", "mix"} - {op[0]})))
        log[t] = tuple(op)
    return replace(result, log=tuple(log))


@settings(max_examples=150)
@given(matrices, st.data())
def test_verify_snf_refuses_a_broken_factor(m, data):
    # L and R are checked by their shape and by the product with a, and a
    # pivot order by being a permutation; a changed log by its operations'
    # kinds, lines and determinants and by its replay on the core
    result = smith_normal_form(m)
    names = list(SPARSE_FACTORS) + ["log"] * bool(result.log)
    names += [f for f in ("row_order", "col_order") if len(getattr(result, f)) > 1]
    name = data.draw(st.sampled_from(names))
    if name == "log":
        broken = _break_log(result, data)
        try:
            verify_snf(m, broken)
        except CertificateError:
            return
        # a changed log can still certify, say a changed q on a zero line:
        # then the dense u and v it gives must be a Smith certificate
        assert naive_product(naive_product(broken.u, m), broken.v) == broken.d
        assert abs(determinant(broken.u)) == 1 and abs(determinant(broken.v)) == 1
        return
    if name in SPARSE_FACTORS:
        broken = _break_sparse_factor(result, name, data)
    else:
        order = list(getattr(result, name))
        pair = st.lists(st.integers(0, len(order) - 1), min_size=2, max_size=2, unique=True)
        i, j = data.draw(pair)
        order[i] = order[j]
        broken = replace(result, **{name: tuple(order)})
    with pytest.raises(CertificateError):
        verify_snf(m, broken)


@settings(max_examples=150)
@given(matrices, st.data())
def test_verify_snf_refuses_another_input_or_diagonal(m, data):
    # the product identities tie the factors to a and to d: a changed entry
    # of a, or of d on the diagonal, in the pivots' part or the core's
    result = smith_normal_form(m)
    delta = data.draw(st.integers(-3, 3).filter(bool))
    i = data.draw(st.integers(0, m.rows * m.cols - 1))
    rows = m.to_rows()
    rows[i // m.cols][i % m.cols] += delta
    with pytest.raises(CertificateError):
        verify_snf(IntMatrix.from_rows(rows), result)
    diagonal = list(result.diagonal)
    diagonal[data.draw(st.integers(0, len(diagonal) - 1))] += delta
    with pytest.raises(CertificateError):
        verify_snf(m, replace(result, diagonal=tuple(diagonal)))


def test_core_clears_a_column_by_one_batched_add():
    # the pivot 2 divides both entries below it, so one add clears them
    result = smith_normal_form(IntMatrix.from_rows([[2, 4, 6], [4, 2, 8], [6, 8, 2]]))
    assert result.log[0] == ("add", False, 0, ((1, -2), (2, -3)))


@settings(max_examples=100)
@given(matrices)
def test_core_adds_are_maximal_batches(m):
    # a run of adds from one line between two other operations is one add
    result = smith_normal_form(m)
    for op, after in zip(result.log, result.log[1:]):
        assert not (op[0] == after[0] == "add" and op[1:3] == after[1:3])
    assert all(op[3] for op in result.log if op[0] == "add")
    assert naive_product(naive_product(result.u, m), result.v) == result.d


@settings(max_examples=100)
@given(matrices)
def test_snf_inverses_are_exact(m):
    # the dense transforms, built on access from the factors
    result = smith_normal_form(m)
    assert naive_product(naive_product(result.u, m), result.v) == result.d
    for t in (result.u, result.v):
        assert abs(determinant(t)) == 1


class _CountedColumns(dict):
    """A column map that counts the column sets it hands out."""

    reads = 0

    def __getitem__(self, j):
        self.reads += 1
        return super().__getitem__(j)

    def values(self):
        return [self[j] for j in self]


def _column_reads(m: IntMatrix) -> int:
    rows = {i: dict(row) for i, row in enumerate(m.data)}
    cols = _CountedColumns({j: {i for i, row in rows.items() if j in row} for j in range(m.cols)})
    assert len(_unit_pivots(rows, cols)) == m.cols
    return cols.reads


def test_unit_pivot_scan_reads_linearly_many_column_sets():
    # nearly every pivot of a cycle with a chord costs 1 and comes from the
    # scan, so a scan that passed over every column to tighten its bound,
    # even only on the scans whose cost-1 stop had not yet fired, would read
    # quadratically many column sets
    small, large = (_column_reads(k_presentation_matrix(cycle_with_chord(n))) for n in (1000, 4000))
    assert large < 5 * small


def test_certificate_is_checked_under_python_O():
    # the Smith certificate is part of the algorithm, not an assertion that
    # -O strips: verify_snf runs once per smith_normal_form call
    script = (
        "import ckgraph.intmatrix as im\n"
        "calls = []\n"
        "check = im.verify_snf\n"
        "im.verify_snf = lambda a, result: calls.append(a) or check(a, result)\n"
        "for rows in ([[2, 4], [6, 8]], [[1]], [[0, 3, 1], [2, 0, 5]]):\n"
        "    im.smith_normal_form(im.IntMatrix.from_rows(rows))\n"
        "print(__debug__, len(calls))\n"
    )
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")}
    result = subprocess.run(
        [sys.executable, "-O", "-c", script], env=env, capture_output=True, text=True, check=True
    )
    assert result.stdout.split() == ["False", "3"]


@settings(max_examples=100)
@given(st.integers(1, 5).flatmap(lambda n: sparse_matrix(n, n)))
def test_determinant_matches_laplace_on_sparse_matrices(m):
    # zero pivot-column entries take the rescale-only branch of Bareiss
    assert determinant(m) == laplace_determinant(m.to_rows())


@settings(max_examples=100)
@given(
    st.integers(1, 6).flatmap(
        lambda n: st.tuples(
            st.just(n),
            st.lists(
                st.tuples(
                    st.sampled_from(["add", "swap", "negate"]),
                    st.integers(0, n - 1),
                    st.integers(0, n - 1),
                    st.integers(-(2**70), 2**70),
                ),
                max_size=12,
            ),
        )
    )
)
def test_determinant_of_elementary_products_is_a_unit(case):
    n, steps = case
    rows = [[int(i == j) for j in range(n)] for i in range(n)]
    sign = 1
    for kind, i, j, q in steps:
        if kind == "add" and i != j:
            rows[i] = [x + q * y for x, y in zip(rows[i], rows[j])]
        elif kind == "swap" and i != j:
            rows[i], rows[j] = rows[j], rows[i]
            sign = -sign
        elif kind == "negate":
            rows[i] = [-x for x in rows[i]]
            sign = -sign
    assert determinant(IntMatrix.from_rows(rows)) == sign
