"""Exact integer matrices and certified Smith normal form.

Entries are Python ints, never fixed-width machine words: Smith pivots can
grow far past 64 bits even for small inputs, and every result here must be
exact.  The Smith routine runs in two phases: sparse unit pivots in
Markowitz order, then a dense extended-gcd elimination of the small core
they leave.  It returns the diagonal together with the unimodular transforms
that certify it and their inverses, and re-verifies the certificate on every
call, ``python -O`` included, by matrix products alone.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain
from typing import Iterable, Sequence

from .errors import CertificateError, GraphFormatError


@dataclass(frozen=True)
class IntMatrix:
    """Immutable row-major integer matrix; dimensions may be zero."""

    rows: int
    cols: int
    entries: tuple[int, ...]

    @staticmethod
    def from_rows(rows: Sequence[Sequence[int]]) -> "IntMatrix":
        nrows = len(rows)
        ncols = len(rows[0]) if nrows else 0
        flat: list[int] = []
        for row in rows:
            if len(row) != ncols:
                raise GraphFormatError("ragged rows in matrix data")
            for x in row:
                if not isinstance(x, int) or isinstance(x, bool):
                    raise GraphFormatError(f"matrix entry {x!r} is not an integer")
                flat.append(x)
        return IntMatrix(nrows, ncols, tuple(flat))

    @staticmethod
    def identity(n: int) -> "IntMatrix":
        entries = [0] * (n * n)
        entries[:: n + 1] = [1] * n
        return IntMatrix(n, n, tuple(entries))

    @staticmethod
    def zeros(rows: int, cols: int) -> "IntMatrix":
        return IntMatrix(rows, cols, (0,) * (rows * cols))

    def at(self, i: int, j: int) -> int:
        return self.entries[i * self.cols + j]

    def to_rows(self) -> list[list[int]]:
        return [list(self.entries[i * self.cols : (i + 1) * self.cols]) for i in range(self.rows)]

    def transpose(self) -> "IntMatrix":
        return IntMatrix(
            self.cols,
            self.rows,
            tuple(self.at(i, j) for j in range(self.cols) for i in range(self.rows)),
        )

    def mul(self, other: "IntMatrix") -> "IntMatrix":
        if self.cols != other.rows:
            raise GraphFormatError(
                f"cannot multiply {self.rows}x{self.cols} by {other.rows}x{other.cols}"
            )
        width = other.cols
        right = [
            [(j, x) for j, x in enumerate(other.entries[k * width : (k + 1) * width]) if x]
            for k in range(other.rows)
        ]
        out: list[int] = []
        for i in range(self.rows):
            acc = [0] * width
            for k, x in enumerate(self.entries[i * self.cols : (i + 1) * self.cols]):
                if x:
                    for j, y in right[k]:
                        acc[j] += x * y
            out.extend(acc)
        return IntMatrix(self.rows, width, tuple(out))

    def diagonal(self) -> tuple[int, ...]:
        return tuple(self.at(i, i) for i in range(min(self.rows, self.cols)))

    def is_diagonal(self) -> bool:
        # every nonzero entry is a diagonal one
        diagonal = self.diagonal()
        return len(self.entries) - self.entries.count(0) == len(diagonal) - diagonal.count(0)


def format_int_matrix(m: IntMatrix) -> str:
    """Row per line, space-separated integers."""
    return "".join(" ".join(str(x) for x in row) + "\n" for row in m.to_rows())


def parse_int_matrix(text: str) -> IntMatrix:
    rows = []
    for raw in text.splitlines():
        line = raw.strip()
        if not line:
            continue
        try:
            rows.append([int(tok) for tok in line.split()])
        except ValueError as exc:
            raise GraphFormatError(f"cannot parse matrix line {raw!r}") from exc
    return IntMatrix.from_rows(rows)


def determinant(m: IntMatrix) -> int:
    """Exact determinant via fraction-free (Bareiss) elimination.

    The Smith certificate does not use it; it stays as an independent check
    that a transform is unimodular.  The pivot is the nonzero entry of least
    absolute value in its column: on large unimodular Smith transforms the
    first nonzero entry can make the intermediate minors, and the divisions
    by them, orders of magnitude larger.  Step k keeps only the columns
    right of the pivot.  A row with 0 in the pivot column is just rescaled
    by ``pivot / previous pivot``, or left as it is when the two are equal.
    """
    if m.rows != m.cols:
        raise GraphFormatError("determinant needs a square matrix")
    n = m.rows
    if n == 0:
        return 1
    a = m.to_rows()
    sign = 1
    prev = 1
    for k in range(n - 1):
        candidates = [(abs(row[0]), i) for i, row in enumerate(a[k:], k) if row[0]]
        if not candidates:
            return 0
        i = min(candidates)[1]
        if i != k:
            a[k], a[i] = a[i], a[k]
            sign = -sign
        p, tail = a[k][0], a[k][1:]
        for i in range(k + 1, n):
            row = a[i]
            x = row[0]
            if x:
                a[i] = [(y * p - x * z) // prev for y, z in zip(row[1:], tail)]
            elif p == prev:
                a[i] = row[1:]
            else:
                a[i] = [y * p // prev for y in row[1:]]
        prev = p
    return sign * a[n - 1][0]


@dataclass(frozen=True)
class SnfResult:
    """Diagonal ``d`` plus unimodular ``u``, ``v`` with ``u * a * v = d``, and
    the inverses ``u_inv``, ``v_inv`` that prove the transforms unimodular.

    Diagonal entries are non-negative and each divides the next.
    """

    d: IntMatrix
    u: IntMatrix
    v: IntMatrix
    u_inv: IntMatrix
    v_inv: IntMatrix

    def divisors(self) -> tuple[int, ...]:
        """Nonzero diagonal entries, in chain order."""
        return tuple(x for x in self.d.diagonal() if x != 0)

    def rank(self) -> int:
        return len(self.divisors())


def verify_snf(a: IntMatrix, result: SnfResult) -> None:
    """Raise ``CertificateError`` unless the certificate is valid.

    It proves four facts by matrix products alone, with no determinant:
    ``d`` is diagonal; ``u * u_inv = I`` and ``v * v_inv = I``, so ``u`` and
    ``v`` are unimodular, since an integer matrix with an integer inverse has
    determinant +-1; ``u * a = d * v_inv``, which with ``v * v_inv = I``
    gives ``u * a * v = d``; and the diagonal is a divisor chain.
    """
    m, n = a.rows, a.cols
    shapes = [(x.rows, x.cols) for x in (result.d, result.u, result.u_inv, result.v, result.v_inv)]
    if shapes != [(m, n), (m, m), (m, m), (n, n), (n, n)]:
        raise CertificateError(f"Smith certificate broken: shapes {shapes} for a {m}x{n} matrix")
    if not result.d.is_diagonal():
        raise CertificateError("Smith certificate broken: d is not diagonal")
    if (
        result.u.mul(result.u_inv) != IntMatrix.identity(m)
        or result.v.mul(result.v_inv) != IntMatrix.identity(n)
    ):
        raise CertificateError("Smith certificate broken: transform is not unimodular")
    if result.u.mul(a) != result.d.mul(result.v_inv):
        raise CertificateError("Smith certificate broken: u*a*v != d")
    diag = result.d.diagonal()
    for x, y in zip(diag, diag[1:]):
        if x < 0 or y < 0 or (x == 0 and y != 0) or (x != 0 and y % x != 0):
            raise CertificateError(f"Smith certificate broken: bad divisor chain {diag}")


def _xgcd(a: int, b: int) -> tuple[int, int, int]:
    """g, x, y with x*a + y*b = g = gcd(a, b), g >= 0 for (a, b) != (0, 0)."""
    x, next_x = 1, 0
    y, next_y = 0, 1
    g, next_g = a, b
    while next_g:
        q = g // next_g
        x, next_x = next_x, x - q * next_x
        y, next_y = next_y, y - q * next_y
        g, next_g = next_g, g - q * next_g
    if g < 0:
        g, x, y = -g, -x, -y
    return g, x, y


def _axpy(dst: dict[int, int], src: dict[int, int], q: int) -> None:
    """Sparse ``dst += q * src`` for ``q != 0``, dropping entries that cancel."""
    for k, x in src.items():
        y = dst.get(k, 0) + q * x
        if y:
            dst[k] = y
        else:
            del dst[k]


def _unit_pivots(
    rows: dict[int, dict[int, int]],
    cols: dict[int, set[int]],
    u: dict[int, dict[int, int]],
    v_t: dict[int, dict[int, int]],
) -> list[tuple[int, int, dict[int, int], dict[int, int]]]:
    """Phase 1: eliminate +-1 pivots from the sparse matrix ``rows``.

    ``cols`` holds the rows of each column's nonzeros, and ``u`` and ``v_t``
    the rows of ``u`` and of ``v`` transposed, all sparse.  The pivot is the
    unit entry of least Markowitz cost ``(r - 1) * (c - 1)``, where ``r`` and
    ``c`` count the nonzeros of its row and column, then of least row, then
    of least column.  It is made +1, and its row and column leave ``rows``
    and ``cols``.

    Returns, per pivot in order, its row ``p`` and column ``c`` and the
    column ``p`` of ``u^-1`` and row ``c`` of ``v^-1``.  Those are final once
    the pivot is taken, and need no accumulation: the inverse of clearing
    column ``c`` by row ``p`` only touches column ``p`` of ``u^-1``, which
    is still a unit vector, since every earlier inverse touched the column of
    an earlier pivot row.  The same holds for ``v^-1`` by rows.
    """
    pivots = []
    while True:
        best = None
        for i, row in rows.items():
            # rows come in increasing order, so a later row cannot beat cost 0
            if best is not None and not best[0]:
                break
            r = len(row) - 1
            for j, x in row.items():
                if x == 1 or x == -1:
                    key = (r * (len(cols[j]) - 1), i, j)
                    if best is None or key < best:
                        best = key
        if best is None:
            return pivots
        _, p, c = best
        row = rows.pop(p)
        e = row.pop(c)
        others = cols.pop(c)
        others.discard(p)
        # row i += q * row p clears column c; the fill-in lands in row p's columns
        u_inv_col = {p: e}
        for i in others:
            target = rows[i]
            q = -target.pop(c) * e
            for j, x in row.items():
                y = target.get(j, 0) + q * x
                if y:
                    target[j] = y
                    cols[j].add(i)
                else:
                    del target[j]
                    cols[j].discard(i)
            _axpy(u[i], u[p], q)
            u_inv_col[i] = -q * e
        # column c is now zero outside row p, so column j += q * column c
        # only clears entry (p, j) of the matrix
        v_inv_row = {c: 1}
        for j, x in row.items():
            cols[j].discard(p)
            q = -x * e
            _axpy(v_t[j], v_t[c], q)
            v_inv_row[j] = -q
        if e < 0:
            u[p] = {k: -x for k, x in u[p].items()}
        pivots.append((p, c, u_inv_col, v_inv_row))


# Phase 2 works on a side, a triple of row lists (mat, fwd, inv): a row
# operation R acts on the rows of mat and of its transform fwd, and the
# transposed inverse of R on the rows of inv.  The row side is (core, U,
# U^-1 transposed); the column side is (core transposed, V transposed, V^-1),
# since a column operation C is the row operation C^T on the transpose.  So
# every operation is a row operation, and U^-1, V^-1 come out as the inverse
# operations applied in reverse order.
_Side = tuple[list[list[int]], ...]


def _swap(side: _Side, i: int, j: int) -> None:
    for rows in side:
        rows[i], rows[j] = rows[j], rows[i]


def _negate(side: _Side, i: int) -> None:
    for rows in side:
        rows[i] = [-x for x in rows[i]]


def _add(side: _Side, dst: int, src: int, q: int) -> None:
    """Row ``dst += q * row src``; on inv, row ``src -= q * row dst``."""
    mat, fwd, inv = side
    mat[dst] = [x + q * y if y else x for x, y in zip(mat[dst], mat[src])]
    fwd[dst] = [x + q * y if y else x for x, y in zip(fwd[dst], fwd[src])]
    inv[src] = [x - q * y if y else x for x, y in zip(inv[src], inv[dst])]


def _combine(side: _Side, r1: int, r2: int, x: int, y: int, xx: int, yy: int) -> None:
    """Rows ``(r1, r2) := (x*r1 + y*r2, xx*r1 + yy*r2)``, where ``x*yy - y*xx = 1``."""
    mat, fwd, inv = side
    for rows in (mat, fwd):
        one, two = rows[r1], rows[r2]
        rows[r1] = [x * p + y * q for p, q in zip(one, two)]
        rows[r2] = [xx * p + yy * q for p, q in zip(one, two)]
    one, two = inv[r1], inv[r2]
    inv[r1] = [yy * p - xx * q for p, q in zip(one, two)]
    inv[r2] = [x * q - y * p for p, q in zip(one, two)]


def _clear(side: _Side, t: int) -> None:
    """Zero column t of mat below row t, folding each entry the pivot does
    not divide into it by an extended-gcd 2x2 step (no swap cascades, so
    intermediate entries stay manageable)."""
    mat = side[0]
    for i in range(t + 1, len(mat)):
        b = mat[i][t]
        if not b:
            continue
        p = mat[t][t]
        if b % p == 0:
            _add(side, i, t, -(b // p))
        else:
            g, x, y = _xgcd(p, b)
            _combine(side, t, i, x, y, -(b // g), p // g)


def _core_pivot(d: list[list[int]], t: int) -> tuple[int, int] | None:
    """Least nonzero absolute value in the submatrix from (t, t), then least
    Markowitz cost, then first position in row-major order."""
    rest = [row[t:] for row in d[t:]]
    lo = min(map(abs, filter(None, chain.from_iterable(rest))), default=0)
    if not lo:
        return None
    # cost 0 is the least, so the first candidate of cost 0 is the pivot;
    # column counts are taken only once a candidate needs them
    col_nonzeros: list[int] = []
    best = (-1, 0, 0)
    for i, row in enumerate(rest):
        if lo not in row and -lo not in row:
            continue
        cols = [j for j, x in enumerate(row) if x == lo or x == -lo]
        r1 = len(row) - 1 - row.count(0)
        if not r1:
            return t + i, t + cols[0]
        if not col_nonzeros:
            col_nonzeros = [len(rest) - col.count(0) for col in zip(*rest)]
        c = min(map(col_nonzeros.__getitem__, cols))
        cost = r1 * (c - 1)
        if best[0] < 0 or cost < best[0]:
            best = (cost, i, next(j for j in cols if col_nonzeros[j] == c))
            if not cost:
                break
    return t + best[1], t + best[2]


def _reduce_core(d: list[list[int]], width: int, row_side: _Side, col_side: _Side) -> list[int]:
    """Phase 2: the dense gcd elimination of the core ``d`` (``width``
    columns); returns its Smith diagonal.  Column steps run as row steps on
    ``d`` transposed, which is transposed back after each."""

    def transposed(rows: list[list[int]]) -> list[list[int]]:
        return [list(col) for col in zip(*rows)]

    t = 0
    while t < min(len(d), width):
        pivot = _core_pivot(d, t)
        if pivot is None:
            break
        _swap((d, *row_side), t, pivot[0])
        d_t = transposed(d)
        _swap((d_t, *col_side), t, pivot[1])
        d = transposed(d_t)
        while True:
            _clear((d, *row_side), t)
            d_t = transposed(d)
            _clear((d_t, *col_side), t)
            d = transposed(d_t)
            # gcd column steps can re-dirty column t, hence the re-check;
            # a unit pivot divides everything
            if any(row[t] for row in d[t + 1 :]):
                continue
            p = d[t][t]
            offender = None
            if abs(p) != 1:
                below = range(t + 1, len(d))
                offender = next((i for i in below if any(x % p for x in d[i][t + 1 :])), None)
            if offender is None:
                break
            _add((d, *row_side), t, offender, 1)
        t += 1
    diagonal = [d[t][t] for t in range(min(len(d), width))]
    for t, x in enumerate(diagonal):
        if x < 0:
            _negate((d, *row_side), t)
            diagonal[t] = -x
    return diagonal


def _dense(terms: Iterable[tuple[int, dict[int, int]]], size: int) -> list[int]:
    """The dense row ``sum of q * row`` over the sparse rows of ``terms``."""
    out = [0] * size
    for q, row in terms:
        if q:
            for k, x in row.items():
                out[k] += q * x
    return out


def _stack(
    size: int,
    head: list[dict[int, int]],
    coefficients: list[list[int]],
    basis: list[dict[int, int]],
    transpose: bool = False,
) -> IntMatrix:
    """The square matrix whose rows (columns, if ``transpose``) are the
    sparse rows ``head``, then the combinations ``coefficients`` of the
    sparse rows ``basis``."""
    rows = [_dense([(1, row)], size) for row in head]
    rows += [_dense(zip(c, basis), size) for c in coefficients]
    return IntMatrix(size, size, tuple(chain.from_iterable(zip(*rows) if transpose else rows)))


def smith_normal_form(a: IntMatrix) -> SnfResult:
    """Diagonalize by unimodular row/column operations, in two phases.

    Phase 1 eliminates the +-1 entries on sparse rows (a dict per row, a set
    per column) in Markowitz order, so its cost follows the nonzeros and the
    fill-in rather than the matrix size (Kannan and Bachem, SIAM J. Comput.
    8 (1979); Havas, Majewski and Matthews, Experimental Math. 7 (1998)).
    Phase 2 hands the core left without a unit entry to a dense elimination:
    least nonzero absolute value as the pivot, entries it does not divide
    folded in by extended-gcd 2x2 steps, and the divisibility chain enforced
    before each advance.  The core's transforms are of the core's size and
    are combined with phase 1's rows at the end.  The diagonal holds the unit
    pivots in the order they were taken, then the core's.

    The transforms and their inverses are built along the way, and the
    certificate is checked by ``verify_snf`` before the result is returned.
    """
    m, n = a.rows, a.cols
    rows = {i: {j: x for j, x in enumerate(a.entries[i * n : (i + 1) * n]) if x} for i in range(m)}
    cols: dict[int, set[int]] = {j: set() for j in range(n)}
    for i, row in rows.items():
        for j in row:
            cols[j].add(i)
    u = {i: {i: 1} for i in range(m)}
    v_t = {j: {j: 1} for j in range(n)}
    pivots = _unit_pivots(rows, cols, u, v_t)

    core_rows, core_cols = sorted(rows), sorted(cols)
    k, width = len(core_rows), len(core_cols)
    core = [[rows[i].get(j, 0) for j in core_cols] for i in core_rows]
    # the core's own transforms: (U, U^-1 transposed), (V transposed, V^-1)
    row_side = (IntMatrix.identity(k).to_rows(), IntMatrix.identity(k).to_rows())
    col_side = (IntMatrix.identity(width).to_rows(), IntMatrix.identity(width).to_rows())
    diagonal = [1] * len(pivots) + _reduce_core(core, width, row_side, col_side)

    d = [0] * (m * n)
    for t, x in enumerate(diagonal):
        d[t * (n + 1)] = x
    # phase 1 leaves the core columns of u^-1 and the core rows of v^-1 unit
    # vectors, so the core's inverses are placed as they are
    unit_rows, unit_cols = [{i: 1} for i in core_rows], [{j: 1} for j in core_cols]
    result = SnfResult(
        d=IntMatrix(m, n, tuple(d)),
        u=_stack(m, [u[p] for p, *_ in pivots], row_side[0], [u[i] for i in core_rows]),
        v=_stack(n, [v_t[c] for _, c, *_ in pivots], col_side[0], [v_t[j] for j in core_cols], True),
        u_inv=_stack(m, [col for *_, col, _ in pivots], row_side[1], unit_rows, True),
        v_inv=_stack(n, [row for *_, row in pivots], col_side[1], unit_cols),
    )
    verify_snf(a, result)
    return result
