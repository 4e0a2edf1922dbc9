"""Exact integer matrices and certified Smith normal form.

Entries are Python ints, never fixed-width machine words: Smith pivots can
grow far past 64 bits even for small inputs, and every result here must be
exact.  The Smith routine returns the diagonal together with the unimodular
transforms that certify it, and re-verifies the certificate on every call,
``python -O`` included.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain
from typing import Sequence

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
        return all(
            self.at(i, j) == 0
            for i in range(self.rows)
            for j in range(self.cols)
            if i != j
        )


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

    The pivot is the nonzero entry of least absolute value in its column: on
    large unimodular Smith transforms the first nonzero entry can make the
    intermediate minors, and the divisions by them, orders of magnitude
    larger.  Step k keeps only the columns right of the pivot.  A row with 0
    in the pivot column is just rescaled by ``pivot / previous pivot``, or
    left as it is when the two are equal.
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
    """Diagonal ``d`` plus unimodular ``u``, ``v`` with ``u * a * v = d``.

    Diagonal entries are non-negative and each divides the next.
    """

    d: IntMatrix
    u: IntMatrix
    v: IntMatrix

    def divisors(self) -> tuple[int, ...]:
        """Nonzero diagonal entries, in chain order."""
        return tuple(x for x in self.d.diagonal() if x != 0)

    def rank(self) -> int:
        return len(self.divisors())


def verify_snf(a: IntMatrix, result: SnfResult) -> None:
    """Raise ``CertificateError`` unless the certificate is valid."""
    if result.u.mul(a).mul(result.v) != result.d:
        raise CertificateError("Smith certificate broken: u*a*v != d")
    if not result.d.is_diagonal():
        raise CertificateError("Smith certificate broken: d is not diagonal")
    if abs(determinant(result.u)) != 1 or abs(determinant(result.v)) != 1:
        raise CertificateError("Smith certificate broken: transform is not unimodular")
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


def smith_normal_form(a: IntMatrix) -> SnfResult:
    """Diagonalize by unimodular row/column operations.

    Pivot choice, in the remaining submatrix: least nonzero absolute value,
    then least Markowitz cost ``(r - 1) * (c - 1)``, where ``r`` and ``c``
    count the nonzero entries of the pivot's row and column there, then first
    position in row-major order.  The cost bounds the fill-in of eliminating
    the pivot, so the unit entries of a sparse matrix are taken in an order
    that keeps it sparse.  Non-divisible entries are folded into the pivot
    by extended-gcd 2x2 transforms (one step per entry, no swap cascades, so
    intermediate entries stay manageable); transforms are accumulated
    explicitly and the divisibility chain is enforced before each advance.
    """
    m, n = a.rows, a.cols
    d = a.to_rows()
    u = IntMatrix.identity(m).to_rows()
    v = IntMatrix.identity(n).to_rows()

    def row_swap(i: int, j: int) -> None:
        d[i], d[j] = d[j], d[i]
        u[i], u[j] = u[j], u[i]

    def row_add(dst: int, src: int, q: int) -> None:
        d[dst] = [x + q * y if y else x for x, y in zip(d[dst], d[src])]
        u[dst] = [x + q * y if y else x for x, y in zip(u[dst], u[src])]

    def row_combine(r1: int, r2: int, x: int, y: int, xx: int, yy: int) -> None:
        # unimodular when x*yy - y*xx = +-1
        for mat in (d, u):
            one = [x * p + y * q for p, q in zip(mat[r1], mat[r2])]
            two = [xx * p + yy * q for p, q in zip(mat[r1], mat[r2])]
            mat[r1], mat[r2] = one, two

    def row_negate(i: int) -> None:
        d[i] = [-x for x in d[i]]
        u[i] = [-x for x in u[i]]

    def col_swap(i: int, j: int) -> None:
        if i != j:
            for mat in (d, v):
                for row in mat:
                    row[i], row[j] = row[j], row[i]

    # column operations skip the rows that are 0 in every column they read
    def col_add(dst: int, src: int, q: int) -> None:
        for mat in (d, v):
            for row in mat:
                if row[src]:
                    row[dst] += q * row[src]

    def col_combine(c1: int, c2: int, x: int, y: int, xx: int, yy: int) -> None:
        for mat in (d, v):
            for row in mat:
                p, q = row[c1], row[c2]
                if p or q:
                    row[c1], row[c2] = x * p + y * q, xx * p + yy * q

    def find_pivot(t: int) -> tuple[int, int] | None:
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

    t = 0
    while t < min(m, n):
        pivot = find_pivot(t)
        if pivot is None:
            break
        row_swap(t, pivot[0])
        col_swap(t, pivot[1])
        while True:
            for i in range(t + 1, m):
                b = d[i][t]
                if not b:
                    continue
                p = d[t][t]
                if b % p == 0:
                    row_add(i, t, -(b // p))
                else:
                    g, x, y = _xgcd(p, b)
                    row_combine(t, i, x, y, -(b // g), p // g)
            for j in range(t + 1, n):
                b = d[t][j]
                if not b:
                    continue
                p = d[t][t]
                if b % p == 0:
                    col_add(j, t, -(b // p))
                else:
                    g, x, y = _xgcd(p, b)
                    col_combine(t, j, x, y, -(b // g), p // g)
            # gcd column transforms can re-dirty column t, hence the re-check;
            # a unit pivot divides everything
            if all(d[i][t] == 0 for i in range(t + 1, m)):
                if abs(d[t][t]) == 1:
                    break
                offender = next(
                    (
                        i
                        for i in range(t + 1, m)
                        for j in range(t + 1, n)
                        if d[i][j] % d[t][t]
                    ),
                    None,
                )
                if offender is None:
                    break
                row_add(t, offender, 1)
        t += 1

    for i in range(min(m, n)):
        if d[i][i] < 0:
            row_negate(i)

    def freeze(data: list[list[int]], nrows: int, ncols: int) -> IntMatrix:
        return IntMatrix(nrows, ncols, tuple(chain.from_iterable(data)))

    result = SnfResult(
        d=freeze(d, m, n), u=freeze(u, m, m), v=freeze(v, n, n)
    )
    verify_snf(a, result)
    return result
