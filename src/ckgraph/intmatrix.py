"""Exact integer matrices and certified Smith normal form.

A matrix keeps its rows sparse, each a dict from column to nonzero entry,
and builds its dense row-major ``entries`` only when they are read.  A
graph's presentation holds about as many nonzeros as the graph has edges,
so it reaches the Smith routine and its certificate with no m x n dense
copy, and the Smith diagonal is kept as a tuple of min(m, n) entries.
Entries are Python ints, never fixed-width machine words: Smith pivots can
grow far past 64 bits even for small inputs, and every result here must be
exact.
The Smith routine runs in two phases: sparse unit pivots in Markowitz
order, then a dense extended-gcd elimination of the small core they leave.
It returns the diagonal together with what certifies it: the unit pivots'
inverse transforms, which are sparse and triangular in pivot order, and the
log of the core's elementary operations.  The certificate is re-verified on
every call, ``python -O`` included: one walk over each triangular factor
checks its types, its index bounds and its triangular shape, the
unimodularity of each logged operation is read off its kind, lines and
coefficients, phase 1's product is summed as outer products straight into
the rows it is compared with, and the log is replayed on the core; the
dense ``d`` and the transforms are built only when a caller asks for them.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from heapq import heapify, heappop, heappush
from itertools import chain
from typing import Iterable, Sequence

from .errors import CertificateError, GraphFormatError


Row = dict[int, int]  # a sparse row or column: index -> nonzero entry
Dense = tuple[tuple[int, ...], ...]  # dense rows or columns


@dataclass(frozen=True)
class IntMatrix:
    """Immutable integer matrix, kept as sparse rows; dimensions may be zero.

    ``data[i]`` maps a column to the entry of row i there.  It holds no zero
    and no column outside ``range(cols)``, so ``==`` compares entries
    exactly.  ``from_rows`` is the validated entry for outside input; the
    constructor trusts its caller.  ``entries``, the dense row-major tuple,
    is built on first read.
    """

    rows: int
    cols: int
    data: tuple[Row, ...]

    @staticmethod
    def from_rows(rows: Sequence[Sequence[int]]) -> "IntMatrix":
        nrows = len(rows)
        ncols = len(rows[0]) if nrows else 0
        data = []
        for row in rows:
            if len(row) != ncols:
                raise GraphFormatError("ragged rows in matrix data")
            for x in row:
                if not isinstance(x, int) or isinstance(x, bool):
                    raise GraphFormatError(f"matrix entry {x!r} is not an integer")
            data.append({j: x for j, x in enumerate(row) if x})
        return IntMatrix(nrows, ncols, tuple(data))

    @cached_property
    def entries(self) -> tuple[int, ...]:
        return tuple(chain.from_iterable(self.to_rows()))

    def to_rows(self) -> list[list[int]]:
        out = []
        for row in self.data:
            dense = [0] * self.cols
            for j, x in row.items():
                dense[j] = x
            out.append(dense)
        return out


def _transpose(rows: Sequence[Row], size: int) -> list[Row]:
    out: list[Row] = [{} for _ in range(size)]
    for i, row in enumerate(rows):
        for j, x in row.items():
            out[j][i] = x
    return out


def _expand(outer: Sequence[Row], block: Dense, columns: bool = False) -> IntMatrix:
    """The square matrix ``diag(I, block) * outer``, with ``outer`` given by
    rows, or by columns if ``columns``."""
    size = len(outer)
    split = size - len(block)
    rows = list(outer[:split])
    for line in block:
        acc: Row = {}
        for k, x in enumerate(line):
            if x:
                _axpy(acc, outer[split + k], x)
        rows.append(acc)
    return IntMatrix(size, size, tuple(_transpose(rows, size) if columns else rows))


def _axpy(dst: dict[int, int], src: dict[int, int], q: int) -> None:
    """Sparse ``dst += q * src`` for ``q != 0``, dropping entries that cancel."""
    for k, x in src.items():
        y = dst.get(k, 0) + q * x
        if y:
            dst[k] = y
        else:
            del dst[k]


def _solve(factor: Sequence[Row], order: Sequence[int]) -> list[Row]:
    """The inverse of a unit triangular factor, by forward substitution.

    ``factor[t]`` holds +-1 at index ``order[t]`` and its other entries at
    indices later in ``order``.  For a factor given by columns this returns
    the rows of its inverse, and for one given by rows the columns, in the
    same order.
    """
    rest = {i: {i: 1} for i in order}
    out = []
    for vector, i in zip(factor, order):
        # the pivot's own line is final once the earlier ones are subtracted
        line = rest.pop(i)
        if vector[i] != 1:
            line = {j: -x for j, x in line.items()}
        out.append(line)
        for k, x in vector.items():
            if k != i:
                _axpy(rest[k], line, -x)
    return out


# the faults of a sparse factor that ``_factor_fault`` names, which are
# also the words of the certificate's error messages
NON_INTEGER, SHAPES, NOT_UNIMODULAR = "non-integer", "shapes", "not unimodular"


def _factor_fault(
    factor: Sequence[Row], order: Sequence[int], bound: int, units: tuple[int, ...]
) -> str | None:
    """The fault of a sparse factor of the certificate whose message comes
    first, found in one walk over its entries, or ``None``.

    The faults, in the order of their messages: an index or entry that is
    not an int (``NON_INTEGER``, returned at once); an index outside
    ``range(bound)`` (``SHAPES``); and ``factor[t]`` holding no entry of
    ``units`` at index ``order[t]``, or an entry at an index earlier in
    ``order`` (``NOT_UNIMODULAR``).  A factor with none of them is, once its
    indices are put in ``order``, triangular with a unit diagonal, so of
    determinant +-1.  ``order`` holds ints; what is read off it counts only
    once the caller has found it a permutation of ``range(bound)``.  An
    index's type is checked before its position is looked up, since ``1.0``
    and ``True`` hash like ``1``.
    """
    position = dict(zip(order, range(len(order))))
    fault = None
    for t, (i, vector) in enumerate(zip(order, factor)):
        if vector.get(i) not in units:
            fault = fault or NOT_UNIMODULAR
        for j, x in vector.items():
            if type(j) is not int or type(x) is not int:
                return NON_INTEGER
            if not 0 <= j < bound:
                fault = SHAPES
            elif position.get(j, t) < t:
                fault = fault or NOT_UNIMODULAR
    return fault


# A phase-2 operation acts on lines of the core, rows or, if ``columns``,
# columns.  It is logged as a flat tuple:
#   ("swap", columns, i, j)                lines i and j trade places
#   ("negate", columns, i)                 line i := -line i
#   ("add", columns, j, ((i, q), ...))     line i += q * line j, for each pair
#   ("mix", columns, i, j, x, y, xx, yy)   (line i, line j) :=
#                                          (x*i + y*j, xx*i + yy*j), x*yy - y*xx = 1
# with i != j, and an add's targets distinct.  An add is the run of
# transvections from one source line between two mixes: the source does not
# change while it runs, so its pairs may apply in any order, and a batch of
# column adds reads each row once.  Each operation is unimodular by
# inspection, and the core's transforms are their products:
# c = E_n * ... * E_1 over the row operations and vc = F_1^T * ... * F_n^T
# over the column operations, where E and F are the operations' matrices on
# lines.
Op = tuple


def _apply(mat: list[list[int]], op: Op, within: bool) -> None:
    """Apply the line operation ``op`` to the rows of ``mat``, or, if
    ``within``, to the entries of each row: ``mat := E * mat``, or
    ``mat := mat * E^T``, where E is its matrix on lines.  ``op``'s own
    ``columns`` flag is not read, so one applier serves the elimination, the
    certificate's replay and the transforms built from the log."""
    kind = op[0]
    if kind == "add":
        _, _, j, pairs = op
        if within:
            for row in mat:
                y = row[j]
                if y:
                    for i, q in pairs:
                        row[i] += q * y
        else:
            source = [(k, y) for k, y in enumerate(mat[j]) if y]
            for i, q in pairs:
                row = mat[i]
                for k, y in source:
                    row[k] += q * y
    elif kind == "mix":
        _, _, i, j, x, y, xx, yy = op
        if within:
            for row in mat:
                one, two = row[i], row[j]
                row[i], row[j] = x * one + y * two, xx * one + yy * two
        else:
            one, two = mat[i], mat[j]
            mat[i] = [x * p + y * q for p, q in zip(one, two)]
            mat[j] = [xx * p + yy * q for p, q in zip(one, two)]
    elif kind == "swap":
        _, _, i, j = op
        if within:
            for row in mat:
                row[i], row[j] = row[j], row[i]
        else:
            mat[i], mat[j] = mat[j], mat[i]
    else:
        i = op[2]
        if within:
            for row in mat:
                row[i] = -row[i]
        else:
            mat[i] = [-x for x in mat[i]]


def _unimodular(log: Sequence[Op], k: int, w: int) -> bool:
    """Whether every logged operation is of a known kind, on distinct lines
    in range (below ``k`` for rows, ``w`` for columns), with integer
    coefficients and, for a mix, determinant 1: each operation's matrix then
    has determinant +-1, whatever the lines hold.  An add's pairs are a
    tuple of ``(target, q)`` tuples, so its replay reads what was checked."""
    for op in log:
        if type(op) is not tuple or len(op) < 3 or type(op[1]) is not bool:
            return False
        kind, columns, i, *rest = op
        bound = w if columns else k
        if type(i) is not int or not 0 <= i < bound:
            return False
        if kind == "negate" and not rest:
            continue
        if kind == "add" and len(rest) == 1 and type(rest[0]) is tuple:
            targets = set()
            for pair in rest[0]:
                if type(pair) is not tuple or len(pair) != 2:
                    return False
                j, q = pair
                if type(j) is not int or type(q) is not int or not 0 <= j < bound or j == i:
                    return False
                targets.add(j)
            if len(targets) != len(rest[0]):
                return False
            continue
        if kind == "swap" and len(rest) == 1:
            j = rest[0]
        elif kind == "mix" and len(rest) == 5:
            j, x, y, xx, yy = rest
            if not (type(x) is type(y) is type(xx) is type(yy) is int and x * yy - y * xx == 1):
                return False
        else:
            return False
        if type(j) is not int or not 0 <= j < bound or j == i:
            return False
    return True


@dataclass(frozen=True)
class SnfResult:
    """The Smith form ``d`` of an m x n matrix ``a``, with unimodular ``u``,
    ``v`` such that ``u * a * v = d``, kept as what the elimination did.

    ``diagonal`` holds the min(m, n) diagonal entries of ``d``; they are
    non-negative and each divides the next.  The unit pivots take rows
    ``row_order[:p]`` and columns ``col_order[:p]`` of ``a``, in that order;
    the rest of each order, increasing, is the core's.  They record
    ``L = u1^-1`` by columns and ``R = v1^-1`` by rows, sparse and
    indexed by the rows and columns of ``a``, with
    ``a = L * (I_p (+) core) * R``.  Column t of ``L`` holds +-1 at row
    ``row_order[t]`` and its other entries at rows later in ``row_order``;
    row t of ``R`` holds 1 at column ``col_order[t]`` and its others at
    columns later in ``col_order``.  So in pivot order ``L`` is lower and
    ``R`` upper triangular, both with a unit diagonal.  ``core``, dense by
    rows, is k x w with ``k = m - p`` and ``w = n - p``.  Its elimination is
    kept as ``log``, the operations it applied in order (see ``Op``), each
    run of adds from one line between two gcd steps logged as one ``add``:
    ``c`` is the product of the row operations and ``vc`` of the column
    operations, with ``c * core * vc = D_core``.  So
    ``u = diag(I, c) * L^-1`` and ``v = R^-1 * diag(I, vc)``.

    ``d``, ``u`` and ``v`` are the dense matrices, built on first access:
    ``u`` and ``v`` by triangular solves and ``_core_lines``, the one
    builder of ``c`` and ``vc``, which also gives a few of their lines
    without building the rest; ``cokernel`` gives the rows of ``u`` at the
    diagonal entries other than 1 in the same way.  A certificate written
    out by hand is the case where phase 1 took no pivot: both orders are the
    identity, ``L`` and ``R`` are identities, ``core`` is ``a`` and ``log``
    its elimination.
    """

    diagonal: tuple[int, ...]
    row_order: tuple[int, ...]
    col_order: tuple[int, ...]
    u1_inv: tuple[Row, ...]
    v1_inv: tuple[Row, ...]
    core: Dense
    log: tuple[Op, ...]

    def divisors(self) -> tuple[int, ...]:
        """Nonzero diagonal entries, in chain order."""
        return tuple(x for x in self.diagonal if x != 0)

    def rank(self) -> int:
        return len(self.divisors())

    def _core_lines(self, columns: bool, indices: Iterable[int]) -> list[list[int]]:
        """Rows ``indices`` of ``c``, or if ``columns`` columns ``indices`` of
        ``vc``, dense.  Row t of ``c = E_n * ... * E_1`` is
        ``e_t * E_n * ... * E_1``, and column t of ``vc = F_1^T * ... * F_n^T``
        is, as a row, ``e_t * F_n * ... * F_1``: that side's operations run
        backwards on the unit vector, each transposed, so a swap or mix costs
        two entries per line asked for, and an add one per pair and one more.
        A swap or negation is its own transpose; a mix's trades ``y`` and
        ``xx``; an add's gathers its targets, scaled, into its source."""
        # k = m - p rows of c, w = n - p columns of vc
        size = len(self.core) + (len(self.col_order) - len(self.row_order) if columns else 0)
        lines = [[0] * t + [1] + [0] * (size - t - 1) for t in indices]
        for op in reversed(self.log):
            if op[1] != columns:
                continue
            kind = op[0]
            if kind == "add":
                _, _, j, pairs = op
                for line in lines:
                    s = 0
                    for i, q in pairs:
                        x = line[i]
                        if x:
                            s += q * x
                    line[j] += s
            elif kind == "mix":
                _, _, i, j, x, y, xx, yy = op
                _apply(lines, (kind, columns, i, j, x, xx, y, yy), True)
            else:
                _apply(lines, op, True)
        return lines

    def cokernel(self) -> tuple[tuple[int, ...], list[Row]]:
        """The cokernel of ``a``: its divisors greater than 1, and for each
        entry d other than 1 of the diagonal, padded with 0 to one entry per
        row of ``a``, that row of ``u`` as a map from row of ``a`` to nonzero
        entry, reduced mod d unless d is 0.

        Every unit pivot's entry is 1, so these are rows of the core.  Row t
        of ``u = diag(I, c) * L^-1`` is the ``w`` with ``w * L`` equal to
        row t of ``diag(I, c)``.  Column s of ``L`` holds +-1 at row
        ``row_order[s]`` and its other entries at rows later in
        ``row_order``, so in reverse pivot order each column fixes one entry
        of ``w`` from those already fixed: one back substitution over ``L``."""
        m = len(self.row_order)
        split = m - len(self.core)
        diagonal = self.diagonal + (0,) * (m - len(self.diagonal))
        kept = [t for t in range(split, m) if diagonal[t] != 1]
        rows = []
        for t, line in zip(kept, self._core_lines(False, [t - split for t in kept])):
            target, d = [0] * split + line, diagonal[t]
            w: Row = {}
            for s in reversed(range(m)):
                i, column = self.row_order[s], self.u1_inv[s]
                # w holds no entry at i yet, so the sum runs over the later rows
                z = (target[s] - sum(w.get(k, 0) * x for k, x in column.items())) * column[i]
                if d:
                    z %= d
                if z:
                    w[i] = z
            rows.append(w)
        return tuple(d for d in diagonal if d > 1), rows

    @cached_property
    def d(self) -> IntMatrix:
        rows = [{t: x} if x else {} for t, x in enumerate(self.diagonal)]
        rows += [{} for _ in range(len(self.row_order) - len(rows))]
        return IntMatrix(len(self.row_order), len(self.col_order), tuple(rows))

    @cached_property
    def u(self) -> IntMatrix:
        c = self._core_lines(False, range(len(self.core)))
        return _expand(_solve(self.u1_inv, self.row_order), c)

    @cached_property
    def v(self) -> IntMatrix:
        split = len(self.row_order) - len(self.core)
        vc = self._core_lines(True, range(len(self.col_order) - split))
        return _expand(_solve(self.v1_inv, self.col_order), vc, columns=True)


def _phase1_product(
    columns: Sequence[Row], rows: Sequence[Row], diagonal: Sequence[int], core: Dense
) -> tuple[Row, ...]:
    """The rows of ``L * (D_p (+) core) * R``, with no zero, for ``L`` given
    by ``columns`` and ``R`` by ``rows``, both of checked shape.

    The product is a sum of outer products, added up straight into its
    rows: ``diagonal[t] * L[:, t] (x) R[t, :]`` for each pivot t, and
    ``core[s][j] * L[:, p + s] (x) R[p + j, :]`` for each nonzero of the
    core.  Entries that cancel are dropped at the end.
    """
    split = len(diagonal)
    core_terms = (
        (x, columns[split + s], rows[split + j])
        for s, line in enumerate(core)
        for j, x in enumerate(line)
        if x
    )
    product: list[Row] = [{} for _ in columns]
    for x, column, row in chain(zip(diagonal, columns, rows), core_terms):
        for i, y in column.items():
            q = x * y
            acc = product[i]
            for j, z in row.items():
                acc[j] = acc.get(j, 0) + q * z
    return tuple({j: z for j, z in row.items() if z} for row in product)


def verify_snf(a: IntMatrix, result: SnfResult) -> None:
    """Raise ``CertificateError`` unless the certificate is valid.

    It proves four facts, with no determinant and no product of transforms:

    * ``diagonal`` holds min(m, n) ints, so ``d`` is an integer diagonal
      matrix of ``a``'s shape;
    * ``u`` and ``v`` are unimodular.  Every order element, index and entry
      of the factors is an int, so ``L``, ``R`` and the core are integer
      matrices.  The orders are permutations, and in them ``L`` is lower
      triangular with a +-1 diagonal and ``R`` upper triangular with a
      diagonal of 1, so both have determinant +-1; this is read off their
      entries' positions, in the same walk over each factor that checks
      its types and index bounds (``_factor_fault``).  Each logged
      operation is of a known kind, on distinct lines inside the core, with
      integer coefficients and a mix of determinant 1; an add's targets are
      distinct ints in range other than its source, and each multiplier is
      an int, before it is replayed.  So ``c`` and ``vc``, their products,
      have determinant +-1;
    * ``a = L * (D_p (+) core) * R``, where ``D_p`` is the first p entries
      of ``diagonal``, and the log replayed on ``core`` gives ``D_core``,
      the other entries: that replay is ``c * core * vc``, so
      ``u * a * v = d``;
    * the diagonal is a divisor chain.

    So phase 1's checks cost time in the nonzeros of ``L`` and ``R``, which
    do not fill in on long unit-pivot chains: its product is a sum of one
    outer product per pivot and per nonzero of the core, added up straight
    into m sparse rows, which, once their cancelled zeros are dropped, equal
    ``a`` exactly when they equal ``a``'s sparse rows.  The core's check
    costs what its elimination cost on the core itself, and no more: the
    transforms, whose entries grow far larger than the core's, are never
    built.
    """
    m, n = a.rows, a.cols
    r = result
    k = len(r.core)
    split = m - k
    w = n - split
    # each sparse factor is walked once; its faults are raised below in the
    # order of the messages: non-integer, shapes, permutation, unimodularity
    if not set(map(type, chain(r.diagonal, r.row_order, r.col_order, *r.core))) <= {int}:
        raise CertificateError("Smith certificate broken: a factor holds a non-integer")
    faults = (
        _factor_fault(r.u1_inv, r.row_order, m, (1, -1)),
        _factor_fault(r.v1_inv, r.col_order, n, (1,)),
    )
    if NON_INTEGER in faults:
        raise CertificateError("Smith certificate broken: a factor holds a non-integer")
    factors = (r.row_order, r.col_order, r.u1_inv, r.v1_inv)
    shapes = [len(r.diagonal)] + [len(x) for x in factors]
    # the index bounds of L and R, and the core's k rows of w entries
    if (
        shapes != [min(m, n), m, n, m, n]
        or split < 0
        or w < 0
        or SHAPES in faults
        or not set(map(len, r.core)) <= {w}
    ):
        raise CertificateError(
            f"Smith certificate broken: shapes {shapes + [(k, w)]} for a {m}x{n} matrix"
        )
    if sorted(r.row_order) != list(range(m)) or sorted(r.col_order) != list(range(n)):
        raise CertificateError("Smith certificate broken: a pivot order is not a permutation")
    if NOT_UNIMODULAR in faults or not _unimodular(r.log, k, w):
        raise CertificateError("Smith certificate broken: transform is not unimodular")
    replay = [list(row) for row in r.core]
    for op in r.log:
        _apply(replay, op, op[1])
    diag = r.diagonal
    d_core = [[0] * w for _ in range(k)]
    for t, x in enumerate(diag[split:]):
        d_core[t][t] = x
    if replay != d_core or _phase1_product(r.u1_inv, r.v1_inv, diag[:split], r.core) != a.data:
        raise CertificateError("Smith certificate broken: u*a*v != d")
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


def _unit_pivots(
    rows: dict[int, dict[int, int]], cols: dict[int, set[int]]
) -> list[tuple[int, int, dict[int, int], dict[int, int]]]:
    """Phase 1: eliminate +-1 pivots from the sparse matrix ``rows``.

    ``cols`` holds the rows of each column's nonzeros.  The pivot is the unit
    entry of least Markowitz cost ``(r - 1) * (c - 1)``, where ``r`` and
    ``c`` count the nonzeros of its row and column, then of least row, then
    of least column.  Its row and column leave ``rows`` and ``cols``.

    Returns, per pivot in order, its row ``p`` and column ``c`` and the
    column ``p`` of ``u^-1`` and row ``c`` of ``v^-1``.  Those are final once
    the pivot is taken, and need no accumulation: the inverse of clearing
    column ``c`` by row ``p`` only touches column ``p`` of ``u^-1``, which
    is still a unit vector, since every earlier inverse touched the column of
    an earlier pivot row.  The same holds for ``v^-1`` by rows.  The forward
    transforms are not built: they fill in on long pivot chains, and their
    inverses, triangular in pivot order, determine them.

    A pivot of cost 0 comes from a heap of the rows that may hold one: a
    unit entry alone in its row or in its column.  A row gains one only when
    a pivot's row operation leaves it a single entry, or when it is left
    alone in one of the pivot row's columns, and both push it; so the least
    valid row on the heap is the least row holding a cost-0 unit, and the
    scan of every unit entry runs only when there is none.  The scan keeps
    the best cost, row and column so far in three locals and takes a unit
    entry on a lower cost, or on an equal cost in the same row at a lower
    column: rows come in increasing order, so that is the least
    ``(cost, row, column)``, with no key built per entry.

    The scan skips the rows that cannot hold the pivot.  With no unit of
    cost 0 left, each unit lies in a row of ``r + 1 >= 2`` entries and in a
    column of at least ``least + 1 >= 2``, where ``least + 1`` is the fewest
    entries of any column holding two or more; so it costs at least
    ``r * least``.  A row with ``best <= r * least`` is skipped, since a
    later row wins no tie, and the scan stops once ``best <= least``.
    ``least`` starts at 1, which skips a row whose ``r`` reaches the best
    cost and stops at cost 1.  It is made exact by one pass over ``cols``
    once the scan has read as many entries as there are columns, so the
    pass costs no more than the scan it prunes: a pass at every scan makes
    the cost-1 pivots of a long cycle with a chord quadratic.
    """
    pivots = []
    queue = [i for i, row in rows.items() if len(row) == 1]
    queue += [next(iter(held)) for held in cols.values() if len(held) == 1]
    heapify(queue)
    while True:
        # the best pivot so far: its cost, row p and column c; -1 for none
        best = p = c = -1
        while queue and best < 0:
            i = heappop(queue)
            row = rows.get(i, {})
            for j, x in row.items():
                if (x == 1 or x == -1) and (len(row) == 1 or len(cols[j]) == 1):
                    if best < 0 or j < c:
                        best, p, c = 0, i, j
        if best < 0:
            # a unit in a row of r + 1 entries costs at least r * least; the
            # exact least waits until the scan has read len(cols) entries
            least, unread = 1, len(cols)
            for i, row in rows.items():
                r = len(row) - 1
                if 0 <= best <= r * least:
                    if best <= least:
                        break
                    continue
                for j, x in row.items():
                    if x == 1 or x == -1:
                        cost = r * (len(cols[j]) - 1)
                        if cost < best or best < 0 or (cost == best and i == p and j < c):
                            best, p, c = cost, i, j
                if unread > 0:
                    unread -= r + 1
                    if unread <= 0:
                        sizes = (len(held) for held in cols.values() if len(held) > 1)
                        least = min(sizes, default=2) - 1
        if best < 0:
            return pivots
        row = rows.pop(p)
        e = row.pop(c)
        others = cols.pop(c)
        others.discard(p)
        # row i += q * row p clears column c; the fill-in lands in row p's columns
        u_inv_col = {p: e}
        for i in others:
            target = rows[i]
            q = -target.pop(c) * e
            # cols changes only where an entry fills in or cancels
            for j, x in row.items():
                y = target.get(j)
                if y is None:
                    target[j] = q * x
                    cols[j].add(i)
                    continue
                y += q * x
                if y:
                    target[j] = y
                else:
                    del target[j]
                    cols[j].discard(i)
            u_inv_col[i] = -q * e
            if len(target) == 1:
                heappush(queue, i)
        # column c is now zero outside row p, so column j += q * column c
        # only clears entry (p, j) of the matrix
        v_inv_row = {c: 1}
        for j, x in row.items():
            cols[j].discard(p)
            if len(cols[j]) == 1:
                heappush(queue, next(iter(cols[j])))
            v_inv_row[j] = x * e
        pivots.append((p, c, u_inv_col, v_inv_row))


def _log(d: list[list[int]], log: list[Op], op: Op) -> None:
    log.append(op)
    _apply(d, op, op[1])


def _clear(d: list[list[int]], log: list[Op], t: int, columns: bool = False) -> None:
    """Zero column t of the core below row t, or row t right of column t,
    folding each entry the pivot does not divide into it by an extended-gcd
    2x2 step (no swap cascades, so intermediate entries stay manageable).
    The lines the pivot divides are cleared by one add per run between two
    steps: each multiplier is read off its own line, which no other add of
    the run touches."""
    pairs: list[tuple[int, int]] = []
    for i in range(t + 1, len(d[t]) if columns else len(d)):
        b = d[t][i] if columns else d[i][t]
        if not b:
            continue
        p = d[t][t]
        if b % p == 0:
            pairs.append((i, -(b // p)))
            continue
        if pairs:
            _log(d, log, ("add", columns, t, tuple(pairs)))
            pairs = []
        g, x, y = _xgcd(p, b)
        _log(d, log, ("mix", columns, t, i, x, y, -(b // g), p // g))
    if pairs:
        _log(d, log, ("add", columns, t, tuple(pairs)))


def _core_pivot(d: list[list[int]], t: int) -> tuple[int, int] | None:
    """Least nonzero absolute value in the submatrix from (t, t), first in
    row-major order."""
    rest = [row[t:] for row in d[t:]]
    lo = min(map(abs, filter(None, chain.from_iterable(rest))), default=0)
    if not lo:
        return None
    i = next(i for i, row in enumerate(rest) if lo in row or -lo in row)
    return t + i, t + next(j for j, x in enumerate(rest[i]) if x == lo or x == -lo)


def _reduce_core(d: list[list[int]], width: int, log: list[Op]) -> list[int]:
    """Phase 2: the dense gcd elimination of the core ``d`` (``width``
    columns), in place, appending its operations to ``log``; returns its
    Smith diagonal."""
    t = 0
    while t < min(len(d), width):
        pivot = _core_pivot(d, t)
        if pivot is None:
            break
        if pivot[0] != t:
            _log(d, log, ("swap", False, t, pivot[0]))
        if pivot[1] != t:
            _log(d, log, ("swap", True, t, pivot[1]))
        while True:
            _clear(d, log, t)
            _clear(d, log, t, columns=True)
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
            _log(d, log, ("add", False, offender, ((t, 1),)))
        t += 1
    diagonal = [d[t][t] for t in range(min(len(d), width))]
    for t, x in enumerate(diagonal):
        if x < 0:
            _log(d, log, ("negate", False, t))
            diagonal[t] = -x
    return diagonal


def smith_normal_form(a: IntMatrix) -> SnfResult:
    """Diagonalize by unimodular row/column operations, in two phases.

    Phase 1 eliminates the +-1 entries on sparse rows (a dict per row, a set
    per column) in Markowitz order, so its cost follows the nonzeros and the
    fill-in rather than the matrix size (Kannan and Bachem, SIAM J. Comput.
    8 (1979); Havas, Majewski and Matthews, Experimental Math. 7 (1998)).
    Phase 2 hands the core left without a unit entry to a dense elimination:
    the first entry of least nonzero absolute value as the pivot, entries it
    does not divide folded in by extended-gcd 2x2 steps, and the
    divisibility chain enforced before each advance.  The diagonal holds the unit pivots in the order
    they were taken, then the core's.

    Phase 1 records only the inverses of its transforms, which are
    triangular in pivot order and do not fill in.  Phase 2 acts on the core
    alone and logs its operations: the core's transforms, whose entries grow
    far past the core's own, are never multiplied out.  The certificate is
    checked on these factors and that log by ``verify_snf`` before the
    result is returned.
    """
    n = a.cols
    rows = {i: dict(row) for i, row in enumerate(a.data)}
    cols: dict[int, set[int]] = {j: set() for j in range(n)}
    for i, row in rows.items():
        for j in row:
            cols[j].add(i)
    pivots = _unit_pivots(rows, cols)

    core_rows, core_cols = sorted(rows), sorted(cols)
    width = len(core_cols)
    core = [[rows[i].get(j, 0) for j in core_cols] for i in core_rows]
    phase1_core = tuple(map(tuple, core))  # _reduce_core changes core
    log: list[Op] = []
    diagonal = [1] * len(pivots) + _reduce_core(core, width, log)

    # phase 1 leaves the core columns of u^-1 and the core rows of v^-1 unit
    # vectors
    pivot_rows, pivot_cols, u_inv_cols, v_inv_rows = zip(*pivots) if pivots else ((),) * 4
    result = SnfResult(
        diagonal=tuple(diagonal),
        row_order=pivot_rows + tuple(core_rows),
        col_order=pivot_cols + tuple(core_cols),
        u1_inv=u_inv_cols + tuple({i: 1} for i in core_rows),
        v1_inv=v_inv_rows + tuple({j: 1} for j in core_cols),
        core=phase1_core,
        log=tuple(log),
    )
    verify_snf(a, result)
    return result
