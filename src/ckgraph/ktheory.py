"""K-group invariants of a finite graph, computed by exact Smith reduction.

For a finite graph the K0 group is the cokernel and the K1 group the kernel
of the map given by the transposed vertex matrix minus the identity,
restricted to the columns of regular vertices, into the free abelian group
on all vertices.  Both are read off one Smith normal form, computed once per
graph object on first use.  The graph keeps what K0 and K1 need of it, not
the Smith form itself: the invariants, which are the torsion divisors, the
two ranks and the unit's profile, and the coordinate rows of K0, that is,
for each divisor other than 1, the matching row of the Smith transform
``u`` as a map from vertex to coefficient, which ``SnfResult.cokernel``
gives with the torsion without building ``u``.  They are freed with the
graph; no cache is shared across graphs.  The class of a vertex-coefficient
vector is one sum per row over its support.  The class of the unit is the
image of the all-ones vector, so its sums are the rows' own sums, read once
when the engine is built; it is summarized by an automorphism-invariant
profile (its order plus divisibility flags), which is what can be compared
across different graphs.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd, lcm
from typing import Iterable, Mapping

from .errors import CertificateError, PreconditionError, require_int
from .graph import Graph, _unknown_vertex
from .intmatrix import IntMatrix, smith_normal_form

DIVISIBILITY_FLAGS = 12


@dataclass(frozen=True)
class UnitProfile:
    """Order of the unit class in K0 (``None`` for infinite) and, for each
    k = 1..12, whether the class is divisible by k."""

    order: int | None
    divisible_by: tuple[bool, ...]


@dataclass(frozen=True)
class KInvariants:
    k0_torsion: tuple[int, ...]
    k0_rank: int
    k1_rank: int
    unit_profile: UnitProfile

    def groups_equal(self, other: "KInvariants") -> bool:
        """Same K0 and K1 as abstract groups (unit class ignored)."""
        return (
            self.k0_torsion == other.k0_torsion
            and self.k0_rank == other.k0_rank
            and self.k1_rank == other.k1_rank
        )


@dataclass(frozen=True)
class K0Class:
    """Coordinates of a K0 element: residues against the torsion divisors,
    then the free components.

    They are taken in the basis that the graph's Smith transform gives, so
    they are deterministic for one graph but comparable only within it.
    """

    torsion: tuple[int, ...]
    free: tuple[int, ...]

    def is_zero(self) -> bool:
        return not any(self.torsion) and not any(self.free)


@dataclass(frozen=True)
class _K0Engine:
    vertices: frozenset[str]  # the ids a query may name
    # the coordinate rows: for each divisor d other than 1 of the Smith
    # diagonal, padded with 0 to one entry per vertex, its row of u as a map
    # from vertex to nonzero coefficient, in diagonal order, so the torsion
    # rows come first; reduced mod d for torsion, exact for d = 0
    rows: tuple[dict[str, int], ...]
    invariants: KInvariants

    def class_of(self, coefficients: Mapping[str, int]) -> K0Class:
        """The coordinates of ``u * x`` against the divisors other than 1:
        one sum per kept row of ``u`` over the support of ``x``."""
        for v, c in coefficients.items():
            if v not in self.vertices:
                raise _unknown_vertex(v)
            require_int(c, "coefficient")
        y = [sum(row.get(v, 0) * c for v, c in coefficients.items()) for row in self.rows]
        return _coordinates(y, self.invariants.k0_torsion)


def _coordinates(y: list[int], torsion: tuple[int, ...]) -> K0Class:
    """The class whose sums against the coordinate rows are ``y``."""
    return K0Class(tuple(r % d for r, d in zip(y, torsion)), tuple(y[len(torsion) :]))


def _engine_of(g: Graph) -> _K0Engine:
    # built on first use and kept in the graph's instance dict beside its
    # cached properties, so it dies with the graph; an edit carries none
    engine = g.__dict__.get("_k0")
    if engine is None:
        engine = g.__dict__["_k0"] = _engine(g.vertices, k_presentation_matrix(g))
    return engine


def _engine(vertices: tuple[str, ...], presentation: IntMatrix) -> _K0Engine:
    """The engine of a presentation with one row per vertex and one column
    per regular vertex: its cokernel's rows, labelled by vertex, and its
    invariants, the K0 and K1 ranks being the presentation's rows less the
    torsion and its columns less its rank.  The unit is the all-ones vector,
    so its sums against the rows are the rows' sums."""
    snf = smith_normal_form(presentation)
    torsion, rows = snf.cokernel()
    labelled = tuple({vertices[i]: x for i, x in row.items()} for row in rows)
    ranks = (len(rows) - len(torsion), presentation.cols - snf.rank())
    unit = _coordinates([sum(row.values()) for row in rows], torsion)
    flags = _divisible_by(unit, torsion, range(1, DIVISIBILITY_FLAGS + 1))
    invariants = KInvariants(torsion, *ranks, UnitProfile(_class_order(unit, torsion), flags))
    return _K0Engine(frozenset(vertices), labelled, invariants)


def k_presentation_matrix(g: Graph) -> IntMatrix:
    """The map whose cokernel is K0 and kernel is K1: one column per regular
    vertex, one row per vertex.  Column j, for the regular vertex w, holds
    the edge counts from w, less 1 at w itself; its rows are built in one
    pass over the out-edges."""
    row_of = {v: i for i, v in enumerate(g.vertices)}
    regulars = [(w, edges) for w in g.vertices if (edges := g.out_edges(w))]
    rows: list[dict[int, int]] = [{} for _ in g.vertices]
    for j, (w, edges) in enumerate(regulars):
        column = {row_of[w]: -1}
        for e in edges:
            i = row_of[e.dst]
            column[i] = column.get(i, 0) + 1
        # a single loop at w cancels the -1: the matrix holds no zero
        for i, x in column.items():
            if x:
                rows[i][j] = x
    return IntMatrix(len(g.vertices), len(regulars), tuple(rows))


def k0_class_of(g: Graph, coefficients: Mapping[str, int]) -> K0Class:
    """Coordinates of the class of a vertex-coefficient vector in K0."""
    return _engine_of(g).class_of(coefficients)


def k0_class_divisible(g: Graph, coefficients: Mapping[str, int], k: int) -> bool:
    """Whether the class lies in k * K0."""
    require_int(k, "divisor", least=1)
    engine = _engine_of(g)
    return _divisible_by(engine.class_of(coefficients), engine.invariants.k0_torsion, (k,))[0]


def _divisible_by(cls: K0Class, torsion: tuple[int, ...], ks: Iterable[int]) -> tuple[bool, ...]:
    """For each k of ``ks``, whether the class lies in k * K0: k divides the
    gcd of its free part, and gcd(k, d) divides its residue against each
    torsion divisor d."""
    free = gcd(*cls.free)
    pairs = tuple(zip(cls.torsion, torsion))
    return tuple(free % k == 0 and all(r % gcd(k, d) == 0 for r, d in pairs) for k in ks)


def _class_order(cls: K0Class, torsion: tuple[int, ...]) -> int | None:
    if any(cls.free):
        return None
    return lcm(1, *(d // gcd(d, r) for r, d in zip(cls.torsion, torsion)))


def k_invariants(g: Graph) -> KInvariants:
    """K0, K1 and the unit profile, computed once per graph object."""
    return _engine_of(g).invariants


@dataclass(frozen=True)
class CkWitness:
    """Both verdicts behind a Cuntz-Krieger decision: the combinatorial one
    (sink list) and the K-theoretic one (rank comparison)."""

    sinks: tuple[str, ...]
    k0_rank: int
    k1_rank: int


def is_cuntz_krieger(g: Graph) -> tuple[bool, CkWitness]:
    """Decide whether the graph algebra is a Cuntz-Krieger algebra.

    For a finite nonempty graph this holds exactly when there are no sinks;
    equivalently the K0 and K1 ranks agree.  Both tests run and must agree.
    Sources are fine: they are removable by normalization.
    """
    if not g.vertices:
        raise PreconditionError("empty-graph", "the empty graph has no unital graph algebra")
    inv = _engine_of(g).invariants
    witness = CkWitness(sinks=g.sinks, k0_rank=inv.k0_rank, k1_rank=inv.k1_rank)
    combinatorial = not witness.sinks
    ranks_agree = inv.k0_rank == inv.k1_rank
    if combinatorial != ranks_agree:
        raise CertificateError(
            f"sink test ({combinatorial}) and rank test ({ranks_agree}) disagree: {witness}"
        )
    return combinatorial, witness


def format_k_invariants(inv: KInvariants) -> str:
    """Stable key-value record, one field per line."""
    record = k_invariants_dict(inv)
    torsion = ",".join(map(str, record["k0_torsion"])) or "-"
    divisible = ",".join(map(str, record["unit_divisible_by"]))
    return (
        f"k0_torsion = {torsion}\n"
        f"k0_rank = {record['k0_rank']}\n"
        f"k1_rank = {record['k1_rank']}\n"
        f"unit_order = {record['unit_order']}\n"
        f"unit_divisible = {divisible}\n"
    )


def k_invariants_dict(inv: KInvariants) -> dict:
    """JSON-ready form of the record."""
    return {
        "k0_torsion": list(inv.k0_torsion),
        "k0_rank": inv.k0_rank,
        "k1_rank": inv.k1_rank,
        "unit_order": "infinite" if inv.unit_profile.order is None else inv.unit_profile.order,
        "unit_divisible_by": [
            k for k, flag in enumerate(inv.unit_profile.divisible_by, start=1) if flag
        ],
    }
