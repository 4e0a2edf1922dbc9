"""
Smith normal form and the K-invariants of a graph
=================================================

Every K-group here comes from one exact integer computation: the Smith
normal form of the vertex matrix transposed minus the identity, restricted
to the columns of regular vertices.
"""

from ckgraph import (
    Graph,
    IntMatrix,
    format_k_invariants,
    is_cuntz_krieger,
    k_invariants,
    k_presentation_matrix,
    smith_normal_form,
    verify_snf,
)

# Smith normal form comes with a certificate: u * a * v = d with unimodular
# u, v and a divisor chain down the diagonal.
a = IntMatrix.from_rows([[2, 4], [6, 8]])
result = smith_normal_form(a)
print("diagonal:", result.diagonal)
verify_snf(a, result)  # raises if the certificate is broken
print("u =", result.u.to_rows())
print("v =", result.v.to_rows())

# The one-vertex bouquets: n loops on a single vertex.  For n >= 2 the
# K0 group is Z/(n-1) generated by the unit and K1 vanishes.
for n in (1, 2, 3, 5):
    bouquet = Graph.build(["v0"], [(f"l{i}", "v0", "v0") for i in range(n)])
    print(f"--- bouquet with {n} loop(s)")
    print("presentation:", k_presentation_matrix(bouquet).to_rows())
    print(format_k_invariants(k_invariants(bouquet)), end="")

# Deciding Cuntz-Krieger: a finite graph qualifies exactly when it has no
# sinks, equivalently when the K0 and K1 ranks agree.  Both verdicts are
# computed and cross-checked.
line = Graph.build(
    ["v0", "v1", "v2"],
    [("e0", "v0", "v0"), ("f", "v0", "v0"), ("e1", "v1", "v0"), ("e2", "v2", "v1")],
)
verdict, witness = is_cuntz_krieger(line)
print("line graph is CK:", verdict, witness)

sink = Graph.build(["v", "w"], [("a", "v", "w")])
verdict, witness = is_cuntz_krieger(sink)
print("sink graph is CK:", verdict, "- rank gap", witness.k0_rank - witness.k1_rank)
