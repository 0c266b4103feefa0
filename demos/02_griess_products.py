"""
Griess products of Ising vectors, two ways
==========================================

Each positive root alpha yields an Ising vector e(alpha).  The package
carries two independent routes to their products and pairings:

* closed forms on the span of the e(alpha), evaluated inside the axis
  algebra, and
* an oracle that expands each e(alpha) as an explicit weight-2 element
  (a quadratic Heisenberg part plus lattice-vector terms with exact
  rational coefficients) and multiplies those directly.

The two routes agree pair by pair; the demo shows both on A2 and then
reads off the central charge.
"""

from fractions import Fraction

from weyl_ising import (
    Weight2Element,
    build_root_system,
    from_root_system,
    ising_vector,
    malpha_lattice,
    oracle_pairing,
    oracle_product,
    virasoro,
)

R = build_root_system("A", 2)

# Route 1: the axis algebra on the three positive roots of A2.
A = from_root_system(R)
labels = list(A.axes)
print(f"A2: axis algebra on {len(labels)} Ising vectors")

# Every single axis is idempotent after rescaling: e*e = 2e, <e,e> = 1/4.
e = labels[0]
assert A.product(A.axis(e), A.axis(e)) == {e: 2}
assert A.pairing(A.axis(e), A.axis(e)) == Fraction(1, 4)
print("axis normalization: e*e = 2e and <e,e> = 1/4")

# Route 2: the weight-2 oracle for the same roots.  Each Ising vector
# lives in the lattice M_alpha = Z alpha tensored with E8.
vectors = {a: ising_vector(malpha_lattice(R, a)) for a in labels}
a, b = labels[0], labels[1]
pairing = oracle_pairing(vectors[a], vectors[b])
print(f"oracle pairing <e(a),e(b)> = {pairing}")

# The same pairing through the axis algebra's closed form.
assert A.pairing(A.axis(a), A.axis(b)) == pairing

# Products agree as full weight-2 elements: expand the closed-form
# product (a combination of Ising vectors) into oracle coordinates.
closed = A.product(A.axis(a), A.axis(b))
dim = 8 * R.ambient_dim
expanded = Weight2Element.zero(dim)
for label, coeff in closed.items():
    expanded = expanded + vectors[label].scale(coeff)
assert expanded == oracle_product(vectors[a], vectors[b])
print("closed-form product matches the oracle expansion")

# The conformal vector of the span has central charge 16/11 for A2.
report = virasoro(A)
print(f"central charge of A2: {report.central_charge}")
assert report.central_charge == Fraction(16, 11)
