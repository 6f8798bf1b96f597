"""
Graded Hom, graded Ext, and limits along ideal powers
=====================================================

Hom here always means the graded Hom: the part of Hom(M, N) spanned by
homogeneous maps.  Ext is computed from an explicit free resolution of
R/a^n (subset-indexed, shifts by lcm degrees), and the limit over n is
certified degreewise by rank stabilization of long composites - the
table says at which power each degree settled.
"""

from coarsecoh import (
    DegreeGroup,
    DegreeWindow,
    GradedModulePresentation,
    GradedPolynomialRing,
    MonomialIdeal,
    colim_ext_table,
    graded_ext,
    hom_table,
)

Z1 = DegreeGroup(1)
R = GradedPolynomialRing(Z1, ("x",), (Z1.degree((1,)),), (1,))
a = MonomialIdeal(R, [R.mono(x=1)])
w = DegreeWindow.box(Z1, -2, 4)

# Hom between two quotients of K[x]: maps R/(x^2) -> R/(x^3) of degree g
# are multiplication by things of degree g that respect the relations
M = GradedModulePresentation.quotient_by_ideal(MonomialIdeal(R, [R.mono(x=2)]))
N = GradedModulePresentation.quotient_by_ideal(MonomialIdeal(R, [R.mono(x=3)]))
print("graded Hom(R/(x^2), R/(x^3)) by degree:")
for g, d in hom_table(M, N, w).rows():
    print("  %s  %d" % (g, d))

# Ext against a fixed power: Ext^1(R/(x^2), R) concentrates where the
# self-duality of the length-2 quotient puts it
print("\nExt^1(R/(x^2), R) by degree:")
t = graded_ext(1, a.power(2), N=GradedModulePresentation.free(R, [Z1.zero()]), window=w)
for g, d in t.rows():
    print("  %s  %d" % (g, d))

# the directed limit over all powers: for the quotient family this is the
# degreewise limit of Ext^1(R/(x^n), R), which is how the higher torsion
# functors are computed on the tower route.  The table also records the
# power at which each degree's rank data became certified.
F = GradedModulePresentation.free(R, [Z1.zero()])
table = colim_ext_table(1, a, F, w, n_cap=8, family="quotient")
print("\nlimit of Ext^1(R/(x^n), R) with the certified power per degree:")
for g in w:
    print("  %s  %d   settled at n = %d" % (g, table.get(g), table.stabilized_at[g]))
print("window-wide certified index:", table.global_index)
