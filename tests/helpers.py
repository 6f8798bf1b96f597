"""Shared builders for the test suite: the handful of standard rings and
modules that the checks revolve around."""

from __future__ import annotations

from coarsecoh.grading import DegreeGroup, DegreeWindow, GroupEpimorphism
from coarsecoh.linalg import DirectedLimit, RowSpan
from coarsecoh.ringcore import (
    GradedModulePresentation,
    GradedPolynomialRing,
    MonomialIdeal,
)

Z1 = DegreeGroup(1)
Z2 = DegreeGroup(2)
Z_Z2 = DegreeGroup(1, (2,))


def ring_x():
    """K[x], standard Z grading."""
    return GradedPolynomialRing(Z1, ("x",), (Z1.degree((1,)),), (1,))


def std_ring_xy():
    """K[x,y], both variables in degree 1."""
    return GradedPolynomialRing(
        Z1, ("x", "y"), (Z1.degree((1,)), Z1.degree((1,))), (1,)
    )


def fine_ring_xy():
    """K[x,y] with its fine Z^2 grading."""
    return GradedPolynomialRing(
        Z2, ("x", "y"), (Z2.degree((1, 0)), Z2.degree((0, 1))), (1, 1)
    )


def mixed_ring_xy():
    """K[x,y] graded by Z + Z/2 with deg x = (1;1), deg y = (1;0)."""
    return GradedPolynomialRing(
        Z_Z2,
        ("x", "y"),
        (Z_Z2.degree((1,), (1,)), Z_Z2.degree((1,), (0,))),
        (1,),
    )


def sum_map():
    """Z^2 onto Z, (a,b) to a+b."""
    return GroupEpimorphism(Z2, Z1, (Z1.degree((1,)), Z1.degree((1,))))


def forget_torsion_map():
    """Z + Z/2 onto Z, projection away from the torsion summand."""
    return GroupEpimorphism(Z_Z2, Z1, (Z1.degree((1,)), Z1.zero()))


def maximal_ideal(ring):
    gens = []
    for i in range(ring.nvars):
        e = [0] * ring.nvars
        e[i] = 1
        gens.append(tuple(e))
    return MonomialIdeal(ring, gens)


def quotient_module(ring, *gen_monomials):
    return GradedModulePresentation.quotient_by_ideal(
        MonomialIdeal(ring, [ring.mono(**g) for g in gen_monomials])
    )


def window1(lo, hi):
    return DegreeWindow.box(Z1, (lo,), (hi,))


def window2(lo, hi):
    return DegreeWindow.box(Z2, lo, hi)


def chain_limit(dims, transitions):
    """DirectedLimit.of on a chain given as a list of transitions; fails
    the test if the rule asks for a step into or out of an empty stage."""

    def step(k):
        assert dims[k] and dims[k + 1], "step %d touches an empty stage" % (k + 1)
        return transitions[k]

    return DirectedLimit.of(dims, step)


def independent_columns(mat):
    """The columns of mat that are independent of the columns before them,
    found by ranks alone: the basis a limit model must pick."""
    picked = []
    for c in mat.cols:
        if RowSpan(mat.nrows, picked + [c]).dim > len(picked):
            picked.append(c)
    return picked


def fiber(psi, h, window):
    """Degrees of `window` that psi maps to h, in window order: the
    fiber-sum reference, one application of psi per degree and fiber."""
    return [g for g in window if psi.apply(g) == h]
