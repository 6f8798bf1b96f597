"""Exact-arithmetic workbench for graded local cohomology.

Everything here runs over the rationals with no floating point anywhere:
dimension tables, torsion submodules, local cohomology along a monomial
ideal (two independent routes), ideal transforms, and the machinery for
coarsening a grading along a surjection of degree groups and checking
whether cohomology commutes with that coarsening on a finite window.

The usual entry points:

- :class:`DegreeGroup`, :class:`Degree`, :class:`DegreeWindow`,
  :class:`GroupEpimorphism` -- gradings and maps between them.
- :class:`GradedPolynomialRing`, :class:`MonomialIdeal`,
  :class:`GradedModulePresentation`, :class:`HilbertTable` -- rings,
  ideals, finitely presented graded modules, dimension tables.  A
  presentation takes each relation as its entries, a dict
  {generator index: Poly}, and derives the relation's degree from them.
- :func:`hom_table`, :func:`graded_ext`, :func:`colim_ext_table` --
  graded Hom/Ext and the directed limit of Ext along ideal powers.
- :func:`local_cohomology`, :func:`cech_table`,
  :func:`torsion_submodule`, :func:`torsion_basis`,
  :func:`ideal_transform`, :func:`check_transform_sequence` -- the
  cohomology side.
- :func:`coarsen_ring`, :func:`coarsen_module`, :func:`coarsen_table`,
  :func:`check_commutation`, :func:`check_gamma_identity`,
  :func:`hom_comparison` -- coarsening and the commutation checks.
- :func:`build_witness_hom`, :func:`counterexample_report` -- the
  rational-exponent monoid algebra used to probe where coarsening of
  torsion functors genuinely breaks.
- :func:`parse_scenario`, :func:`serialize_scenario` -- the text format
  consumed by the command line tool.
"""

from .errors import (
    CoarseningRefusal,
    HomogeneityError,
    ScenarioError,
    UnstabilizedError,
)
from .grading import Degree, DegreeGroup, DegreeWindow, GroupEpimorphism
from .ringcore import (
    GradedModulePresentation,
    GradedPolynomialRing,
    HilbertTable,
    MonomialIdeal,
    Poly,
)
from .homres import (
    GradedHomSpace,
    PowerTower,
    colim_ext_table,
    graded_ext,
    hom_table,
    taylor_complex,
)
from .localcoh import (
    TransformSequenceReport,
    cech_table,
    check_transform_sequence,
    ideal_transform,
    local_cohomology,
    torsion_basis,
    torsion_submodule,
)
from .coarsen import (
    CoarseningCertificate,
    CommutationReport,
    GammaIdentityReport,
    check_commutation,
    check_gamma_identity,
    coarsen_module,
    coarsen_ring,
    coarsen_table,
    compare_tables,
    derive_coarse_certificate,
    hom_comparison,
)
from .monoidx import (
    CounterexampleReport,
    MonoidAlgebraElement,
    TailIdeal,
    WitnessHom,
    build_witness_hom,
    counterexample_report,
    idempotency_witness,
    non_finite_generation_witness,
)
from .scenario import Scenario, parse_scenario, serialize_scenario

__version__ = "0.1.0"

__all__ = [
    "CoarseningCertificate",
    "CoarseningRefusal",
    "CommutationReport",
    "CounterexampleReport",
    "Degree",
    "DegreeGroup",
    "DegreeWindow",
    "GammaIdentityReport",
    "GradedHomSpace",
    "GradedModulePresentation",
    "GradedPolynomialRing",
    "GroupEpimorphism",
    "HilbertTable",
    "HomogeneityError",
    "MonoidAlgebraElement",
    "MonomialIdeal",
    "Poly",
    "PowerTower",
    "Scenario",
    "ScenarioError",
    "TailIdeal",
    "TransformSequenceReport",
    "UnstabilizedError",
    "WitnessHom",
    "build_witness_hom",
    "cech_table",
    "check_commutation",
    "check_gamma_identity",
    "check_transform_sequence",
    "coarsen_module",
    "coarsen_ring",
    "coarsen_table",
    "colim_ext_table",
    "compare_tables",
    "counterexample_report",
    "derive_coarse_certificate",
    "graded_ext",
    "hom_comparison",
    "hom_table",
    "ideal_transform",
    "idempotency_witness",
    "local_cohomology",
    "non_finite_generation_witness",
    "parse_scenario",
    "serialize_scenario",
    "taylor_complex",
    "torsion_basis",
    "torsion_submodule",
]
