"""
Coarsening a grading and checking that cohomology commutes with it
==================================================================

A surjection of degree groups regroups components by summing over its
fibers.  Summing a window-truncated table is only honest if nothing
nonzero lives over the target degree outside the window, so every fiber
sum carries a certificate: a finite kernel makes fibers finite, generator
degrees bound the support, or the caller explicitly assumes coverage.
Without one of the three the sum is refused.

The same scenarios drive the command line tool:

    coarsecoh check-commute scenarios/mixed-plane.scn --json
    coarsecoh coarsen scenarios/fine-plane.scn --assume-support-covered

exit code 0 means COMMUTES_ON_WINDOW, 2 a witnessed failure, 3 an
uncertified limit, 4 a refused fiber sum.
"""

from pathlib import Path

from coarsecoh import (
    CoarseningRefusal,
    check_commutation,
    coarsen_ring,
    coarsen_table,
    parse_scenario,
)

root = Path(__file__).parent.parent

# Z + Z/2 projected onto Z: the kernel is the finite torsion part, fibers
# have two elements, and every table coarsens with a finite-kernel
# certificate.  Commutation holds at i = 0, 1, 2 on the whole window.
scn = parse_scenario((root / "scenarios" / "mixed-plane.scn").read_text())
rep = check_commutation(
    scn.ideal,
    scn.module,
    scn.psi,
    [0, 1, 2],
    scn.gwindow,
    scn.hwindow,
    n_cap=scn.n_cap,
    coarse_certificate=scn.coarse_certificate,
)
print("mixed-plane scenario:", rep.verdict)
for e in rep.entries:
    cells = "  ".join(
        "%s:%d" % (h, e.coarsened.get(h)) for h in scn.hwindow if e.coarsened.get(h)
    )
    print("  i=%d via %s  %s" % (e.i, e.cert.route, cells or "all zero"))

# the sum map Z^2 -> Z has infinite kernel, so certification must come
# from support data.  A plain dimension table of the module still carries
# its generator degrees and coarsens without any extra assumption, as
# long as both ring descriptions are on hand to enumerate the support:
scn2 = parse_scenario((root / "scenarios" / "fine-plane.scn").read_text())
Rc = coarsen_ring(scn2.ring, scn2.psi, scn2.coarse_certificate)
table = scn2.module.hilbert(scn2.gwindow)
summed, cert = coarsen_table(
    table, scn2.psi, scn2.hwindow, fine_ring=scn2.ring, coarse_ring=Rc
)
print("\nfine-plane module table coarsened via %s:" % cert.route)
print(" ", {str(h): summed.get(h) for h in scn2.hwindow})

# a cohomology table in positive degrees has no generator data; with an
# infinite kernel the sum is refused unless coverage is assumed
from coarsecoh import local_cohomology

h1 = local_cohomology(scn2.ideal, 1, scn2.module, scn2.gwindow, route="ext", n_cap=scn2.n_cap)
try:
    coarsen_table(h1, scn2.psi, scn2.hwindow, fine_ring=scn2.ring, coarse_ring=Rc)
except CoarseningRefusal as err:
    print("\nH^1 table, no certificate: refused")
    print("  %s" % err)

summed1, cert1 = coarsen_table(
    h1,
    scn2.psi,
    scn2.hwindow,
    fine_ring=scn2.ring,
    coarse_ring=Rc,
    assume_support_covered=True,
)
print("with coverage assumed (route %s):" % cert1.route)
print(" ", {str(h): summed1.get(h) for h in scn2.hwindow})
