"""Exact Hall algebra arithmetic for odd-periodic quiver representation
categories over prime fields. The period is
:attr:`perihall.category.PeriodicContext.t`, 3 by default; the tests also
run t = 5 and 7, and only the chain-level model stays 3-periodic.

The layers, bottom to top:

- :mod:`perihall.gfp` - exact linear algebra over F_p (row convention).
- :mod:`perihall.quiver` - finite acyclic quivers; :mod:`perihall.reps`
  and the chain-level model work on any of them.
- :mod:`perihall.reps` - quiver representations: hom spaces, kernels and
  cokernels, Krull-Schmidt decomposition into summands and their
  inclusions, Hom and Ext^1 bases from
  Ringel's exact sequence.
- :mod:`perihall.category` - the periodic category itself: objects as
  shifted module sums, hom tables, compositions from module data, cone
  fibers classified by Hom ranks. The fibers, and so the Hall products,
  are served only for quivers of type A (disjoint unions of paths); on
  other quivers :func:`perihall.checks.fiber_counts_literal` counts them.
- :mod:`perihall.sqrtq` - exact arithmetic in Q(sqrt q).
- :mod:`perihall.hall` - structure constants, products, straightening.

The engine modules hold only what the engine calls, apart from the
few names the benchmark still traces or calls. Reference code, off the
engine's import graph (only ``PeriodicContext.hom_space`` reaches
:mod:`perihall.periodic`, through a function-level import):

- :mod:`perihall.periodic` - the chain-level model: 3-cycle complexes of
  projective resolutions, chain maps modulo homotopy, mapping cones,
  and the module helpers only it needs: paths out of a vertex,
  projective modules, direct sums of modules, corestrictions and
  quotient-coordinate lifts.
- :mod:`perihall.checks` - identity verification harnesses, recounting
  the engine against the chain-level model and brute enumeration, and
  the helpers only they need: automorphism counts of modules
  (``module_aut_order``) and matrix inverses (``matrix_inverse``).
"""

__version__ = "0.1.0"
