"""Exact Hall algebra arithmetic for odd-periodic quiver representation
categories over prime fields. The period is
:attr:`perihall.category.PeriodicContext.t`, 3 by default, and the
engine, the chain-level model and the harnesses all read it; the tests
run t = 3, 5 and 7.

The layers, bottom to top:

- :mod:`perihall.gfp` - exact linear algebra over F_p (row convention).
- :mod:`perihall.quiver` - finite acyclic quivers; :mod:`perihall.reps`
  and the chain-level model work on any of them.
- :mod:`perihall.reps` - quiver representations: Hom and Ext^1 bases
  from Ringel's exact sequence, one cached record per pair of modules
  (``RepContext.hom_ext``), the iso-class registry, and the modules of a
  dimension bound, generated from the interval modules of a quiver of
  type A; other quivers are refused.
- :mod:`perihall.category` - the periodic category itself: objects as
  shifted module sums, listed lazily by total dimension, hom tables,
  every scalar of a product from one walk over its two keys,
  compositions from module data, cone fibers classified by Hom ranks.
  The fibers, and so the Hall products, are served only for quivers of
  type A (disjoint unions of paths); on other quivers
  :func:`perihall.checks.fiber_counts_literal` counts them.
- :mod:`perihall.sqrtq` - exact arithmetic in Q(sqrt q).
- :mod:`perihall.hall` - structure constants, products, straightening.

The engine modules hold only what the engine calls, apart from the
few names the benchmark still traces or calls. Reference code, off the
engine's import graph (only ``PeriodicContext.hom_space`` reaches
:mod:`perihall.periodic`, through a function-level import):

- :mod:`perihall.periodic` - the chain-level model: t-cycle complexes of
  projective resolutions, chain maps modulo homotopy between whole
  complexes (one Hom space, walked one way by ``HomSpace.morphisms``),
  mapping cones and direct sums as block sums, the summand maps of a sum
  (``summand_maps``), homology read off rref spans by one
  ``RepContext.subquotient`` per slot, and the module helpers only it
  needs: paths out of a vertex and projective modules.
- :mod:`perihall.checks` - identity verification harnesses, recounting
  the engine against the chain-level model and brute enumeration, and
  the helpers only they need: Krull-Schmidt decomposition, iso-class
  lookup and module enumeration by brute force (``decompose``,
  ``summand_ids``, ``class_id``, ``enumerate_reps``, ``module_key``, the
  only listing of a quiver not of type A), automorphism counts of
  modules (``module_aut_order``), dim Ext^1 by the Euler form
  (``ext1_dim_by_euler_form``) and matrix inverses (``matrix_inverse``).
"""

__version__ = "0.1.0"
