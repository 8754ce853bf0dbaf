"""Exact Hall algebra arithmetic for 3-periodic quiver representation
categories over prime fields.

The layers, bottom to top:

- :mod:`perihall.gfp` - exact linear algebra over F_p (row convention).
- :mod:`perihall.quiver` - finite acyclic quivers.
- :mod:`perihall.reps` - quiver representations: hom spaces, kernels and
  cokernels, Krull-Schmidt decomposition, projective resolutions, Ext.
- :mod:`perihall.periodic` - 3-cycle complexes of representations, chain
  maps modulo homotopy, mapping cones.
- :mod:`perihall.category` - the 3-periodic category itself: objects as
  shifted module sums, wrap/normalize, hom tables, cone fibers.
- :mod:`perihall.sqrtq` - exact arithmetic in Q(sqrt q).
- :mod:`perihall.hall` - structure constants, products, straightening.
- :mod:`perihall.checks` - identity verification harnesses.
"""

__version__ = "0.1.0"
