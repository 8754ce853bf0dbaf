"""Finite acyclic quivers.

A quiver here is a finite directed graph with named vertices and named
arrows, required to be acyclic so the path algebra is finite dimensional
and hereditary. Vertex order is the declaration order and is the order
every matrix-valued structure downstream iterates in, which is what
makes the whole package deterministic. Hall products are served only
for quivers of type A (see :mod:`perihall.category`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence, Tuple

__all__ = ["Arrow", "Quiver", "line_quiver"]


@dataclass(frozen=True)
class Arrow:
    name: str
    source: str
    target: str


class Quiver:
    """An acyclic quiver with ordered vertices and arrows."""

    def __init__(self, vertices: Sequence[str], arrows: Sequence[Arrow]):
        if len(set(vertices)) != len(vertices):
            raise ValueError("duplicate vertex names")
        names = [a.name for a in arrows]
        if len(set(names)) != len(names):
            raise ValueError("duplicate arrow names")
        vset = set(vertices)
        for a in arrows:
            if a.source not in vset or a.target not in vset:
                raise ValueError(f"arrow {a.name} touches unknown vertex")
        self.vertices: Tuple[str, ...] = tuple(vertices)
        self.arrows: Tuple[Arrow, ...] = tuple(arrows)
        self._vindex = {v: i for i, v in enumerate(self.vertices)}
        self._check_acyclic()

    def _check_acyclic(self) -> None:
        indeg = {v: 0 for v in self.vertices}
        for a in self.arrows:
            indeg[a.target] += 1
        queue = [v for v in self.vertices if indeg[v] == 0]
        seen = 0
        while queue:
            v = queue.pop()
            seen += 1
            for a in self.arrows:
                if a.source == v:
                    indeg[a.target] -= 1
                    if indeg[a.target] == 0:
                        queue.append(a.target)
        if seen != len(self.vertices):
            raise ValueError("quiver has an oriented cycle")

    # -- lookups ------------------------------------------------------

    def vertex_index(self, v: str) -> int:
        return self._vindex[v]

    def arrows_from(self, v: str) -> List[Arrow]:
        return [a for a in self.arrows if a.source == v]

    def arrows_into(self, v: str) -> List[Arrow]:
        return [a for a in self.arrows if a.target == v]

    # -- paths --------------------------------------------------------

    def paths_from(self, v: str) -> List[Tuple[Arrow, ...]]:
        """All directed paths starting at v, including the empty path.

        These index a basis of the projective cover of the simple at v.
        Deterministic order: by length, then arrow declaration order.
        """
        out: List[Tuple[Arrow, ...]] = [()]
        frontier: List[Tuple[Arrow, ...]] = [()]
        while frontier:
            nxt: List[Tuple[Arrow, ...]] = []
            for path in frontier:
                end = path[-1].target if path else v
                for a in self.arrows_from(end):
                    nxt.append(path + (a,))
            out.extend(nxt)
            frontier = nxt
        return out

    # -- numerics -----------------------------------------------------

    def euler_form(self, x: Sequence[int], y: Sequence[int]) -> int:
        """<x, y> = sum_v x_v y_v - sum_{a: u -> w} x_u y_w.

        For modules X, Y with these dimension vectors this equals
        dim Hom(X, Y) - dim Ext^1(X, Y) (the algebra is hereditary).
        """
        total = sum(a * b for a, b in zip(x, y))
        for a in self.arrows:
            total -= x[self._vindex[a.source]] * y[self._vindex[a.target]]
        return total

    # -- identity -----------------------------------------------------

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Quiver) and other.vertices == self.vertices and other.arrows == self.arrows

    def __hash__(self) -> int:
        return hash((self.vertices, self.arrows))

    def __repr__(self) -> str:
        return f"Quiver(vertices={list(self.vertices)}, arrows={[a.name for a in self.arrows]})"


def line_quiver(n: int) -> Quiver:
    """The linearly oriented type A quiver 1 -> 2 -> ... -> n."""
    if n < 1:
        raise ValueError("need at least one vertex")
    vertices = [str(i) for i in range(1, n + 1)]
    arrows = [Arrow(f"a{i}", str(i), str(i + 1)) for i in range(1, n)]
    return Quiver(vertices, arrows)
