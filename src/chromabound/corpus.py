"""Exhaustive and named graph corpora for verification runs.

Connected graphs are generated one vertex count at a time, on adjacency
masks. A candidate on n vertices is a representative on n-1 vertices
(the parent) plus a new vertex n-1 joined to a non-empty neighbor set.
Two cheap exact filters run before canonical labeling:

- Twins. Parent vertices whose swap is an automorphism of the parent
  (equal neighborhoods once they ignore each other) form classes, and
  every permutation of a class is an automorphism. Neighbor sets that
  such a permutation maps onto each other give isomorphic candidates,
  so only sets that hold an initial segment of each class are kept:
  never v without u, for twins u < v.
- Maximal non-cut vertex. A candidate goes to ``canonical_form`` only if
  no non-cut vertex beats the new vertex on the invariant (degree,
  sorted neighbor degrees); the new vertex is itself non-cut, since
  removing it leaves the connected parent.

The survivors are deduplicated by canonical form, so each isomorphism
class appears exactly once, in a deterministic order.

The filters lose no class. Let G be connected and w a non-cut vertex of
largest invariant. G - w is connected, so it is isomorphic to a parent,
and relabeling G to match it with w = n-1 gives a candidate that passes
the second filter. A permutation of the parent's twin classes extends to
an isomorphism of candidates that fixes the new vertex, so the image
still passes, and one such permutation moves the new vertex's
neighbors to the front of each class, which passes the first. This
is the cheap half of canonical augmentation (McKay, J. Algorithms 26,
1998).

Level 10 has 11716571 classes, so ``connected_graphs`` stops above
``_MAX_VERTICES`` with a ``ResourceLimitError`` before building anything.
"""

from __future__ import annotations

from .errors import ResourceLimitError
from .graphs import (
    Graph,
    _components_masks,
    _interchangeable,
    _mask_bits,
    canonical_form,
    generate_graph,
)

_LEVELS: dict[int, tuple[Graph, ...]] = {}

# Isomorphism class counts for connected graphs, used as a self-check
# during generation.
_KNOWN_COUNTS = {1: 1, 2: 1, 3: 2, 4: 6, 5: 21, 6: 112, 7: 853, 8: 11117, 9: 261080}
_MAX_VERTICES = 9


def connected_graphs(n: int) -> tuple[Graph, ...]:
    """All isomorphism classes of connected graphs on exactly n vertices.

    Raises ``ResourceLimitError`` for n above 9, the largest level with
    a known count.
    """
    if n < 1:
        raise ValueError("vertex count must be at least 1")
    if n > _MAX_VERTICES:
        raise ResourceLimitError(
            f"connected graphs on {n} vertices exceed the corpus cap of {_MAX_VERTICES}"
        )
    if n not in _LEVELS:
        _LEVELS[n] = _build_level(n)
    return _LEVELS[n]


def _build_level(n: int) -> tuple[Graph, ...]:
    if n == 1:
        return (Graph(1, []),)
    new = n - 1
    seen: dict[tuple[int, ...], None] = {}
    for parent in connected_graphs(n - 1):
        base = parent.adjacency_masks
        pieces = [_components_masks(base, ~(1 << v)) for v in range(new)]
        twins = [
            (1 << u, 1 << v)
            for v in range(new)
            for u in range(v)
            if _interchangeable(base, v, u)
        ]
        for subset in range(1, 1 << new):
            if any(subset & bv and not subset & bu for bu, bv in twins):
                continue
            masks = tuple(
                m | 1 << new if subset >> v & 1 else m for v, m in enumerate(base)
            ) + (subset,)
            if _new_vertex_is_maximal(masks, pieces):
                seen.setdefault(canonical_form(Graph.from_masks(masks)), None)
    level = tuple(sorted(map(Graph.from_masks, seen), key=lambda g: (g.m, g.adjacency_masks)))
    expected = _KNOWN_COUNTS.get(n)
    if expected is not None and len(level) != expected:
        raise AssertionError(
            f"generated {len(level)} connected graphs on {n} vertices, expected {expected}"
        )
    return level


def _new_vertex_is_maximal(masks: tuple[int, ...], pieces: list[list[int]]) -> bool:
    """True when no non-cut vertex has a larger invariant than the last one.

    The invariant of a vertex is its degree, then its neighbours' degrees
    sorted. ``pieces[v]`` holds the components of the parent (all but the
    last vertex) minus v; v is a non-cut vertex exactly when the last
    vertex has a neighbour in each of them. Only vertices that beat the
    last vertex on the invariant need that test.
    """
    degs = [m.bit_count() for m in masks]
    new = len(masks) - 1
    d_new = degs[new]
    nb_new = None
    for v in range(new):
        if degs[v] < d_new:
            continue
        if degs[v] == d_new:
            if nb_new is None:
                nb_new = sorted(map(degs.__getitem__, _mask_bits(masks[new])))
            if sorted(map(degs.__getitem__, _mask_bits(masks[v]))) <= nb_new:
                continue
        if all(masks[new] & piece for piece in pieces[v]):
            return False
    return True


def named_corpus() -> list[tuple[str, Graph]]:
    """Hand-picked larger instances exercising every generator family."""
    return [
        ("complete-8", generate_graph("complete", n=8)),
        ("petersen", generate_graph("petersen")),
        ("cycle-12", generate_graph("cycle", n=12)),
        ("path-12", generate_graph("path", n=12)),
        ("star-11", generate_graph("star", leaves=11)),
        ("grid-3x4", generate_graph("grid", rows=3, cols=4)),
        ("random-regular-10-3", generate_graph("random-regular", n=10, degree=3, seed=7)),
    ]
