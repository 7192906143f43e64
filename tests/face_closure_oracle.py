"""Slow oracle for the face closure: ``gamma._closed_faces`` as it was
with a breadth-first frontier over the cuts and a seen set.  The shipped
closure, which meets every face found so far with one cut at a time, must
give the same faces in the same stacks and the same semidefinite-face
records."""

import numpy as np

from qcqp_hull.errors import GuardExceeded
from qcqp_hull.gamma import FACE_GUARD, PolyhedronH, PolyhedronV, _incidence, _unpack_bitmasks


def _closed_faces(h: PolyhedronH, v: PolyhedronV) -> list:
    """Every nonempty face, each once, as stacks by generator count: one
    (ids, active) pair per count, ``ids`` the (F, G) array of the faces'
    ascending generator ids and ``active`` the (F, R) mask of the rows
    active at all of a face's generators.

    Every face is the polyhedron cut by some set of rows, so the faces are
    the polyhedron itself closed under intersection with one cut at a
    time.  A cut is a distinct set of generators that some row is active
    at; rows active at no vertex cut out nothing and are dropped, so the
    guard counts the cuts the closure really runs over.  Faces are
    identified by the ambient generators they contain; a candidate without
    a vertex is empty.
    """
    if v.is_empty:
        return []
    nv, num_gen = v.vertices.shape[0], v.generators.shape[0]
    act = _incidence(h, v.generators)
    cols = np.unique(act[:, act[:nv].any(axis=0)], axis=1)
    if cols.shape[1] > FACE_GUARD:
        raise GuardExceeded(f"face enumeration guard: {cols.shape[1]} cuts > {FACE_GUARD}")
    # Generator-id sets as bitmasks, bit k for generator k (vertices first).
    cuts = [sum(1 << k for k in np.flatnonzero(c).tolist()) for c in cols.T]
    has_vertex = (1 << nv) - 1
    full = (1 << num_gen) - 1
    seen = {full}
    frontier = [full]
    while frontier:
        fresh = []
        for ids in frontier:
            for cut in cuts:
                key = ids & cut
                if key & has_vertex and key not in seen:
                    seen.add(key)
                    fresh.append(key)
        frontier = fresh
    member = _unpack_bitmasks(seen, num_gen)
    sizes = member.sum(axis=1)
    stacks = []
    for size in np.unique(sizes).tolist():
        ids = np.nonzero(member[sizes == size])[1].reshape(-1, size)
        stacks.append((ids, act[ids].all(axis=1)))
    return stacks
