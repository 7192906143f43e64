"""One growing LP for a cutting-plane loop: min c'z over a box, with rows
G z <= h appended in batches and each re-solve warm-started from the
previous basis.  It drives HiGHS through the binding bundled with
scipy.optimize (the one its HiGHS LP method calls), so the model is built
once per loop instead of once per iteration.  It serves the one Kelley
loop, the definite-multiplier search.  The binding, and with it
scipy.optimize, loads with the first LP, not with the package.

Public ``scipy.optimize.linprog``, re-solving every round from scratch,
is no substitute: on the 64 searches of the small test instances and
``barvinok_random`` seeds 0-9 it took about 20 times as long (12.5 s
against 0.63 s, one BLAS thread of a shared 2-vCPU Xeon) and, these LPs
being degenerate, ended at another optimal vertex, so another gamma*,
on every one."""

from __future__ import annotations

import numpy as np

_NONE = np.zeros(0, dtype=np.int32)


class CuttingPlaneLP:
    """min c'z subject to lower <= z <= upper (infinite entries allowed)
    and every row appended with ``add_rows``."""

    def __init__(self, cost, lower, upper):
        from scipy.optimize._highspy import _core

        self._status = _core.HighsModelStatus
        self._model = _core._Highs()
        self._model.setOptionValue("output_flag", False)
        self._model.setOptionValue("presolve", "off")
        self._model.addCols(len(cost), cost, lower, upper, 0, _NONE, _NONE, np.zeros(0))

    def add_rows(self, G, h) -> None:
        """Append the rows G z <= h (one row of G per constraint)."""
        G = np.atleast_2d(np.asarray(G, dtype=float))
        nz = G != 0.0
        counts = np.count_nonzero(nz, axis=1)
        starts = (np.cumsum(counts) - counts).astype(np.int32)
        cols = np.nonzero(nz)[1].astype(np.int32)
        self._model.addRows(len(G), np.full(len(G), -np.inf), h, len(cols), starts, cols, G[nz])

    def solve(self) -> tuple[str, np.ndarray | None]:
        """("optimal", z), ("infeasible", None), or ("failed", None) for any
        other HiGHS outcome."""
        self._model.run()
        status = self._model.getModelStatus()
        if status == self._status.kOptimal:
            return "optimal", np.array(self._model.getSolution().col_value)
        if status == self._status.kInfeasible:
            return "infeasible", None
        return "failed", None
