"""Smoke test of the pipeline benchmark's entry points.

pipebench/pipeline.py reaches the library through module attributes, so a
library change that drops or renames a name it calls fails here, not
only in a benchmark run.  pipebench/tracing.py names the library
functions whose spans feed the per-layer metrics; a dropped or renamed
one would silently read 0, so it fails here too.  Both modules are loaded
from their files, unedited.
"""

import importlib
import json

import pytest

from conftest import BENCH, load_pipebench
from qcqp_hull import _kernels


# Traced functions the library no longer has; their spans read 0 until the
# benchmark's TARGETS drops them.
GONE_TARGETS = {
    "jacobi_eigh", "find_gamma_star", "classify_face", "psd_status", "kron_multiplicity", "enumerate_faces",
    "sym_eig", "whiten_simdiag", "find_definite_multiplier",
}


def test_traced_functions_exist():
    missing = {
        attr
        for mod_name, attr, _ in load_pipebench("tracing").TARGETS
        if not callable(getattr(importlib.import_module(mod_name), attr, None))
    }
    assert missing <= GONE_TARGETS, f"traced but absent from the library: {sorted(missing - GONE_TARGETS)}"


def test_jobs_on_example1_match_reference(tmp_path):
    pl = load_pipebench("pipeline")
    reference = json.loads((BENCH / "reference.json").read_text())
    kinds = ("hull", "analyze", "solve", "decompose")
    workload = pl.Workload("smoke", pool=(pl.EXAMPLE1,), kinds=kinds, control=())
    jobs = pl.job_list(pl.prepare(workload, 0, str(tmp_path)), 0)
    assert {job.kind for job in jobs} == set(kinds)
    for job in jobs:
        summary, error = pl.run_job(job)
        assert error == ""
        assert pl.check("solve-certify", job, summary, reference) == []


@pytest.mark.parametrize(
    "workload,pool",
    [
        # 14 vertices, 45 faces, 37 semidefinite
        ("dense", lambda pl: pl._qmp(16, 4, 3, (0,))),
        # swisscheese m = (4, 3, 3): 1920 faces, 896 semidefinite
        ("lattice", lambda pl: pl._swiss(20, 10, (0,))),
    ],
)
def test_pool_instance_matches_reference(tmp_path, workload, pool):
    """One pool instance per workload runs hull and analyze through the
    unedited check, so a change that moves a reference count fails here."""
    pl = load_pipebench("pipeline")
    reference = json.loads((BENCH / "reference.json").read_text())
    w = pl.Workload(workload, pool=tuple(pool(pl)), kinds=("hull", "analyze"), control=())
    jobs = pl.job_list(pl.prepare(w, 0, str(tmp_path)), 0)
    assert {job.kind for job in jobs} == {"hull", "analyze"}
    for job in jobs:
        assert isinstance(reference[job.prep.inst.key][job.kind], dict)
        summary, error = pl.run_job(job)
        assert error == ""
        assert pl.check(workload, job, summary, reference) == []


def test_kernels_backend_is_reported():
    assert isinstance(_kernels.backend(), str)
