"""The raw-kernel product path and the recovery-operator memo.

Every sparse mat-vec of a solve runs through
:func:`repro.matrices.spmv.spmv`, and LI/LSI read their local systems
from the per-matrix operator memo of
:class:`~repro.matrices.distributed.DistributedMatrix` (DESIGN.md §5j).
Both are pure speed: the contract is **bitwise** identity with scipy's
``m @ v`` dispatch and with operators rebuilt at every recovery, which
:func:`tests.differential.scipy_dispatch` reproduces.
"""

from __future__ import annotations

import numpy as np
import pytest
import scipy.sparse as sp

import repro.matrices.spmv as spmv_mod
from repro.core.recovery import scheme_names
from repro.faults.schedule import EvenlySpacedSchedule
from repro.matrices import cache as problem_cache
from repro.matrices.distributed import DistributedMatrix
from repro.matrices.partition import BlockRowPartition
from repro.matrices.spmv import csr_product, spmv
from tests.differential import (
    MATRICES,
    assert_reports_identical,
    assert_telemetry_identical,
    build,
    run_solver,
    scipy_dispatch,
)


# ----------------------------------------------------------------------
# full-solve differential: every scheme x matrix x victim-set size
# ----------------------------------------------------------------------

@pytest.mark.parametrize("victims", [1, 2])
@pytest.mark.parametrize("matrix", sorted(MATRICES))
@pytest.mark.parametrize("scheme", scheme_names())
def test_kernel_path_matches_scipy_dispatch(scheme, matrix, victims):
    def schedule():
        return EvenlySpacedSchedule(n_faults=3, victims_per_fault=victims)

    with scipy_dispatch():
        reference = run_solver(matrix, scheme, schedule=schedule())
    fast = run_solver(matrix, scheme, schedule=schedule())
    assert_reports_identical(
        fast, reference, context=f"{scheme}/{matrix}/v{victims}"
    )


@pytest.mark.parametrize("scheme", ["LI", "LSI-DVFS"])
def test_kernel_path_matches_scipy_dispatch_preconditioned_traced(scheme):
    kw = dict(preconditioner="jacobi", trace=True)
    with scipy_dispatch():
        reference = run_solver("irregular", scheme, **kw)
    fast = run_solver("irregular", scheme, **kw)
    assert_reports_identical(fast, reference)
    assert_telemetry_identical(fast, reference)


def test_reference_run_takes_the_fallback(monkeypatch):
    calls = []
    kernel = spmv_mod._csr_matvec

    def counting(*args):
        calls.append(1)
        return kernel(*args)

    monkeypatch.setattr(spmv_mod, "_csr_matvec", counting)
    with scipy_dispatch():
        run_solver("banded", "LSI")
    assert calls == []
    run_solver("banded", "LSI")
    assert calls


def test_recoveries_fill_the_operator_memo():
    a = build("stencil")
    run_solver("stencil", "LI")
    run_solver("stencil", "LSI")
    dmat = problem_cache.distributed_matrix(a, 8)
    kinds = {kind for kind, _ in dmat._operators}
    assert kinds == {"li", "lsi"}


# ----------------------------------------------------------------------
# spmv vs m @ v
# ----------------------------------------------------------------------

def _special_matrix() -> sp.csr_matrix:
    """CSR with NaN, +-inf, -0.0, a subnormal and an empty row."""
    rng = np.random.default_rng(3)
    m = sp.csr_matrix(sp.random(40, 30, density=0.3, random_state=rng))
    m.data[m.indptr[7]:m.indptr[8]] = 0.0
    m.eliminate_zeros()  # row 7 now stores nothing
    m.data[:6] = [np.nan, np.inf, -np.inf, -0.0, 0.0, 1e-320]
    assert m.indptr[7] == m.indptr[8] and m.indptr[7] > 6
    return m


def _vectors(ncol: int):
    rng = np.random.default_rng(4)
    dense = rng.standard_normal(ncol)
    special = dense.copy()
    special[:5] = [np.nan, np.inf, -np.inf, -0.0, 0.0]
    negzero = np.full(ncol, -0.0)
    strided = rng.standard_normal(2 * ncol)[::2]
    reversed_view = rng.standard_normal(ncol)[::-1]
    return {
        "dense": dense,
        "special": special,
        "negzero": negzero,
        "strided": strided,
        "reversed": reversed_view,
    }


def _bits(v: np.ndarray) -> bytes:
    return np.ascontiguousarray(v).tobytes()


@pytest.mark.parametrize("name", ["dense", "special", "negzero", "strided",
                                  "reversed"])
def test_spmv_is_bitwise_matmul(name):
    m = _special_matrix()
    x = _vectors(m.shape[1])[name]
    ref = m @ x
    product = csr_product(m)
    for got in (spmv(m, x), product(x)):
        assert got.dtype == ref.dtype and got.shape == ref.shape
        assert _bits(got) == _bits(ref)
    for call in (lambda out: spmv(m, x, out), lambda out: product(x, out)):
        out = np.full(m.shape[0], 7.0)
        assert call(out) is out
        assert _bits(out) == _bits(ref)


def test_spmv_fallback_inputs_match_matmul():
    m = _special_matrix()
    x = _vectors(m.shape[1])["dense"]
    cases = [
        (m.astype(np.float32), x),
        (m.tocsc(), x),
        (m, np.arange(m.shape[1])),
        (m, x.astype(np.float32)),
        (m, x.reshape(-1, 1)),
    ]
    for mat, vec in cases:
        ref = mat @ vec
        for got in (spmv(mat, vec), csr_product(mat)(vec)):
            assert got.dtype == ref.dtype and got.shape == ref.shape
            assert _bits(got) == _bits(ref)


def test_spmv_without_kernel_is_matmul(monkeypatch):
    monkeypatch.setattr(spmv_mod, "_csr_matvec", None)
    m = _special_matrix()
    x = _vectors(m.shape[1])["special"]
    out = np.empty(m.shape[0])
    assert spmv(m, x, out) is out
    assert _bits(out) == _bits(m @ x)
    assert _bits(csr_product(m)(x)) == _bits(m @ x)


# ----------------------------------------------------------------------
# cached recovery operators vs fresh builds
# ----------------------------------------------------------------------

def _assert_csr_equal(a, b):
    assert a.shape == b.shape
    for attr in ("indptr", "indices", "data"):
        assert np.array_equal(getattr(a, attr), getattr(b, attr)), attr


@pytest.mark.parametrize("group", [(0,), (5,), (2, 3), (4, 5, 6, 7)])
@pytest.mark.parametrize("matrix", sorted(MATRICES))
def test_cached_operators_match_fresh_builds(matrix, group):
    a = build(matrix)
    dmat = DistributedMatrix(a, BlockRowPartition(a.shape[0], 8))
    part = dmat.partition
    sl = slice(part.slice_of(group[0]).start, part.slice_of(group[-1]).stop)
    # the constructions LI/LSI used to run inline at every recovery
    if len(group) == 1:
        rows = dmat.row_block(group[0])
        diag = dmat.diag_block(group[0])
    else:
        rows = sp.vstack([dmat.row_block(v) for v in group], format="csr")
        diag = rows[:, sl].tocsr()
    norms_sq = np.asarray(rows.multiply(rows).sum(axis=1)).ravel()

    li = dmat.interpolation_block(group)
    assert dmat.interpolation_block(group) is li
    _assert_csr_equal(li.rows, rows)
    _assert_csr_equal(li.diag, diag)
    assert np.array_equal(li.jacobi, np.maximum(diag.diagonal(), 1e-300))

    lsi = dmat.normal_equations(group)
    assert dmat.normal_equations(group) is lsi
    _assert_csr_equal(lsi.rows, rows)
    _assert_csr_equal(lsi.rows_t, rows.T.tocsr())
    assert np.array_equal(lsi.jacobi, np.maximum(norms_sq, 1e-300))


def test_operators_are_lazy():
    a = build("banded")
    dmat = DistributedMatrix(a, BlockRowPartition(a.shape[0], 8)).warm()
    assert dmat._operators == {}
