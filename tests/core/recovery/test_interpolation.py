"""Unit tests for LI / LSI interpolation recovery."""

import numpy as np
import pytest
import scipy.sparse as sp

from repro.core.recovery.interpolation import (
    MAX_LOCAL_ITER_FACTOR,
    LeastSquaresInterpolation,
    LinearInterpolation,
)
from repro.core.recovery.localsolve import local_cg
from repro.faults.events import FaultEvent
from repro.power.energy import PhaseTag


def damage(services, state, rank):
    sl = services.partition.slice_of(rank)
    state.x[sl] = np.nan
    state.r[sl] = np.nan
    state.p[sl] = np.nan
    return sl


class TestLinearInterpolation:
    @pytest.mark.parametrize("method", ["cg", "lu"])
    def test_reconstruction_is_accurate_midsolve(self, services, midsolve_state, method):
        """LI's interpolant from healthy neighbour data is close to the
        pre-fault block (Eq. 17/19)."""
        before = midsolve_state.x.copy()
        sl = damage(services, midsolve_state, 1)
        scheme = LinearInterpolation(method=method, construct_tol=1e-8)
        out = scheme.recover(services, midsolve_state, FaultEvent(20, 1))
        err = np.linalg.norm(midsolve_state.x[sl] - before[sl]) / np.linalg.norm(before[sl])
        assert err < 0.05
        assert out.needs_restart

    def test_lu_solves_diag_block_exactly(self, services, midsolve_state):
        sl = damage(services, midsolve_state, 2)
        LinearInterpolation(method="lu").recover(
            services, midsolve_state, FaultEvent(20, 2)
        )
        # verify Eq. 19: A_ii x_i = b_i - sum_{j!=i} A_ij x_j
        rows = services.dmat.row_block(2)
        diag = services.dmat.diag_block(2)
        xz = midsolve_state.x.copy()
        xz[sl] = 0.0
        y = services.b[sl] - rows @ xz
        assert np.allclose(diag @ midsolve_state.x[sl], y, atol=1e-8)

    def test_non_victim_blocks_untouched(self, services, midsolve_state):
        before = midsolve_state.x.copy()
        sl = damage(services, midsolve_state, 0)
        LinearInterpolation().recover(services, midsolve_state, FaultEvent(20, 0))
        mask = np.ones(96, bool)
        mask[sl] = False
        assert np.array_equal(midsolve_state.x[mask], before[mask])

    def test_charges_reconstruct_phase(self, services, midsolve_state):
        damage(services, midsolve_state, 1)
        LinearInterpolation().recover(services, midsolve_state, FaultEvent(20, 1))
        tags = [t for t, _, _ in services.charges]
        assert PhaseTag.RECONSTRUCT in tags

    def test_dvfs_schedule_applied_and_released(self, services, midsolve_state):
        damage(services, midsolve_state, 1)
        LinearInterpolation(dvfs=True).recover(
            services, midsolve_state, FaultEvent(20, 1)
        )
        assert ("apply", 1) in services.dvfs_calls
        assert ("release", None) in services.dvfs_calls

    def test_dvfs_lowers_charged_power(self, services, midsolve_state):
        damage(services, midsolve_state, 1)
        LinearInterpolation(dvfs=True).recover(
            services, midsolve_state, FaultEvent(20, 1)
        )
        recon_powers = [
            p for t, d, p in services.charges if t is PhaseTag.RECONSTRUCT and d > 0
        ]
        assert min(recon_powers) == pytest.approx(45.0)  # fake dvfs power

    def test_names(self):
        assert LinearInterpolation().name == "LI"
        assert LinearInterpolation(dvfs=True).name == "LI-DVFS"

    def test_construction_records_stats(self, services, midsolve_state):
        damage(services, midsolve_state, 1)
        scheme = LinearInterpolation(method="cg", construct_tol=1e-4)
        scheme.recover(services, midsolve_state, FaultEvent(20, 1))
        assert len(scheme.constructions) == 1
        detail = scheme.constructions[0]
        assert detail["local_iters"] > 0
        assert detail["construct_s"] > 0

    def test_rejects_invalid_method(self):
        with pytest.raises(ValueError):
            LinearInterpolation(method="qr")

    def test_dvfs_requires_cg(self):
        with pytest.raises(ValueError):
            LinearInterpolation(method="lu", dvfs=True)

    def test_rejects_bad_tolerance(self):
        with pytest.raises(ValueError):
            LinearInterpolation(construct_tol=0.0)


class TestLeastSquaresInterpolation:
    @pytest.mark.parametrize("method", ["cg", "qr"])
    def test_reconstruction_is_accurate_midsolve(self, services, midsolve_state, method):
        before = midsolve_state.x.copy()
        sl = damage(services, midsolve_state, 1)
        scheme = LeastSquaresInterpolation(method=method, construct_tol=1e-10)
        out = scheme.recover(services, midsolve_state, FaultEvent(20, 1))
        err = np.linalg.norm(midsolve_state.x[sl] - before[sl]) / np.linalg.norm(before[sl])
        assert err < 0.05
        assert out.needs_restart

    def test_cg_and_qr_agree(self, services, midsolve_state):
        """The local normal-equations CG (Eq. 21) converges to the same
        minimiser as the exact parallel solve (Eq. 20)."""
        import copy

        state_a = midsolve_state.copy()
        state_b = midsolve_state.copy()
        sl = damage(services, state_a, 2)
        damage(services, state_b, 2)
        LeastSquaresInterpolation(method="cg", construct_tol=1e-12).recover(
            services, state_a, FaultEvent(20, 2)
        )
        LeastSquaresInterpolation(method="qr").recover(
            services, state_b, FaultEvent(20, 2)
        )
        assert np.allclose(state_a.x[sl], state_b.x[sl], atol=1e-5)

    def test_qr_charges_full_power(self, services, midsolve_state):
        """The exact parallel baseline keeps every core busy."""
        damage(services, midsolve_state, 1)
        LeastSquaresInterpolation(method="qr").recover(
            services, midsolve_state, FaultEvent(20, 1)
        )
        recon = [(d, p) for t, d, p in services.charges if t is PhaseTag.RECONSTRUCT]
        construct = max(recon, key=lambda dp: dp[0])
        assert construct[1] == pytest.approx(100.0)  # compute power

    def test_local_cg_charges_reduced_power(self, services, midsolve_state):
        damage(services, midsolve_state, 1)
        LeastSquaresInterpolation(method="cg").recover(
            services, midsolve_state, FaultEvent(20, 1)
        )
        recon_powers = [p for t, d, p in services.charges if t is PhaseTag.RECONSTRUCT]
        assert 75.0 in [pytest.approx(p) for p in recon_powers] or any(
            abs(p - 75.0) < 1e-9 for p in recon_powers
        )

    def test_names(self):
        assert LeastSquaresInterpolation().name == "LSI"
        assert LeastSquaresInterpolation(dvfs=True).name == "LSI-DVFS"

    def test_rejects_invalid_method(self):
        with pytest.raises(ValueError):
            LeastSquaresInterpolation(method="lu")

    def test_dvfs_requires_cg(self):
        with pytest.raises(ValueError):
            LeastSquaresInterpolation(method="qr", dvfs=True)


class TestConstructionOperators:
    """The CG constructions solve exactly the textbook local systems:
    each rebuilt block equals, bit for bit, ``local_cg`` over plain
    scipy operators built on the spot (no cached operators, no scratch
    buffers), for a lone victim and a two-rank group."""

    @staticmethod
    def _group(services, state, group):
        for v in group:
            damage(services, state, v)
        part = services.partition
        sl = slice(part.slice_of(group[0]).start, part.slice_of(group[-1]).stop)
        rows = sp.vstack(
            [services.dmat.row_block(v) for v in group], format="csr"
        )
        xz = state.x.copy()
        xz[sl] = 0.0
        return sl, rows, xz

    @pytest.mark.parametrize("group", [(1,), (1, 2)])
    def test_li_solves_the_diagonal_block(self, services, midsolve_state, group):
        sl, rows, xz = self._group(services, midsolve_state, group)
        diag = rows[:, sl].tocsr()
        n_loc = sl.stop - sl.start
        want, _ = local_cg(
            lambda v: diag @ v,
            services.b[sl] - rows @ xz,
            tol=1e-6,
            max_iters=MAX_LOCAL_ITER_FACTOR * n_loc,
            flops_per_apply=2.0 * diag.nnz,
            jacobi_diag=np.maximum(diag.diagonal(), 1e-300),
        )
        LinearInterpolation().recover(
            services, midsolve_state, FaultEvent.multi(20, group)
        )
        assert np.array_equal(midsolve_state.x[sl], want)

    @pytest.mark.parametrize("group", [(1,), (1, 2)])
    def test_lsi_solves_the_normal_equations(
        self, services, midsolve_state, group
    ):
        sl, rows, xz = self._group(services, midsolve_state, group)
        norms_sq = np.asarray(rows.multiply(rows).sum(axis=1)).ravel()
        n_loc = sl.stop - sl.start
        want, _ = local_cg(
            lambda v: rows @ (rows.T.tocsr() @ v),
            rows @ (services.b - services.dmat.a @ xz),
            tol=1e-6,
            max_iters=MAX_LOCAL_ITER_FACTOR * n_loc,
            flops_per_apply=4.0 * rows.nnz,
            jacobi_diag=np.maximum(norms_sq, 1e-300),
        )
        LeastSquaresInterpolation().recover(
            services, midsolve_state, FaultEvent.multi(20, group)
        )
        assert np.array_equal(midsolve_state.x[sl], want)
