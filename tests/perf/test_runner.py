"""Perf-harness helpers that need no timing: the speedup readout."""

from pathlib import Path

from benchmarks.perf import runner


def doc(**benchmarks):
    return {
        "suite": "smoke",
        "repeats": 1,
        "calibration": {"matvec_s": 1e-3, "pyloop_s": 1e-3},
        "benchmarks": benchmarks,
    }


def bench(median_s):
    return {"median_s": median_s, "normalized": median_s / 1e-3, "ref": "pyloop"}


class TestModelSpeedup:
    def test_ratio_of_sim_to_model_medians(self):
        d = doc(**{
            "solve_faulty_li.stencil": bench(1.0),
            "model_faulty_li.stencil": bench(0.01),
        })
        assert runner.model_speedup(d) == 100

    def test_none_when_either_side_missing(self):
        assert runner.model_speedup(doc()) is None
        assert runner.model_speedup(
            doc(**{"solve_faulty_li.stencil": bench(1.0)})
        ) is None

    def test_speedup_line_rendered_only_when_both_sides_ran(self):
        d = doc(**{
            "solve_faulty_li.stencil": bench(1.0),
            "model_faulty_li.stencil": bench(0.005),
        })
        assert "analytic model speedup: 200x" in runner.format_results(d)
        assert "speedup" not in runner.format_results(doc())


class TestBackendSpeedup:
    def test_ratio_of_loop_to_batched_medians(self):
        d = doc(**{
            "solve_loop_ff.stencil": bench(0.7),
            "solve_batched_ff.stencil": bench(0.1),
        })
        assert runner.backend_speedup(d) == 0.7 / 0.1

    def test_none_when_either_side_missing(self):
        assert runner.backend_speedup(doc()) is None
        assert runner.backend_speedup(
            doc(**{"solve_loop_ff.stencil": bench(1.0)})
        ) is None
        assert runner.backend_speedup(
            doc(**{"solve_batched_ff.stencil": bench(1.0)})
        ) is None

    def test_speedup_line_rendered_only_when_both_sides_ran(self):
        d = doc(**{
            "solve_loop_ff.stencil": bench(0.65),
            "solve_batched_ff.stencil": bench(0.1),
        })
        assert "backend speedup: 6.5x batched" in runner.format_results(d)

    def test_both_backend_benches_are_in_the_smoke_suite(self):
        smoke = {
            s.name for s in runner.BENCHMARKS if "smoke" in s.suites
        }
        assert "solve_loop_ff.stencil" in smoke
        assert "solve_batched_ff.stencil" in smoke

    def test_esr_multifault_bench_is_in_the_smoke_suite(self):
        smoke = {
            s.name for s in runner.BENCHMARKS if "smoke" in s.suites
        }
        assert "solve_esr_multifault.stencil" in smoke

    def test_every_smoke_bench_has_a_committed_baseline(self):
        """A smoke bench missing from BENCH_perf.json is only ever
        reported as "new", never gated."""
        committed = runner.load(
            Path(__file__).resolve().parents[2] / "BENCH_perf.json"
        )
        smoke = {
            s.name for s in runner.BENCHMARKS if "smoke" in s.suites
        }
        assert "solve_faulty_lsi_dvfs.stencil" in smoke
        assert smoke <= set(committed["benchmarks"])
