"""Timing harness: synthetic inputs, fits, extrapolation, exports."""

import numpy as np
import pytest

from corpusstats import (
    PowerLawFit,
    TimingPoint,
    ValidationError,
    extrapolate,
    fit_power_law,
    generate_pairs,
    time_kernel,
)
from corpusstats.bench import TimingCurve, write_curve


class TestGeneratePairs:
    def test_deterministic_per_seed_and_size(self):
        x1, y1 = generate_pairs(500, seed=42)
        x2, y2 = generate_pairs(500, seed=42)
        assert np.array_equal(x1, x2) and np.array_equal(y1, y2)

    def test_different_seeds_differ(self):
        x1, _ = generate_pairs(500, seed=1)
        x2, _ = generate_pairs(500, seed=2)
        assert not np.array_equal(x1, x2)

    def test_sizes_are_independent_streams(self):
        x_small, _ = generate_pairs(100)
        x_large, _ = generate_pairs(200)
        assert not np.array_equal(x_small, x_large[:100])

    def test_positively_correlated_with_ties(self):
        from corpusstats import kendall_tau_fast

        x, y = generate_pairs(2000)
        counts = kendall_tau_fast(x, y)
        assert counts.tau_b > 0.5
        assert counts.ties_x > 0 and counts.ties_y > 0

    @pytest.mark.parametrize("n", range(2, 11))
    def test_neither_vector_entirely_tied(self, n):
        from corpusstats import kendall_tau_fast

        for seed in range(500):
            x, y = generate_pairs(n, seed)
            assert np.ptp(x) > 0 and np.ptp(y) > 0, seed
            assert -1.0 <= kendall_tau_fast(x, y).tau_b <= 1.0

    def test_too_small_rejected(self):
        with pytest.raises(ValidationError):
            generate_pairs(1)


class TestFitPowerLaw:
    def test_recovers_exact_power_law(self):
        points = [TimingPoint(n, 1e-9 * n**2) for n in (1000, 2000, 4000, 8000)]
        fit = fit_power_law(points)
        assert fit.exponent == pytest.approx(2.0, abs=1e-9)
        assert fit.coefficient == pytest.approx(1e-9, rel=1e-9)
        assert fit.r_squared == pytest.approx(1.0, abs=1e-12)

    def test_recovers_linear_growth(self):
        points = [TimingPoint(n, 5e-7 * n) for n in (100, 1000, 10000)]
        fit = fit_power_law(points)
        assert fit.exponent == pytest.approx(1.0, abs=1e-9)

    def test_needs_two_points(self):
        with pytest.raises(ValidationError):
            fit_power_law([TimingPoint(10, 0.1)])


class TestExtrapolate:
    def test_known_quadratic_projection(self):
        fit = PowerLawFit(exponent=2.0, coefficient=1e-9, r_squared=1.0)
        curve = TimingCurve("naive", [], fit)
        predicted = extrapolate(curve, 11_300_000)
        assert predicted == pytest.approx(1e-9 * 11_300_000**2, rel=1e-12)
        assert curve.extrapolations[11_300_000] == predicted

    def test_requires_fit(self):
        curve = TimingCurve("fast", [TimingPoint(10, 0.1)], None)
        with pytest.raises(ValidationError):
            extrapolate(curve, 100)

    def test_rejects_bad_target(self):
        curve = TimingCurve("fast", [], PowerLawFit(1.0, 1.0, 1.0))
        with pytest.raises(ValidationError):
            extrapolate(curve, 0)


class TestTimeKernel:
    def test_times_every_requested_size(self):
        curve = time_kernel("fast", [100, 200, 400], trials=2)
        assert [p.n for p in curve.points] == [100, 200, 400]
        assert all(p.seconds > 0 for p in curve.points)
        assert curve.fit is not None
        assert curve.truncated is False

    def test_budget_truncation(self):
        # an impossible budget stops the sweep after the first cell
        curve = time_kernel("naive", [2000, 4000, 8000], trials=5,
                            budget_seconds=1e-6)
        assert curve.truncated is True
        assert len(curve.points) == 1
        assert curve.fit is None

    def test_validation(self):
        with pytest.raises(ValidationError):
            time_kernel("quantum", [100, 200])
        with pytest.raises(ValidationError):
            time_kernel("fast", [200, 100])
        with pytest.raises(ValidationError):
            time_kernel("fast", [])
        with pytest.raises(ValidationError):
            time_kernel("fast", [100], trials=0)
        with pytest.raises(ValidationError):
            time_kernel("fast", [100], budget_seconds=0)


class TestWriteCurve:
    def test_layout_with_fit_and_extrapolations(self, tmp_path):
        fit = PowerLawFit(2.0, 1e-9, 1.0)
        curve = TimingCurve(
            "naive",
            [TimingPoint(1000, 0.001), TimingPoint(2000, 0.004)],
            fit,
            {10_000: 0.1},
            truncated=True,
        )
        path = tmp_path / "curve.tsv"
        write_curve(curve, path)
        lines = path.read_text(encoding="utf-8").splitlines()
        assert lines[0] == "1000\t0.001"
        assert lines[1] == "2000\t0.004"
        assert lines[2].startswith("#fit exponent=2.0 coefficient=1e-09 ")
        assert lines[3] == "#extrapolate 10000\t0.1"
        assert lines[4] == "#truncated"
