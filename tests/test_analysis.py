"""Tests for the analysis layer: error metrics, rankings, coverage and convergence."""

from __future__ import annotations

import pytest

from repro.analysis import (
    ConvergencePoint,
    absolute_error,
    bias_curve,
    convergence_sweep,
    coverage_curve,
    empirical_coverage,
    errors_by_vertex,
    kendall_tau,
    max_absolute_error,
    mean_absolute_error,
    mean_squared_error,
    rank_vertices,
    ranking_report,
    relative_error,
    root_mean_squared_error,
    spearman_correlation,
    summarize_runs,
    top_k_accuracy,
)
from repro.errors import ConfigurationError


class TestErrorMetrics:
    def test_absolute_error(self):
        assert absolute_error(1.5, 1.0) == 0.5
        assert absolute_error(0.5, 1.0) == 0.5

    def test_relative_error(self):
        assert relative_error(1.1, 1.0) == pytest.approx(0.1)
        assert relative_error(0.0, 0.0) == 0.0
        assert relative_error(0.1, 0.0) == float("inf")

    def test_mean_absolute_error(self):
        assert mean_absolute_error([1.0, 2.0], [0.0, 4.0]) == pytest.approx(1.5)

    def test_mean_squared_error(self):
        assert mean_squared_error([1.0, 2.0], [0.0, 4.0]) == pytest.approx(2.5)

    def test_rmse(self):
        assert root_mean_squared_error([3.0], [0.0]) == pytest.approx(3.0)

    def test_max_absolute_error(self):
        assert max_absolute_error([1.0, 5.0], [1.0, 1.0]) == 4.0

    def test_length_mismatch(self):
        with pytest.raises(ConfigurationError):
            mean_absolute_error([1.0], [1.0, 2.0])

    def test_empty_sequences(self):
        with pytest.raises(ConfigurationError):
            mean_absolute_error([], [])

    def test_errors_by_vertex(self):
        errors = errors_by_vertex({0: 1.0, 1: 2.0}, {0: 1.5, 1: 2.0, 2: 3.0})
        assert errors == {0: 0.5, 1: 0.0, 2: 3.0}

    def test_summarize_runs(self):
        stats = summarize_runs([1.0, 2.0, 3.0])
        assert stats["mean"] == pytest.approx(2.0)
        assert stats["max"] == 3.0
        assert stats["min"] == 1.0
        assert stats["runs"] == 3.0
        assert stats["stddev"] > 0.0

    def test_summarize_runs_empty(self):
        with pytest.raises(ConfigurationError):
            summarize_runs([])


class TestRanking:
    def test_rank_vertices(self):
        ranking = rank_vertices({"a": 0.2, "b": 0.9, "c": 0.5})
        assert ranking == ["b", "c", "a"]

    def test_spearman_perfect(self):
        assert spearman_correlation([1, 2, 3, 4], [10, 20, 30, 40]) == pytest.approx(1.0)

    def test_spearman_reversed(self):
        assert spearman_correlation([1, 2, 3, 4], [4, 3, 2, 1]) == pytest.approx(-1.0)

    def test_spearman_with_ties(self):
        value = spearman_correlation([1, 1, 2, 3], [1, 2, 3, 4])
        assert -1.0 <= value <= 1.0

    def test_spearman_constant_sequence(self):
        assert spearman_correlation([1, 1, 1], [1, 2, 3]) == 0.0

    def test_spearman_validation(self):
        with pytest.raises(ConfigurationError):
            spearman_correlation([1], [1])
        with pytest.raises(ConfigurationError):
            spearman_correlation([1, 2], [1, 2, 3])

    def test_kendall_perfect_and_reversed(self):
        assert kendall_tau([1, 2, 3], [1, 2, 3]) == pytest.approx(1.0)
        assert kendall_tau([1, 2, 3], [3, 2, 1]) == pytest.approx(-1.0)

    def test_kendall_matches_scipy(self):
        import random

        kendalltau = pytest.importorskip("scipy.stats").kendalltau

        rng = random.Random(3)
        x = [rng.random() for _ in range(30)]
        y = [rng.random() for _ in range(30)]
        ours = kendall_tau(x, y)
        theirs = kendalltau(x, y).statistic
        assert ours == pytest.approx(theirs, abs=1e-12)

    def test_spearman_matches_scipy(self):
        import random

        spearmanr = pytest.importorskip("scipy.stats").spearmanr

        rng = random.Random(4)
        x = [rng.random() for _ in range(25)]
        y = [rng.random() for _ in range(25)]
        assert spearman_correlation(x, y) == pytest.approx(spearmanr(x, y).statistic, abs=1e-12)

    def test_top_k_accuracy(self):
        exact = {"a": 3.0, "b": 2.0, "c": 1.0, "d": 0.5}
        estimated = {"a": 2.5, "b": 0.1, "c": 1.5, "d": 0.2}
        assert top_k_accuracy(estimated, exact, 1) == 1.0
        assert top_k_accuracy(estimated, exact, 2) == 0.5

    def test_top_k_validation(self):
        with pytest.raises(ConfigurationError):
            top_k_accuracy({"a": 1.0}, {"a": 1.0}, 0)

    def test_ranking_report(self):
        exact = {v: float(v) for v in range(10)}
        estimated = {v: float(v) + 0.01 for v in range(10)}
        report = ranking_report(estimated, exact, k=3)
        assert report["spearman"] == pytest.approx(1.0)
        assert report["kendall"] == pytest.approx(1.0)
        assert report["top_k_accuracy"] == 1.0

    def test_ranking_report_needs_common_vertices(self):
        with pytest.raises(ConfigurationError):
            ranking_report({0: 1.0}, {1: 1.0})


class TestCoverage:
    def test_perfect_estimator_never_fails(self):
        result = empirical_coverage(lambda rng: 1.0, 1.0, epsilon=0.1, runs=20, seed=1)
        assert result.failures == 0
        assert result.empirical_failure_rate == 0.0
        assert result.within_bound()

    def test_bad_estimator_always_fails(self):
        result = empirical_coverage(lambda rng: 5.0, 1.0, epsilon=0.1, runs=10, seed=1)
        assert result.failures == 10
        assert result.empirical_failure_rate == 1.0

    def test_bound_recorded_and_checked(self):
        result = empirical_coverage(
            lambda rng: 1.0, 1.0, epsilon=0.1, runs=5, seed=1, theoretical_bound=0.5
        )
        assert result.theoretical_bound == 0.5
        assert result.within_bound()

    def test_noisy_estimator_partial_failures(self):
        result = empirical_coverage(
            lambda rng: 1.0 + rng.uniform(-0.2, 0.2), 1.0, epsilon=0.1, runs=200, seed=2
        )
        assert 0.0 < result.empirical_failure_rate < 1.0

    def test_coverage_is_reproducible(self):
        runs = [
            empirical_coverage(
                lambda rng: rng.random(), 0.5, epsilon=0.25, runs=50, seed=3
            ).empirical_failure_rate
            for _ in range(2)
        ]
        assert runs[0] == runs[1]

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            empirical_coverage(lambda rng: 1.0, 1.0, epsilon=0.1, runs=0)
        with pytest.raises(ConfigurationError):
            empirical_coverage(lambda rng: 1.0, 1.0, epsilon=-1.0, runs=5)

    def test_coverage_curve_monotone_in_epsilon(self):
        results = coverage_curve(
            lambda rng: rng.uniform(0.0, 1.0),
            0.5,
            epsilons=[0.05, 0.2, 0.4, 0.6],
            runs=300,
            seed=5,
        )
        rates = [r.empirical_failure_rate for r in results]
        assert rates == sorted(rates, reverse=True)

    def test_coverage_curve_records_bounds(self):
        results = coverage_curve(
            lambda rng: 0.5, 0.5, epsilons=[0.1, 0.2], runs=5, seed=1,
            bound_for_epsilon=lambda eps: eps,
        )
        assert [r.theoretical_bound for r in results] == [0.1, 0.2]


class TestConvergence:
    def test_sweep_shapes(self):
        points = convergence_sweep(
            lambda samples, rng: 1.0 + rng.gauss(0, 1.0 / samples ** 0.5),
            1.0,
            sample_budgets=[10, 100],
            repetitions=5,
            seed=1,
        )
        assert [p.samples for p in points] == [10, 100]
        assert all(isinstance(p, ConvergencePoint) for p in points)
        row = points[0].as_row()
        assert set(row) == {"samples", "mean_error", "max_error", "rms_error", "stddev", "runs"}

    def test_sweep_error_decreases_with_samples(self):
        points = convergence_sweep(
            lambda samples, rng: 1.0 + rng.gauss(0, 1.0 / samples ** 0.5),
            1.0,
            sample_budgets=[4, 400],
            repetitions=30,
            seed=2,
        )
        assert points[1].mean_error < points[0].mean_error

    def test_sweep_validation(self):
        with pytest.raises(ConfigurationError):
            convergence_sweep(lambda s, rng: 1.0, 1.0, [10], repetitions=0)
        with pytest.raises(ConfigurationError):
            convergence_sweep(lambda s, rng: 1.0, 1.0, [0], repetitions=1)

    def test_bias_curve(self):
        curve = bias_curve([0.5, 0.8, 0.95], 1.0)
        assert curve == pytest.approx([0.5, 0.2, 0.05])
