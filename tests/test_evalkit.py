"""Metrics against linear-scan oracles and the t-test against frozen
reference values (computed beforehand with an independent statistical oracle)."""

import math

import numpy as np
import pytest

from sessgraph import evalkit as ek
from sessgraph.errors import DataError, NumericError
from sessgraph.knnrec import RankedList

# (a, b, t, df, two-sided p) — frozen from an independent statistical oracle
TTEST_REFERENCE = [
    ([0.9, 1.1, 1.0, 0.8, 1.2], [0.0, 0.0, 0.0, 0.0, 0.0],
     14.142135623730951, 4, 0.0001451281706131975),
    ([1.0, 2.0, 3.0, 4.0, 5.0], [1.1, 1.9, 3.2, 3.8, 5.1],
     -0.2721655269759075, 4, 0.7989658591927795),
    ([0.52, 0.48, 0.5, 0.55, 0.47, 0.51], [0.5, 0.46, 0.49, 0.52, 0.47, 0.5],
     3.5032452487268526, 5, 0.017224549680341393),
    ([1.0, -1.0, 1.0, -1.0], [0.0, 0.0, 0.0, 0.0],
     0.0, 3, 1.0),
    ([10.0, 12.0, 9.0, 11.0], [9.0, 13.0, 10.0, 10.0],
     0.0, 3, 1.0),
    ([0.31, 0.29, 0.3, 0.33, 0.28, 0.34, 0.27], [0.3, 0.31, 0.29, 0.3, 0.29, 0.31, 0.3],
     0.3202563076101762, 6, 0.7596334165649278),
    ([2.5, 2.7, 2.6], [2.4, 2.5, 2.55],
     2.6457513110645956, 2, 0.11808289631180274),
    ([0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8], [0.15, 0.18, 0.33, 0.38, 0.52, 0.58, 0.72, 0.77],
     -0.35675303400633734, 7, 0.7317884933625411),
    ([5.0, 6.0, 7.0, 8.0, 9.0, 10.0], [5.5, 5.8, 7.5, 7.6, 9.4, 9.5],
     -0.2617119612951066, 5, 0.8039826051371968),
    ([0.9, 1.1, 1.0, 0.8, 1.2], [1.0, 1.0, 0.9, 0.9, 1.0],
     0.666666666666667, 4, 0.5414697392755848),
]

# (t, df, two-sided p) spot checks of the internal distribution
T_CDF_REFERENCE = [
    (1.0, 1, 0.49999999999999956),
    (2.0, 3, 0.1393259685588431),
    (14.142135623730951, 4, 0.0001451281706131975),
    (0.5, 10, 0.6278936057429729),
    (3.0, 7, 0.019942126131992522),
    (1.96, 1000, 0.05027318495574871),
]


def _ranked(items):
    return RankedList(tuple((i, 1.0 / (r + 1)) for r, i in enumerate(items)))


# ---------------------------------------------------------------------------
# hit rate / MRR
# ---------------------------------------------------------------------------

def test_hit_rate_basics():
    ranked = _ranked(list(range(20)))
    assert ek.hit_rate(ranked, 2, 10) == 1      # rank 3
    assert ek.hit_rate(ranked, 10, 10) == 0     # rank 11: boundary
    assert ek.hit_rate(ranked, 99, 20) == 0


def test_mrr_basics():
    ranked = _ranked(list(range(30)))
    assert ek.mrr(ranked, 0, 10) == 1.0
    assert ek.mrr(ranked, 3, 20) == 0.25
    assert ek.mrr(ranked, 20, 20) == 0.0        # rank 21: boundary


def test_metrics_match_linear_scan_oracle():
    rng = np.random.default_rng(0)
    for _ in range(50):
        items = rng.permutation(40)[: rng.integers(1, 30)].tolist()
        target = int(rng.integers(0, 40))
        for k in (10, 20):
            # linear-scan oracle
            hr = 0
            rr = 0.0
            for pos, item in enumerate(items[:k], start=1):
                if item == target:
                    hr = 1
                    rr = 1.0 / pos
                    break
            assert ek.hit_rate(items, target, k) == hr
            assert ek.mrr(items, target, k) == pytest.approx(rr)


def test_mrr_bounded_by_hit_rate():
    rng = np.random.default_rng(1)
    for _ in range(100):
        items = rng.permutation(25)[:15].tolist()
        target = int(rng.integers(0, 25))
        for k in (5, 10, 20):
            assert ek.mrr(items, target, k) <= ek.hit_rate(items, target, k)


def test_metrics_nonincreasing_in_smaller_k():
    rng = np.random.default_rng(2)
    for _ in range(50):
        items = rng.permutation(30).tolist()
        target = int(rng.integers(0, 30))
        assert ek.hit_rate(items, target, 10) <= ek.hit_rate(items, target, 20)
        assert ek.mrr(items, target, 10) <= ek.mrr(items, target, 20)


# ---------------------------------------------------------------------------
# t distribution and paired test
# ---------------------------------------------------------------------------

def test_incomplete_beta_edges():
    assert ek.regularized_incomplete_beta(2.0, 3.0, 0.0) == 0.0
    assert ek.regularized_incomplete_beta(2.0, 3.0, 1.0) == 1.0
    # symmetry: I_x(a,b) = 1 - I_{1-x}(b,a)
    for a, b, x in [(2.0, 5.0, 0.3), (0.5, 0.5, 0.7), (4.0, 1.5, 0.42)]:
        lhs = ek.regularized_incomplete_beta(a, b, x)
        rhs = 1.0 - ek.regularized_incomplete_beta(b, a, 1.0 - x)
        assert lhs == pytest.approx(rhs, abs=1e-14)


def test_incomplete_beta_nonconvergence_is_numeric_error():
    """The CLI maps NumericError to exit 4; a bare ArithmeticError would
    escape it as a traceback."""
    with pytest.raises(NumericError, match="incomplete beta did not converge"):
        ek.regularized_incomplete_beta(1e7, 1e7, 0.5)


@pytest.mark.parametrize("t,df,p", T_CDF_REFERENCE)
def test_t_two_sided_p_matches_reference(t, df, p):
    assert ek.t_two_sided_p(t, df) == pytest.approx(p, abs=1e-6)


@pytest.mark.parametrize("a,b,t,df,p", TTEST_REFERENCE)
def test_paired_t_test_matches_reference(a, b, t, df, p):
    r = ek.paired_t_test(a, b)
    assert r.degenerate is False
    assert r.df == df
    assert r.t == pytest.approx(t, abs=1e-6)
    assert r.p == pytest.approx(p, abs=1e-6)
    assert r.significant == (p < 0.05)


def test_constant_difference_is_degenerate():
    # 0.5 offsets of small integers are exactly representable, so the
    # difference vector has a true zero standard deviation
    b = [1.0, 2.0, 3.0, 4.0, 5.0]
    a = [x + 0.5 for x in b]
    r = ek.paired_t_test(a, b)
    assert r.degenerate is True
    assert r.t is None and r.p is None
    assert r.significant is False


def test_zero_mean_difference_p_is_one():
    r = ek.paired_t_test([1.0, -1.0, 1.0, -1.0], [0.0, 0.0, 0.0, 0.0])
    assert r.t == 0.0 and r.p == pytest.approx(1.0)


def test_t_test_symmetry():
    rng = np.random.default_rng(3)
    a = rng.normal(size=8)
    b = rng.normal(size=8)
    r1 = ek.paired_t_test(a, b)
    r2 = ek.paired_t_test(b, a)
    assert r1.t == pytest.approx(-r2.t)
    assert r1.p == pytest.approx(r2.p, abs=1e-14)


def test_t_test_rejects_size_mismatch():
    with pytest.raises(DataError):
        ek.paired_t_test([1.0, 2.0], [1.0])
    with pytest.raises(DataError):
        ek.paired_t_test([1.0], [2.0])


# ---------------------------------------------------------------------------
# experiment orchestration
# ---------------------------------------------------------------------------

def test_query_metrics_shapes():
    ranked_lists = [_ranked([0, 1, 2]), _ranked([3, 4])]
    targets = [1, 9]
    out = ek.query_metrics(ranked_lists, targets)
    assert out["HR@10"].tolist() == [1.0, 0.0]
    assert out["MRR@10"].tolist() == [0.5, 0.0]
    assert out["MRR@20"].tolist() == [0.5, 0.0]


def test_deterministic_pipeline_gives_zero_sd():
    def pipeline(seed):
        return {"HR@10": np.array([1.0, 0.0, 1.0]), "MRR@10": np.array([0.5, 0.0, 1.0])}

    report = ek.run_experiment(pipeline, repeats=5, master_seed=7)
    assert len(report.runs["HR@10"]) == 5
    assert float(np.std(report.runs["HR@10"])) == 0.0
    assert report.mean("HR@10") == pytest.approx(2 / 3)


def test_report_mean_equals_manual_mean():
    rng = np.random.default_rng(4)

    def pipeline(seed):
        local = np.random.default_rng(seed)
        return {"HR@10": local.uniform(size=10)}

    report = ek.run_experiment(pipeline, repeats=5, master_seed=3)
    manual = np.mean([np.mean(np.random.default_rng(3 + i).uniform(size=10))
                      for i in range(5)])
    assert report.mean("HR@10") == pytest.approx(float(manual))


def test_aggregation_linearity():
    """Concatenating two query sets gives the weighted mean of their metrics."""
    q1 = np.array([1.0, 0.0, 1.0])
    q2 = np.array([0.0, 0.0])
    merged = np.concatenate([q1, q2])
    expected = (q1.mean() * 3 + q2.mean() * 2) / 5
    assert merged.mean() == pytest.approx(expected)
    report = ek.MetricReport()
    report.add_run({"HR@10": merged})
    assert report.mean("HR@10") == pytest.approx(expected)


def test_run_errors_carry_run_index():
    def pipeline(seed):
        if seed == 2:
            raise ValueError("boom")
        return {"HR@10": np.array([1.0])}

    with pytest.raises(ValueError, match="run 2"):
        ek.run_experiment(pipeline, repeats=5, master_seed=0)


def test_compare_reports_by_queries_and_runs():
    ra, rb = ek.MetricReport(), ek.MetricReport()
    rng = np.random.default_rng(5)
    base = rng.uniform(size=20)
    for i in range(5):
        ra.add_run({"HR@10": base + 0.05 + rng.normal(0, 0.01, size=20)})
        rb.add_run({"HR@10": base})
    by_q = ek.compare_reports(ra, rb, pair_by="queries")
    by_r = ek.compare_reports(ra, rb, pair_by="runs")
    assert by_q["HR@10"].significant
    assert by_r["HR@10"].p is not None


def test_table_lines_format():
    report = ek.MetricReport()
    report.add_run({"HR@10": np.array([1.0, 0.0])})
    report.add_run({"HR@10": np.array([1.0, 1.0])})
    lines = report.table_lines()
    assert lines[0] == "metric\trun0\trun1\tmean"
    assert lines[1] == "HR@10\t0.500000\t1.000000\t0.750000"


def test_run_errors_keep_their_type():
    from sessgraph.errors import RowError

    def pipeline(seed):
        if seed == 3:
            raise RowError(12, "bad field")
        return {"HR@10": np.array([1.0])}

    with pytest.raises(RowError, match=r"run 1: row 12: bad field") as exc:
        ek.run_experiment(pipeline, repeats=5, master_seed=2)
    assert exc.value.row == 12


def test_rank_metrics_on_hand_made_ranks():
    # absent, rank 1, rank exactly k=10, rank k+1=11, rank exactly 20, rank 21
    out = ek.rank_metrics([0, 1, 10, 11, 20, 21], ks=(10, 20))
    assert list(out) == ["HR@10", "HR@20", "MRR@10", "MRR@20"]
    assert out["HR@10"].tolist() == [0.0, 1.0, 1.0, 0.0, 0.0, 0.0]
    assert out["HR@20"].tolist() == [0.0, 1.0, 1.0, 1.0, 1.0, 0.0]
    assert out["MRR@10"].tolist() == [0.0, 1.0, 0.1, 0.0, 0.0, 0.0]
    assert out["MRR@20"].tolist() == [0.0, 1.0, 0.1, 1 / 11, 0.05, 0.0]
    assert all(v.dtype == np.float64 for v in out.values())
    with pytest.raises(DataError):
        ek.rank_metrics([1], ks=(0,))


def test_query_metrics_agree_with_per_list_metrics():
    rng = np.random.default_rng(6)
    lists = [list(rng.permutation(30)[:int(rng.integers(0, 25))]) for _ in range(40)]
    targets = [int(rng.integers(0, 30)) for _ in lists]
    out = ek.query_metrics([_ranked(items) for items in lists], targets, ks=(1, 5, 20))
    for i, (items, target) in enumerate(zip(lists, targets)):
        for k in (1, 5, 20):
            assert out[f"HR@{k}"][i] == ek.hit_rate(items, target, k)
            assert out[f"MRR@{k}"][i] == ek.mrr(items, target, k)
