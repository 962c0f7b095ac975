"""Ranking metrics, repeated-run aggregation, and paired significance testing.

The Student-t tail probability is computed internally through the
regularized incomplete beta function (continued-fraction evaluation, Lentz's
method, accurate to well below 1e-8), so no statistics package is needed at
runtime.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .config import DEFAULTS
from .errors import DataError, NumericError
from .knnrec import RankedList

SIGNIFICANCE_LEVEL = 0.05
_EVAL = DEFAULTS["eval"]
_KS = tuple(_EVAL["k_values"])


def _ranked_items(ranked) -> list[int]:
    if isinstance(ranked, RankedList):
        return ranked.items()
    return list(ranked)


def hit_rate(ranked, target: int, k: int) -> int:
    """1 iff the target appears within the first k entries."""
    if k < 1:
        raise DataError(f"k must be positive, got {k}")
    return int(target in _ranked_items(ranked)[:k])


def mrr(ranked, target: int, k: int) -> float:
    """Reciprocal rank when the target is within the first k entries, else 0."""
    if k < 1:
        raise DataError(f"k must be positive, got {k}")
    items = _ranked_items(ranked)[:k]
    for pos, item in enumerate(items, start=1):
        if item == target:
            return 1.0 / pos
    return 0.0


# ---------------------------------------------------------------------------
# Student-t distribution
# ---------------------------------------------------------------------------

_CF_EPS = 3e-16
_CF_FPMIN = 1e-300
_CF_MAX_ITER = 300


def _beta_continued_fraction(a: float, b: float, x: float) -> float:
    qab, qap, qam = a + b, a + 1.0, a - 1.0
    c = 1.0
    d = 1.0 - qab * x / qap
    if abs(d) < _CF_FPMIN:
        d = _CF_FPMIN
    d = 1.0 / d
    h = d
    for m in range(1, _CF_MAX_ITER + 1):
        m2 = 2 * m
        aa = m * (b - m) * x / ((qam + m2) * (a + m2))
        d = 1.0 + aa * d
        if abs(d) < _CF_FPMIN:
            d = _CF_FPMIN
        c = 1.0 + aa / c
        if abs(c) < _CF_FPMIN:
            c = _CF_FPMIN
        d = 1.0 / d
        h *= d * c
        aa = -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2))
        d = 1.0 + aa * d
        if abs(d) < _CF_FPMIN:
            d = _CF_FPMIN
        c = 1.0 + aa / c
        if abs(c) < _CF_FPMIN:
            c = _CF_FPMIN
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < _CF_EPS:
            return h
    raise NumericError(f"incomplete beta did not converge for a={a}, b={b}, x={x}")


def regularized_incomplete_beta(a: float, b: float, x: float) -> float:
    """I_x(a, b) for a, b > 0 and x in [0, 1]."""
    if not 0.0 <= x <= 1.0:
        raise DataError(f"x must be in [0, 1], got {x}")
    if x == 0.0:
        return 0.0
    if x == 1.0:
        return 1.0
    ln_front = (math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)
                + a * math.log(x) + b * math.log1p(-x))
    front = math.exp(ln_front)
    if x < (a + 1.0) / (a + b + 2.0):
        return front * _beta_continued_fraction(a, b, x) / a
    return 1.0 - front * _beta_continued_fraction(b, a, 1.0 - x) / b


def t_two_sided_p(t: float, df: int) -> float:
    """P(|T| >= |t|) for T ~ Student-t with df degrees of freedom."""
    if df < 1:
        raise DataError(f"degrees of freedom must be >= 1, got {df}")
    if t == 0.0:
        return 1.0
    x = df / (df + t * t)
    return regularized_incomplete_beta(df / 2.0, 0.5, x)


# ---------------------------------------------------------------------------
# paired t-test
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TTestResult:
    t: float | None
    df: int
    p: float | None
    significant: bool
    degenerate: bool = False


def paired_t_test(a, b, alpha: float = SIGNIFICANCE_LEVEL) -> TTestResult:
    """Two-sided paired test on differences a - b.

    A zero-variance difference vector (including the all-zero case) yields
    an explicit degenerate result instead of NaN.
    """
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.shape != b.shape or a.ndim != 1:
        raise DataError(f"paired vectors must share a 1-D shape, got {a.shape} vs {b.shape}")
    n = a.shape[0]
    if n < 2:
        raise DataError(f"need at least 2 pairs, got {n}")
    d = a - b
    sd = float(d.std(ddof=1))
    df = n - 1
    if sd == 0.0:
        return TTestResult(None, df, None, False, degenerate=True)
    t = float(d.mean()) / (sd / math.sqrt(n))
    p = t_two_sided_p(t, df)
    return TTestResult(t, df, p, p < alpha)


# ---------------------------------------------------------------------------
# repeated-run experiments
# ---------------------------------------------------------------------------

@dataclass
class MetricReport:
    """Per-metric per-run means plus retained per-query vectors."""

    runs: dict[str, list[float]] = field(default_factory=dict)
    per_query: dict[str, list[np.ndarray]] = field(default_factory=dict)

    def add_run(self, per_query_metrics: dict[str, np.ndarray]):
        for name, values in per_query_metrics.items():
            values = np.asarray(values, dtype=np.float64)
            self.runs.setdefault(name, []).append(float(values.mean()) if values.size else 0.0)
            self.per_query.setdefault(name, []).append(values)

    def mean(self, name: str) -> float:
        return float(np.mean(self.runs[name]))

    def metric_names(self) -> list[str]:
        return sorted(self.runs)

    def query_means(self, name: str) -> np.ndarray:
        """Per-query metric averaged over runs (pairing unit: queries)."""
        return np.mean(np.stack(self.per_query[name]), axis=0)

    def table_lines(self) -> list[str]:
        lines = ["metric\t" + "\t".join(f"run{i}" for i in range(len(next(iter(self.runs.values())))))
                 + "\tmean"]
        for name in self.metric_names():
            vals = "\t".join(f"{v:.6f}" for v in self.runs[name])
            lines.append(f"{name}\t{vals}\t{self.mean(name):.6f}")
        return lines


def standard_metric_names(ks=_KS) -> list[str]:
    return [f"HR@{k}" for k in ks] + [f"MRR@{k}" for k in ks]


def rank_metrics(ranks, ks=_KS) -> dict[str, np.ndarray]:
    """Per-query HR@k / MRR@k vectors from 1-based target ranks (0: absent)."""
    ranks = np.asarray(ranks, dtype=np.float64)
    out = {}
    for k in ks:
        if k < 1:
            raise DataError(f"k must be positive, got {k}")
        hit = (ranks > 0) & (ranks <= k)
        out[f"HR@{k}"] = hit.astype(np.float64)
        out[f"MRR@{k}"] = np.divide(1.0, ranks, out=np.zeros(len(ranks)), where=hit)
    return {name: out[name] for name in standard_metric_names(ks)}


def query_metrics(ranked_lists, targets, ks=_KS) -> dict[str, np.ndarray]:
    """Per-query HR@k / MRR@k vectors for a batch of ranked lists."""
    ranks = []
    for ranked, target in zip(ranked_lists, targets):
        items = _ranked_items(ranked)
        ranks.append(items.index(target) + 1 if target in items else 0)
    return rank_metrics(ranks, ks)


def run_experiment(pipeline, repeats: int = _EVAL["repeats"],
                   master_seed: int = _EVAL["master_seed"]) -> MetricReport:
    """Run `pipeline(seed)` for seeds master+0 .. master+repeats-1.

    The pipeline callable executes preprocess -> graph -> embed ->
    recommend/train -> evaluate and returns per-query metric vectors.
    Failures are re-raised as they are, with the run index prefixed.
    """
    report = MetricReport()
    for run_idx in range(repeats):
        try:
            per_query = pipeline(master_seed + run_idx)
        except Exception as exc:
            exc.args = (f"run {run_idx}: {exc}",)
            raise
        report.add_run(per_query)
    return report


def compare_reports(a: MetricReport, b: MetricReport,
                    pair_by: str = "queries") -> dict[str, TTestResult]:
    """Paired tests per metric across two experiments.

    pair_by='queries' pairs per-query values (averaged over runs; both
    experiments must share the same query set); pair_by='runs' pairs the
    per-run means.
    """
    if pair_by not in ("queries", "runs"):
        raise DataError(f"unknown pairing unit {pair_by!r}")
    out = {}
    for name in sorted(set(a.runs) & set(b.runs)):
        if pair_by == "queries":
            out[name] = paired_t_test(a.query_means(name), b.query_means(name))
        else:
            out[name] = paired_t_test(a.runs[name], b.runs[name])
    return out
