"""Seeded synthetic corpus generator for desk-scale reproduction runs.

Word and page counts are drawn from log-normal distributions whose
parameters are solved numerically so that, after Tukey outlier removal,
the 2.5th/97.5th percentiles land on the published per-class reference
bounds. Author counts use explicit right-skewed integer distributions
(rounding a log-normal through the outlier filter would not recover the
narrow integer bounds), and thesis author counts are constant 1.
Words-per-page is derived as f2/f3, so it carries no target of its own.
"""

from __future__ import annotations

import math
from statistics import NormalDist

import numpy as np

from .ingest import DocType, FeatureVector
from .labeling import LabeledExample, check_proportions, largest_remainder_counts

_STD_NORMAL = NormalDist()
_QUARTILE_Z = _STD_NORMAL.inv_cdf(0.75)

#: Per-class [2.5th, 97.5th] percentile reference bounds for the four
#: features (f4 is implied by f2/f3 and is not a generator target).
REFERENCE_BOUNDS: dict[DocType, dict[str, tuple[float, float]]] = {
    DocType.RESEARCH: {
        "f1": (1.0, 5.0),
        "f2": (1226.825, 19151.425),
        "f3": (3.0, 41.0),
        "f4": (208.2297, 926.8950),
    },
    DocType.SLIDES: {
        "f1": (1.0, 8.0),
        "f2": (93.6, 7339.8),
        "f3": (1.0, 74.575),
        "f4": (8.0625, 722.9375),
    },
    DocType.THESIS: {
        "f1": (1.0, 1.0),
        "f2": (15184.0, 210720.0),
        "f3": (47.0, 478.0),
        "f4": (197.7846, 529.9571),
    },
}

#: Features whose marginals the generator is calibrated against.
PARAMETERIZED_FEATURES = ("f1", "f2", "f3")

#: Right-skewed author-count distributions; chosen so the reference
#: bounds survive the Tukey filter + outer-quantile derivation exactly.
_F1_PMF: dict[DocType, tuple[tuple[int, ...], tuple[float, ...]]] = {
    DocType.RESEARCH: ((1, 2, 3, 4, 5, 6), (0.30, 0.30, 0.20, 0.13, 0.05, 0.02)),
    DocType.SLIDES: (
        (1, 2, 3, 4, 5, 6, 7, 8, 9),
        (0.30, 0.22, 0.16, 0.12, 0.07, 0.05, 0.04, 0.03, 0.01),
    ),
    DocType.THESIS: ((1,), (1.0,)),
}

#: Rank correlation between log word count and log page count within a
#: class. Longer documents have more pages, so the counts move together;
#: the correlation leaves both calibrated marginals untouched but keeps
#: the derived words-per-page feature realistically concentrated.
_WORDS_PAGES_RHO = 0.8


def _post_filter_z(sigma: float, q: float) -> float:
    """Standard-normal score of the q-th post-Tukey quantile of lognormal(0, sigma).

    The Tukey fences of a lognormal depend on sigma alone once scaled by
    the median, so the retained probability band can be computed in
    closed form and the quantile mapped back through the normal CDF.
    """
    upper_arg = 2.5 * math.exp(_QUARTILE_Z * sigma) - 1.5 * math.exp(-_QUARTILE_Z * sigma)
    p_hi = _STD_NORMAL.cdf(math.log(upper_arg) / sigma)
    lower_arg = 2.5 * math.exp(-_QUARTILE_Z * sigma) - 1.5 * math.exp(_QUARTILE_Z * sigma)
    p_lo = _STD_NORMAL.cdf(math.log(lower_arg) / sigma) if lower_arg > 0 else 0.0
    mass = p_hi - p_lo
    return _STD_NORMAL.inv_cdf(p_lo + q * mass)


def calibrate_lognormal(
    lo: float, hi: float, q_lo: float = 0.025, q_hi: float = 0.975
) -> tuple[float, float]:
    """Solve (mu, sigma) so post-Tukey quantiles (q_lo, q_hi) equal (lo, hi)."""
    if not 0 < lo < hi:
        raise ValueError(f"need 0 < lo < hi, got ({lo}, {hi})")
    target = math.log(hi / lo)

    def span(sigma: float) -> float:
        return sigma * (_post_filter_z(sigma, q_hi) - _post_filter_z(sigma, q_lo))

    low, high = 1e-6, 1.0
    while span(high) < target:
        high *= 2.0
        if high > 64.0:
            raise ValueError(f"cannot calibrate bounds ({lo}, {hi})")
    for _ in range(100):
        mid = 0.5 * (low + high)
        if span(mid) < target:
            low = mid
        else:
            high = mid
    sigma = 0.5 * (low + high)
    mu = math.log(lo) - sigma * _post_filter_z(sigma, q_lo)
    return mu, sigma


def _count_params(doc_type: DocType, feature_id: str) -> tuple[float, float]:
    lo, hi = REFERENCE_BOUNDS[doc_type][feature_id]
    return calibrate_lognormal(lo, hi)


def generate_synthetic(
    n: int, proportions: dict[DocType, float], seed: int
) -> list[LabeledExample]:
    """Generate n labeled examples with largest-remainder class counts."""
    if n < 30:
        raise ValueError(f"need n >= 30 for a meaningful sample, got {n}")
    check_proportions(proportions)
    counts = largest_remainder_counts(n, proportions)
    rng = np.random.default_rng(seed)
    examples: list[LabeledExample] = []
    for doc_type in DocType:
        size = counts[doc_type]
        if size == 0:
            continue
        values, probs = _F1_PMF[doc_type]
        f1 = rng.choice(values, size=size, p=probs)
        mu2, sigma2 = _count_params(doc_type, "f2")
        mu3, sigma3 = _count_params(doc_type, "f3")
        z_words = rng.standard_normal(size)
        z_pages = _WORDS_PAGES_RHO * z_words + math.sqrt(
            1.0 - _WORDS_PAGES_RHO**2
        ) * rng.standard_normal(size)
        f2 = np.maximum(np.rint(np.exp(mu2 + sigma2 * z_words)), 0).astype(int)
        f3 = np.maximum(np.rint(np.exp(mu3 + sigma3 * z_pages)), 1).astype(int)
        for i in range(size):
            fv = FeatureVector(
                f1_authors=int(f1[i]),
                f2_total_words=int(f2[i]),
                f3_pages=int(f3[i]),
                f4_words_per_page=float(f2[i]) / float(f3[i]),
            )
            examples.append(LabeledExample(fv, doc_type, ""))
    order = rng.permutation(len(examples))
    return [
        LabeledExample(examples[j].features, examples[j].label, f"synth-{i:06d}")
        for i, j in enumerate(order)
    ]
