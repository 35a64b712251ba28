"""Exact metamorphic relations at the benchmark's sizes.

The brute-force oracle only reaches small grids; these relations check
the searches themselves on thousands of candidates per group, with
exact ==:

- shuffling the rows gives identical results;
- repeating every row 3 times gives identical thresholds and accuracy
  (each statistic is the same ratio, so the same float);
- halving the scores picks the same candidate indices.

The data are drawn as the benchmark draws them: group g has base rate
BASE_RATES[g], scores are the exact posteriors, and dataset k of a
workload uses spec seed 16 + k, as at the benchmark's seed 1.
"""

import numpy as np
import pytest

from levelup import (
    Equality,
    FairnessMeasure,
    GroupSpec,
    MaximumRate,
    MinimumRate,
    SynthSpec,
    Unconstrained,
    candidate_thresholds,
    enforce,
    scored_from_arrays,
    synth_generate,
)

BASE_RATES = (0.35, 0.15, 0.25, 0.45, 0.10, 0.30, 0.20, 0.40)

SEPARABLE = {
    "Unconstrained": Unconstrained(),
    "MinimumRate tpr 0.8": MinimumRate("tpr", 0.8),
    "MaximumRate 0.3": MaximumRate(0.3),
    "Equality dp 0.02": Equality(FairnessMeasure.DEMOGRAPHIC_PARITY, 0.02),
}
CONSTRAINTS = {
    **SEPARABLE,
    "Equality eodds 0.05": Equality(FairnessMeasure.EQUALIZED_ODDS, 0.05),
    "Equality cuae 0.1": Equality(FairnessMeasure.CONDITIONAL_USE_ACCURACY_EQUALITY, 0.1),
}
# (groups, rows per group, spec seed, constraints run)
SETS = {
    "2x1200": (2, 1200, 16, CONSTRAINTS),
    "3x300": (3, 300, 17, CONSTRAINTS),
    "4x2000": (4, 2000, 18, CONSTRAINTS),
    "8x1000": (8, 1000, 19, CONSTRAINTS),
    "4x50k": (4, 50_000, 16, SEPARABLE),
}


def arrays(n_groups, rows, seed):
    spec = SynthSpec(
        groups=tuple(
            GroupSpec(size=rows, positive_base_rate=BASE_RATES[g], score_mean_pos=0.8,
                      score_mean_neg=0.3, score_spread=0.25, name=f"g{g}")
            for g in range(n_groups)
        ),
        seed=seed,
    )
    out = synth_generate(spec)
    ds = out.dataset
    return out.true_scores, ds.labels, ds.groups, ds.group_names


def candidate_indices(scored, result):
    return tuple(
        int(np.flatnonzero(candidate_thresholds(scored, g) == t)[0])
        for g, t in enumerate(result.policy.thresholds)
    )


@pytest.fixture(scope="module", params=list(SETS))
def case(request):
    n_groups, rows, seed, constraints = SETS[request.param]
    scores, labels, groups, names = arrays(n_groups, rows, seed)
    scored = scored_from_arrays(scores, labels, groups, names)
    base = {name: enforce(scored, c) for name, c in constraints.items()}
    return (scores, labels, groups, names), constraints, scored, base


def test_shuffled_rows_give_identical_results(case):
    (scores, labels, groups, names), constraints, _, base = case
    order = np.random.default_rng(5).permutation(len(scores))
    shuffled = scored_from_arrays(scores[order], labels[order], groups[order], names)
    for name, c in constraints.items():
        assert enforce(shuffled, c) == base[name], name


def test_repeated_rows_give_identical_thresholds_and_accuracy(case):
    (scores, labels, groups, names), constraints, _, base = case
    tripled = scored_from_arrays(np.repeat(scores, 3), np.repeat(labels, 3),
                                 np.repeat(groups, 3), names)
    for name, c in constraints.items():
        got, want = enforce(tripled, c), base[name]
        assert (got.policy.thresholds, got.accuracy) == \
            (want.policy.thresholds, want.accuracy), name


def test_halved_scores_pick_the_same_candidates(case):
    (scores, labels, groups, names), constraints, scored, base = case
    halved = scored_from_arrays(scores / 2, labels, groups, names)
    for name, c in constraints.items():
        got = enforce(halved, c)
        assert candidate_indices(halved, got) == candidate_indices(scored, base[name]), name
