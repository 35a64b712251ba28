"""Exact metamorphic relations at the benchmark's sizes.

The brute-force oracle only reaches small grids; these relations check
the searches themselves on thousands of candidates per group, with
exact ==:

- shuffling the rows gives identical results;
- repeating every row 3 times gives identical thresholds and accuracy
  (each statistic is the same ratio, so the same float);
- halving the scores picks the same candidate indices;
- the equality frontier equals fresh enforces point by point, and along
  those enforces accuracy never rises as epsilon shrinks and no achieved
  disparity exceeds its epsilon.

Every base result, the 50-point dp and eodds equality frontiers on
4 x 2000 and 8 x 1000 rows and the cuae ones on 2 x 1200 and 4 x 2000
rows are pinned by the SHA-256 of repr((thresholds, accuracy)), as are
the benchmark's 20-point minimum-rate frontiers on 4 x 50k rows for each
of the four statistics, so a search change that moves any of them fails
here.  So are the partial level-ups of the five one-statistic measures on
4 x 2000 and 8 x 1000 rows and the full level-ups of the four minimum-rate
statistics on 4 x 50k rows, by the SHA-256 of repr((thresholds, accuracy,
provenance)).

The data are drawn as the benchmark draws them: group g has base rate
BASE_RATES[g], scores are the exact posteriors, and dataset k of a
workload uses spec seed 16 + k, as at the benchmark's seed 1.
"""

import functools
import hashlib

import numpy as np
import pytest

import oracle
from levelup import (
    REJECT_ALL,
    Equality,
    FairnessMeasure,
    GroupSpec,
    InfeasibleConstraintError,
    MaximumRate,
    MinimumRate,
    SynthSpec,
    Unconstrained,
    candidate_thresholds,
    disparity,
    enforce,
    equality_frontier,
    full_level_up,
    mrc_frontier,
    partial_level_up,
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


def digest(value):
    return hashlib.sha256(repr(value).encode()).hexdigest()


BASE_PINS = {
    "2x1200": {
        "Unconstrained": "9661c0e33fcc2910027eca1dffb579b936736821a83623223cf900ca8cefd9a1",
        "MinimumRate tpr 0.8": "3b8e848cd69d676ff50622ccbeca3f3d027579d1a966096db6016b724ef24d3a",
        "MaximumRate 0.3": "1e95434432d967a79eb75f7ecc1dd1c5baa062b93f4542582bdc721d0757b463",
        "Equality dp 0.02": "48fd59c42752590a69edb0c90bc2c7213d0ca08b367357126629fde4358ed919",
        "Equality eodds 0.05": "95b93b4b63c8ea3238022d15d09f50906e2877a747a3f780b527b5ef84b60a7d",
        "Equality cuae 0.1": "0c496e3823421ccc3e9bee1d83dadfe8eccd6fe1968d8da65eed24422b12f7a3",
    },
    "3x300": {
        "Unconstrained": "fbb3c6c1d67d28b19d99cfc82d57882edee74a2b9c725ecb78d69165d596f975",
        "MinimumRate tpr 0.8": "2badb20123a8b30af94934f7b28fddd97b85a6094ab895e1740a0fc94484d1c0",
        "MaximumRate 0.3": "c1ba99e2c23a3f3af8f7a645c61727a09447e97f3886b9dbae7c6be288482fac",
        "Equality dp 0.02": "12e480c6db358eb906ca647e73faaffa3dbe847e1a8ccf6b3e1fefb187df8c5f",
        "Equality eodds 0.05": "b49013b3de63cff02bb088c11bf1218c1108d8db2e4f920f377457a8c8afa083",
        "Equality cuae 0.1": "141775ebce17762bf11bc868af464b04a2dcc955c0e7b4f1e638d66667845491",
    },
    "4x2000": {
        "Unconstrained": "5693fab6b87c20670ef8244eb2e18cea5c6f74595a6b3e434fbd2b10fa08b88d",
        "MinimumRate tpr 0.8": "c35b1b7ab2395014b69d9bfe1009f6955a27ad6e9c2b2fe621c652c7c5a19c7a",
        "MaximumRate 0.3": "2795feffba5dc87b404f326bba04fa6de7515daaa49956fbc40bc5cb18da2dc3",
        "Equality dp 0.02": "f41f4f6204eac2f8e699b127b8102a5152a3ed6a7a7bb84063136b23bf1634a1",
        "Equality eodds 0.05": "85ab43b0f089d23613424daca10f135e0eff2d0204081334d523790def50c110",
        "Equality cuae 0.1": "909e10a3817048fd601904189bd2cb1a759603915182d9f201aa8adbb70d72db",
    },
    "8x1000": {
        "Unconstrained": "f2c52ee0891af7d61a892f2b21423496c0312b73392cb769e6ad2951e0f5eabe",
        "MinimumRate tpr 0.8": "087a97ba505974bd60a7851f392e0565b93af0bc998406bcac0cb3cdb95947b9",
        "MaximumRate 0.3": "165b30841ee240917ee5b9a2b8a97efd4a63edef7d7235760db2377ec9066fb6",
        "Equality dp 0.02": "4b273f011ccc26d38d8971ddbe6af323b8dd1ec5d2c23231c6b0f7448a17732a",
        "Equality eodds 0.05": "818a40a4d025bf5e9405de82d688e658d6f8a60c42d39a8606e698ca74f1fdbd",
        "Equality cuae 0.1": "89a61c220822ab4c9736c9cd0272c58f306b8ace8cec82c8815a6b74b0f294eb",
    },
    "4x50k": {
        "Unconstrained": "ca8dd378901a2ee3aaabcbd9c781d02ecbaeeb84a4a5977615d9d96bbba1942a",
        "MinimumRate tpr 0.8": "791820c1eaf21f9df09388e2a5847779da6dc4fea96f841f66c216682f58fcdc",
        "MaximumRate 0.3": "7f9717a65dacd598f965f893f49bb3b148a0a15bf797186dd25c1fe41993ad5f",
        "Equality dp 0.02": "0f4f2cd8d754dd8cc2f43505903a6c98c8d20b5e311ac7076933c6bccdc8b282",
    },
}


def test_base_results_are_pinned(case, request):
    *_, base = case
    pins = BASE_PINS[request.node.callspec.params["case"]]
    got = {name: digest((r.policy.thresholds, r.accuracy)) for name, r in base.items()}
    assert got == pins


@functools.cache
def scored_set(name):
    n_groups, rows, seed, _ = SETS[name]
    return scored_from_arrays(*arrays(n_groups, rows, seed))


@functools.cache
def frontier(name, measure):
    return equality_frontier(scored_set(name), measure, 50)


DP, EODDS = FairnessMeasure.DEMOGRAPHIC_PARITY, FairnessMeasure.EQUALIZED_ODDS
CUAE = FairnessMeasure.CONDITIONAL_USE_ACCURACY_EQUALITY
SWEEPS = pytest.mark.parametrize("measure", [DP, EODDS], ids=lambda m: m.value)
FRONTIER_PINS = {
    ("4x2000", "demographic_parity"): "493c4e90fce498fdf437a782bb108abee82df702e599e54654b7bf791d904c61",
    ("4x2000", "equalized_odds"): "5f4e733af351afdc3948b1c6ae7e58115607cb2e879eb957f5dc752d435a7e97",
    ("8x1000", "demographic_parity"): "d7b976c044d70a9898266ea72f966f5f05ef0a69a5e52cd057a902b7356ebec3",
    ("8x1000", "equalized_odds"): "d79adc029fe42443775ffb58eac9e4222ae4aa0449ada49ab8f66d589c684c98",
    # a prune pass drops members at most points of these cuae sweeps, so
    # they pin the scan of the whole member set; each skips epsilon 0
    ("2x1200", "conditional_use_accuracy_equality"):
        "9352d9818fb6832373994bbb8a98771f963d5b507e2ddf1bfde2f5ea8566620d",
    ("4x2000", "conditional_use_accuracy_equality"):
        "64541fbcd616d555796be5e1864413ff635e134614d2d4b0e1eb7eb7678daefe",
}


@SWEEPS
@pytest.mark.parametrize("name", ["4x2000", "8x1000"])
def test_frontier_points_are_pinned(name, measure):
    points = frontier(name, measure).points
    assert digest(tuple((p.policy.thresholds, p.accuracy) for p in points)) == \
        FRONTIER_PINS[name, measure.value]


@pytest.mark.parametrize("name, least", [("2x1200", "7.32467e-05"), ("4x2000", "0.000744118")],
                         ids=["2x1200", "4x2000"])
def test_cuae_frontier_points_are_pinned(name, least):
    points = frontier(name, CUAE).points
    assert digest(tuple((p.policy.thresholds, p.accuracy) for p in points)) == \
        FRONTIER_PINS[name, CUAE.value]
    assert frontier(name, CUAE).skipped == (
        "epsilon=0: no candidate policy reaches disparity <= 0.0; "
        f"minimum achievable disparity is {least}",)


MRC_FRONTIER_PINS = {
    "selection_rate": "63f88bf7c95600c01ffd36ce341e365aee84b945181abb7e5075a9dba3780ed1",
    "tpr": "823323c02f47019de3f40ef59aaa886c00c8f75e06cb72d64988c11dda6dd795",
    "tnr": "326aab232cad47b941fc3055adeac81793716be1e1ed6da5323b84a2e4875434",
    "precision": "919d54f9fe25745bc15325ddd6462371bdf7ba8bf713f8df1143c8a0a08e8b36",
}


@pytest.mark.parametrize("stat", list(MRC_FRONTIER_PINS))
def test_mrc_frontier_points_are_pinned(stat):
    result = mrc_frontier(scored_set("4x50k"), stat, 20)
    assert digest(tuple((p.policy.thresholds, p.accuracy) for p in result.points)) == \
        MRC_FRONTIER_PINS[stat]
    # every tau of these sweeps is feasible
    assert result.skipped == ()


LEVEL_UP_MEASURES = {
    "dp": DP,
    "eo": FairnessMeasure.EQUAL_OPPORTUNITY,
    "pp": FairnessMeasure.PREDICTIVE_PARITY,
    "fperb": FairnessMeasure.FALSE_POSITIVE_ERROR_RATE_BALANCE,
    "oae": FairnessMeasure.OVERALL_ACCURACY_EQUALITY,
}
PARTIAL_LEVEL_UP_PINS = {
    ("4x2000", "dp"): "1f4c13cb92ede382bf1cd428e249b24a55250c00b7630e8bbfc9628c1c01cb0e",
    ("4x2000", "eo"): "17417d37b9920d834b3aba03c413e18457fbcd446d0c23c8ffb541874c46f3f3",
    ("4x2000", "pp"): "be0f5c3441c307dbe81d7dea5daedcaf822fbd21ca2995e00e1c6fa914324e34",
    ("4x2000", "fperb"): "12870e08401376fda00cfbd80b98cd8be3062183c44147166f59122398a08c60",
    ("4x2000", "oae"): "104c57cc0ecf66ea4e6aa69c0c464359354aee42f8514ef11d2ebc991099c404",
    ("8x1000", "dp"): "3ab294f384a6db7d1c559c1364a8b6a15351629bbbe5bc3c254bbc0c3e639719",
    ("8x1000", "eo"): "b6ec499f466939aa2ba3c6b65af03d663acada872ec2e61fd7b674eb02e049fb",
    ("8x1000", "pp"): "722c7409a897889e2edb28de8d63e862da285669edfa4e317027600dcd73cf48",
    ("8x1000", "fperb"): "709d9ecf7ed9c971f21a66c120a0bfe2861413038327369d33981872bdf270b8",
    ("8x1000", "oae"): "1f396bbda09bfdc0c8cf072197c5be59fc83a8d14a209b30255080ddc6bc02df",
}
FULL_LEVEL_UP_PINS = {
    "selection_rate": "e7adbee45673275e61deeabbbbd15bcc474a9f317ce5e8cc5933cfbfeec6853f",
    "tpr": "a93c365b9a0aba3aac0c9ad682534cd65fdf23977974373c27294dccc8069b99",
    "tnr": "8a6fcef773cf2a4c125bf3a19aafb9e90ee8779a2f30dea871c47ea33cb3877d",
    "precision": "83e0d42be322b7ecc7606ac41de61dd0a6d2b0aad0ffe54c575dd033a056efae",
}


def level_up_digest(result):
    return digest((result.policy.thresholds, result.accuracy, result.policy.provenance))


@pytest.mark.parametrize("name, measure", list(PARTIAL_LEVEL_UP_PINS))
def test_partial_level_up_is_pinned(name, measure):
    # oae levels accuracy, a statistic no minimum rate constraint takes
    result = partial_level_up(scored_set(name), LEVEL_UP_MEASURES[measure], 0.01)
    assert level_up_digest(result) == PARTIAL_LEVEL_UP_PINS[name, measure]


@pytest.mark.parametrize("stat", list(FULL_LEVEL_UP_PINS))
def test_full_level_up_is_pinned(stat):
    result = full_level_up(scored_set("4x50k"), stat)
    assert level_up_digest(result) == FULL_LEVEL_UP_PINS[stat]


@pytest.mark.parametrize("name, measure", [
    ("2x1200", DP), ("2x1200", EODDS), ("2x1200", CUAE), ("8x1000", DP), ("8x1000", EODDS),
], ids=lambda v: getattr(v, "value", v))
def test_frontier_equals_fresh_enforces(name, measure):
    scored = scored_set(name)
    assert frontier(name, measure) == oracle.equality_frontier(scored, measure, 50)
    d0 = disparity(enforce(scored, Unconstrained()).metrics, measure)
    fresh = []
    for eps in np.linspace(0.0, d0, 50):
        try:
            fresh.append((float(eps), enforce(scored, Equality(measure, float(eps)))))
        except InfeasibleConstraintError:
            continue
    # epsilon ascends, so accuracy must not fall along the list
    accuracy = [r.accuracy for _, r in fresh]
    assert accuracy == sorted(accuracy)
    assert all(disparity(r.metrics, measure) <= eps for eps, r in fresh)


def many_small_groups():
    """64 groups of 8 to 120 rows (seed 5), drawn as arrays() draws them,
    base rates cycling through BASE_RATES; a group drawn without a
    positive gets its highest-scored row as one, so every group has both
    labels."""
    sizes = np.random.default_rng(5).integers(8, 121, 64)
    spec = SynthSpec(
        groups=tuple(
            GroupSpec(size=int(n), positive_base_rate=BASE_RATES[g % 8], score_mean_pos=0.8,
                      score_mean_neg=0.3, score_spread=0.25, name=f"g{g}")
            for g, n in enumerate(sizes)
        ),
        seed=5,
    )
    out = synth_generate(spec)
    scores, labels, groups = out.true_scores, out.dataset.labels.copy(), out.dataset.groups
    for g in range(64):
        rows = np.flatnonzero(groups == g)
        if not labels[rows].any():
            labels[rows[np.argmax(scores[rows])]] = 1
        assert not labels[rows].all()
    return scores, labels, groups, out.dataset.group_names


MANY_GROUPS = {
    "Equality dp 0.02": Equality(DP, 0.02),
    "Equality eo 0.05": Equality(FairnessMeasure.EQUAL_OPPORTUNITY, 0.05),
    "MinimumRate tpr 0.6": MinimumRate("tpr", 0.6),
    "MaximumRate 0.3": MaximumRate(0.3),
    "MaximumRate 0.0": MaximumRate(0.0),
}


@functools.cache
def many_small_groups_base():
    scored = scored_from_arrays(*many_small_groups())
    return {name: enforce(scored, c) for name, c in MANY_GROUPS.items()}


def test_many_small_groups_under_shuffle_and_repetition():
    scores, labels, groups, names = many_small_groups()
    order = np.random.default_rng(5).permutation(len(scores))
    shuffled = scored_from_arrays(scores[order], labels[order], groups[order], names)
    tripled = scored_from_arrays(np.repeat(scores, 3), np.repeat(labels, 3),
                                 np.repeat(groups, 3), names)
    for name, c in MANY_GROUPS.items():
        base = many_small_groups_base()[name]
        assert enforce(shuffled, c) == base, name
        got = enforce(tripled, c)
        assert (got.policy.thresholds, got.accuracy) == \
            (base.policy.thresholds, base.accuracy), name
    # a cap of 0 selects no row, so every group rejects all
    assert set(many_small_groups_base()["MaximumRate 0.0"].policy.thresholds) == {REJECT_ALL}


def test_many_small_groups_halved_scores_pick_the_same_candidates():
    scores, labels, groups, names = many_small_groups()
    scored = scored_from_arrays(scores, labels, groups, names)
    halved = scored_from_arrays(scores / 2, labels, groups, names)
    for name, c in MANY_GROUPS.items():
        assert candidate_indices(halved, enforce(halved, c)) == \
            candidate_indices(scored, many_small_groups_base()[name]), name


def test_many_small_groups_name_the_group_without_positives():
    scores, labels, groups, names = many_small_groups()
    labels[groups == 37] = 0
    scored = scored_from_arrays(scores, labels, groups, names)
    with pytest.raises(InfeasibleConstraintError) as info:
        enforce(scored, MANY_GROUPS["Equality eo 0.05"])
    assert info.value.blocking_group == "g37"
    # dp reads no positive count, so the set stays feasible for it
    enforce(scored, MANY_GROUPS["Equality dp 0.02"])


@pytest.mark.parametrize("constraint", [
    Equality(FairnessMeasure.FALSE_POSITIVE_ERROR_RATE_BALANCE, 0.05),
    MinimumRate("tnr", 0.5),
], ids=["fperb", "min-rate-tnr"])
def test_many_small_groups_name_the_group_without_negatives(constraint):
    scores, labels, groups, names = many_small_groups()
    labels[groups == 12] = 1
    scored = scored_from_arrays(scores, labels, groups, names)
    with pytest.raises(InfeasibleConstraintError) as info:
        enforce(scored, constraint)
    assert info.value.blocking_group == "g12"
