"""Output bytes pinned across changes to the package.

A score CSV is written from arithmetic scores (no RNG, no scorer fit),
then the CLI runs constrained enforces, the equality and min-rate
frontiers and an audit on it.  The SHA-256 digest of every output file
must equal the digest recorded below, so a change that alters any
threshold, metric, tie-break or serialized byte fails here.  To re-pin
after an intended output change, print `digests(...)` for each case.
"""

import hashlib

import pytest

from levelup.cli import main

# three groups of different sizes, base rates and score shapes; scores sit
# on a coarse grid so groups share values and accuracy ties are common
GROUPS = (("a", 160, 7, 3), ("b", 120, 11, 5), ("c", 90, 13, 2))


def score_csv() -> str:
    lines = ["score,label,group"]
    for name, size, step, shift in GROUPS:
        for i in range(size):
            s = ((i * step + shift) % 97 + 1) / 99.0
            s = round(s * 40) / 41.0 + 0.006
            y = int((i * 31 + shift) % 100 < 100 * s ** (shift / 3.0))
            lines.append(f"{s!r},{y},{name}")
    return "\n".join(lines) + "\n"


ENFORCE_FILES = ("policy.json", "metrics.json", "audit.json")
FRONTIER_FILES = ("frontier.jsonl", "frontier.tsv")

CASES = {
    "enforce-dp": (["enforce", "--constraint", "dp", "--epsilon", "0.05"], ENFORCE_FILES),
    "enforce-eodds": (["enforce", "--constraint", "eodds", "--epsilon", "0.1"], ENFORCE_FILES),
    "enforce-min-rate": (["enforce", "--constraint", "min-rate", "--stat", "tpr",
                          "--tau", "0.7"], ENFORCE_FILES),
    "enforce-max-rate": (["enforce", "--constraint", "max-rate", "--kappa", "0.4"],
                         ENFORCE_FILES),
    "frontier-dp": (["frontier", "--mode", "equality", "--measure", "dp"], FRONTIER_FILES),
    "frontier-eodds": (["frontier", "--mode", "equality", "--measure", "eodds",
                        "--resolution", "20"], FRONTIER_FILES),
    "frontier-min-rate": (["frontier", "--mode", "min-rate", "--stat", "selection_rate"],
                          FRONTIER_FILES),
    "audit": (["audit", "--policy", "enforce-dp/policy.json"], ("audit.json",)),
}

PINNED = {
    "enforce-dp": {
        "policy.json": "d2e1a6fea99176dcea0993c5118292f533e5e61156b0537b579e6759f9bf2cac",
        "metrics.json": "1a93c7d7e44e7e6fb7d588c37b7680e46bf7593abf16448894b9a9a17cbf5f87",
        "audit.json": "dc668645629f52b91d9378ee6e7b50131b3289df0a85df11cd1c79a4b0f8360e",
    },
    "enforce-eodds": {
        "policy.json": "e497f1b1df657d1b5d720d8060dc7c4dc21dc573b9666f913cd44488d0f1f753",
        "metrics.json": "452514b7377a3775c883e84a56140f71df311d161b594b279b9218259f6098b0",
        "audit.json": "92d5b0f6b1ce99fcfb4ef5a216e3bc12e846dbe33a8a3cce662efb4e311de3f6",
    },
    "enforce-min-rate": {
        "policy.json": "31a8c72258eb2156ed6d7dab689594a020b547c16844f0b07c8c2b96b8267687",
        "metrics.json": "cdc2dd87a16ca6c441780ad9cbf28d7afd60e1266073db71347cac5ee97d699b",
        "audit.json": "7ddc6bece37fecfa0870d581ce490f828c093f83facebad87848ac7e8bf77e4f",
    },
    "enforce-max-rate": {
        "policy.json": "7eb366e56498c83b8e6d8e47cda98e354a0dd483ae875e553d043cd7b6058991",
        "metrics.json": "079be77f579187b424c98323cd7641a1d6fcc88098741bdd3560995d1870ae2c",
        "audit.json": "582365a38e8f17e3ae99d9cb45782dfc9cf1f473a280f9fbcce5d8a38315bc9f",
    },
    "frontier-dp": {
        "frontier.jsonl": "a20045b9ceb064a28159732d7332c2899ece9cb1f352298674fa5bb366e2e0d4",
        "frontier.tsv": "54fb88fe3372cc4d16e161a1b0f89e6d6289d8d9d57bf6b2d02dd2dac948e797",
    },
    "frontier-eodds": {
        "frontier.jsonl": "badb3e5662f484574d21a35f7264022f760926b58143a5bf86490c23801ac680",
        "frontier.tsv": "22a4911dfe0f8f04c36fc9c9b89a6b05eb3a60044f29cc374fd17071032dd6e7",
    },
    "frontier-min-rate": {
        "frontier.jsonl": "d2c77e6035b9aa90f375f4c23537e7c55f6e7dcc933426a5ccdffda0c659f04b",
        "frontier.tsv": "6317bbf6feaef43d936084d810c34232379213276785fcd776dd4f6de735bb05",
    },
    "audit": {
        "audit.json": "6032f9a760513715c4623b22fa6bcba36f8bd48ea19eb10b366c063124a05340",
    },
}


def digests(out, files) -> dict:
    return {f: hashlib.sha256((out / f).read_bytes()).hexdigest() for f in files}


@pytest.fixture(scope="module")
def outputs(tmp_path_factory):
    """Every case run once, in a directory of its own, with relative paths
    so the audit records the same policy path wherever the tests run."""
    root = tmp_path_factory.mktemp("pinned")
    (root / "scores.csv").write_text(score_csv(), encoding="utf-8")
    with pytest.MonkeyPatch.context() as mp:
        mp.chdir(root)
        for name, (args, _) in CASES.items():
            assert main([*args, "--scores", "scores.csv", "--out", name]) == 0, name
    return root


@pytest.mark.parametrize("case", list(CASES))
def test_output_bytes_are_pinned(outputs, case):
    assert digests(outputs / case, CASES[case][1]) == PINNED[case]
