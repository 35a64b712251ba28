"""Command line pipeline: synth, train, enforce, frontier, audit.

Configuration is a flat JSON object; every key has a matching command
line flag and explicit flags win over the config file.  Runs are
deterministic given the config, outputs carry no timestamps, and every
file lands inside the configured output directory.  The only environment
variable consulted is LEVELUP_OUT, for the default output directory.

Exit codes: 0 success, 2 usage error, 3 data error, 4 infeasible
constraint.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import os
import sys
from pathlib import Path

from . import audit as A
from . import frontier as F
from . import metrics as M
from . import policy as P
from . import scoring as S
from .data import (
    CsvSchema,
    DataError,
    GroupSpec,
    SynthSpec,
    _read_text,
    _utf8,
    load_csv,
    save_csv,
    split,
    synth_generate,
)
from .metrics import FairnessMeasure
from .scoring import FitError, ScorerConfig

__all__ = ["main", "entrypoint"]


class UsageError(Exception):
    pass


MEASURE_ALIASES = {
    "dp": FairnessMeasure.DEMOGRAPHIC_PARITY,
    "eo": FairnessMeasure.EQUAL_OPPORTUNITY,
    "pp": FairnessMeasure.PREDICTIVE_PARITY,
    "fperb": FairnessMeasure.FALSE_POSITIVE_ERROR_RATE_BALANCE,
    "eodds": FairnessMeasure.EQUALIZED_ODDS,
    "cuae": FairnessMeasure.CONDITIONAL_USE_ACCURACY_EQUALITY,
    "oae": FairnessMeasure.OVERALL_ACCURACY_EQUALITY,
    "te": FairnessMeasure.TREATMENT_EQUALITY,
}

_FLAGS = {
    "out": dict(help="output directory (default: $LEVELUP_OUT or ./levelup_out)"),
    "seed": dict(type=int, default=0, help="seed for splitting and training"),
    "data": dict(help="input CSV path"),
    "label_col": dict(help="label column name"),
    "positive_label": dict(help="label value treated as positive"),
    "group_col": dict(help="group column name"),
    "feature_cols": dict(
        help="comma-separated feature columns (default: all other columns)"
    ),
    "scores": dict(help="precomputed score,label,group CSV path"),
    "synth_spec": dict(help="synthetic dataset spec JSON path"),
    "eval_fraction": dict(type=float, default=0.3, help="held-out fraction for the split"),
    "enforce_on": dict(
        choices=["train", "eval"], default="train",
        help="split to enforce and report on",
    ),
    "learning_rate": dict(type=float, default=1.0, help="scorer learning rate"),
    "iterations": dict(type=int, default=5000, help="scorer iteration cap"),
    "l2": dict(type=float, default=1e-4, help="scorer L2 strength"),
    "constraint": dict(
        choices=["none", "min-rate", "max-rate", *MEASURE_ALIASES],
        help="constraint kind: none, min-rate, max-rate, or an equality measure",
    ),
    "epsilon": dict(type=float, help="equality tolerance"),
    "stat": dict(help="statistic for min-rate (selection_rate, tpr, tnr, precision)"),
    "tau": dict(type=float, help="minimum rate bound"),
    "kappa": dict(type=float, help="maximum selection rate bound"),
    "mode": dict(choices=["equality", "min-rate"], help="frontier sweep kind"),
    "measure": dict(choices=list(MEASURE_ALIASES), help="equality measure"),
    "resolution": dict(type=int, default=50, help="number of sweep points"),
    "policy": dict(help="policy JSON path"),
    "baseline_policy": dict(
        help="baseline policy JSON path (default: unconstrained fit)"
    ),
    "tolerance": dict(type=float, default=A.DEFAULT_TOLERANCE, help="audit flag tolerance"),
}


def _add_common(sub: argparse.ArgumentParser, *names: str) -> None:
    sub.add_argument("--config", help="flat JSON config file")
    for name in names:
        # default None, so only a flag actually given overrides the config
        sub.add_argument(f"--{name.replace('_', '-')}", dest=name,
                         **dict(_FLAGS[name], default=None))


def _check_config_value(key: str, value) -> None:
    """A UsageError naming the key when a config value does not fit its
    flag: a number (not a bool) for a float flag, an integer (not a bool)
    for an int flag, otherwise a string, one of the choices where the flag
    has them; feature_cols may also be a list of strings.  null is
    accepted where the default is null."""
    if value is None and _FLAGS[key].get("default") is None:
        return
    flag = _FLAGS[key]
    kind = flag.get("type", str)
    if kind is float:
        want, ok = "a number", isinstance(value, (int, float))
    elif kind is int:
        want, ok = "an integer", isinstance(value, int)
    elif key == "feature_cols":
        want = "a string or a list of strings"
        ok = isinstance(value, str) or (
            isinstance(value, list) and all(isinstance(c, str) for c in value))
    else:
        want, ok = "a string", isinstance(value, str)
    if not ok or isinstance(value, bool):
        raise UsageError(f"config key {key!r} must be {want}, got {json.dumps(value)}")
    if "choices" in flag and value not in flag["choices"]:
        raise UsageError(
            f"config key {key!r} must be one of {', '.join(flag['choices'])}, "
            f"got {json.dumps(value)}"
        )


def _resolve_config(args: argparse.Namespace, needed: tuple[str, ...]) -> dict:
    cfg = {k: _FLAGS[k].get("default") for k in needed}
    if args.config:
        loaded = _load_json(args.config, "config")
        if not isinstance(loaded, dict):
            raise UsageError("config must be a flat JSON object")
        for key, value in loaded.items():
            if key not in _FLAGS:
                raise UsageError(f"unknown config key {key!r}")
            if key not in cfg:
                raise UsageError(
                    f"config key {key!r} does not apply to this command"
                )
            _check_config_value(key, value)
            cfg[key] = value
    for key in needed:
        override = getattr(args, key, None)
        if override is not None:
            cfg[key] = override
    if cfg.get("out") is None:
        cfg["out"] = os.environ.get("LEVELUP_OUT", "levelup_out")
    if "feature_cols" in cfg and isinstance(cfg["feature_cols"], str):
        cfg["feature_cols"] = [
            c.strip() for c in cfg["feature_cols"].split(",") if c.strip()
        ]
    return cfg


def _config_hash(cfg: dict) -> str:
    canon = json.dumps(cfg, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode("utf-8")).hexdigest()


def _write_manifest(outdir: Path, command: str, cfg: dict, outputs: list[str]) -> None:
    manifest = {
        "command": command,
        "config": cfg,
        "config_sha256": _config_hash(cfg),
        "outputs": sorted(outputs),
    }
    with open(outdir / "manifest.json", "w", encoding="utf-8") as handle:
        json.dump(manifest, handle, indent=2, sort_keys=True)
        handle.write("\n")


def _load_json(path, what: str):
    """The parsed JSON file; a DataError naming it when it cannot be read,
    is not UTF-8 or is not JSON."""
    try:
        return json.loads(_read_text(path, what))
    except OSError as exc:
        raise DataError(f"cannot open {what} {path}: {exc.strerror}")
    except json.JSONDecodeError as exc:
        raise DataError(f"{what} {path} is not valid JSON: {exc}")


def _load_synth_spec(path: str) -> SynthSpec:
    raw = _load_json(path, "synth spec")
    try:
        groups = tuple(
            GroupSpec(
                size=int(g["size"]),
                positive_base_rate=float(g["positive_base_rate"]),
                score_mean_pos=float(g["score_mean_pos"]),
                score_mean_neg=float(g["score_mean_neg"]),
                score_spread=float(g["score_spread"]),
                name=str(g.get("name", "")),
            )
            for g in raw["groups"]
        )
        return SynthSpec(groups=groups, seed=int(raw["seed"]))
    except (KeyError, TypeError, ValueError) as exc:
        raise DataError(f"malformed synth spec: {exc!r}")


def _schema_for(cfg: dict) -> CsvSchema:
    for key in ("label_col", "positive_label", "group_col"):
        if not cfg.get(key):
            raise UsageError(f"--{key.replace('_', '-')} is required with --data")
    features = cfg.get("feature_cols")
    if not features:
        with open(cfg["data"], newline="", encoding="utf-8") as handle, \
                _utf8(cfg["data"], "data"):
            header = next(csv.reader(handle), None)
        if not header:
            raise DataError(f"{cfg['data']} has no header row")
        features = [
            c for c in header if c not in (cfg["label_col"], cfg["group_col"])
        ]
    return CsvSchema(
        label_column=cfg["label_col"],
        positive_label_value=cfg["positive_label"],
        group_column=cfg["group_col"],
        feature_columns=tuple(features),
    )


def _load_dataset(cfg: dict):
    if cfg.get("data"):
        return load_csv(cfg["data"], _schema_for(cfg))
    return synth_generate(_load_synth_spec(cfg["synth_spec"])).dataset


def _resolve_scored(cfg: dict) -> tuple[S.ScoredDataset, str]:
    """Produce the scored rows to operate on, plus the split identity."""
    sources = [k for k in ("scores", "data", "synth_spec") if cfg.get(k)]
    if len(sources) != 1:
        raise UsageError(
            "exactly one data source required: --scores, --data, or --synth-spec"
        )
    if cfg.get("scores"):
        return S.read_scores_csv(cfg["scores"]), "provided"
    dataset = _load_dataset(cfg)
    train, evl = split(dataset, cfg["eval_fraction"], cfg["seed"])
    scorer = S.fit(train, _scorer_config(cfg))
    target = train if cfg["enforce_on"] == "train" else evl
    return S.predict(scorer, target), cfg["enforce_on"]


def _scorer_config(cfg: dict) -> ScorerConfig:
    return ScorerConfig(
        learning_rate=cfg["learning_rate"],
        iterations=cfg["iterations"],
        l2=cfg["l2"],
        seed=cfg["seed"],
    )


def _build_constraint(cfg: dict) -> P.Constraint:
    kind = cfg.get("constraint")
    if not kind:
        raise UsageError("--constraint is required")
    if kind == "none":
        return P.Unconstrained()
    if kind == "min-rate":
        if cfg.get("stat") is None or cfg.get("tau") is None:
            raise UsageError("min-rate needs --stat and --tau")
        return P.MinimumRate(cfg["stat"], cfg["tau"])
    if kind == "max-rate":
        if cfg.get("kappa") is None:
            raise UsageError("max-rate needs --kappa")
        return P.MaximumRate(cfg["kappa"])
    measure = MEASURE_ALIASES[kind]
    if not M.harm_profile(measure).enforceable:
        raise UsageError(f"{kind} is reportable but cannot be enforced")
    if cfg.get("epsilon") is None:
        raise UsageError("equality constraints need --epsilon")
    return P.Equality(measure, cfg["epsilon"])


def _write_json(path: Path, payload: dict) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2)
        handle.write("\n")


# ---------------------------------------------------------------------------
# commands

_TRAIN_KEYS = (
    "out", "seed", "data", "label_col", "positive_label", "group_col",
    "feature_cols", "synth_spec", "eval_fraction", "learning_rate",
    "iterations", "l2",
)
_ENFORCE_KEYS = (
    *_TRAIN_KEYS, "scores", "enforce_on", "constraint", "epsilon", "stat",
    "tau", "kappa", "tolerance",
)
_FRONTIER_KEYS = (
    *_TRAIN_KEYS, "scores", "enforce_on", "mode", "measure", "stat",
    "resolution",
)
_AUDIT_KEYS = ("out", "scores", "policy", "baseline_policy", "tolerance")
_SYNTH_KEYS = ("out", "seed", "synth_spec")


def _cmd_synth(cfg: dict, outdir: Path) -> list[str]:
    if not cfg.get("synth_spec"):
        raise UsageError("synth needs --synth-spec")
    result = synth_generate(_load_synth_spec(cfg["synth_spec"]))
    save_csv(result.dataset, outdir / "dataset.csv")
    scored = S.scored_from_arrays(
        result.true_scores,
        result.dataset.labels,
        result.dataset.groups,
        result.dataset.group_names,
    )
    S.write_scores_csv(scored, outdir / "scores.csv")
    return ["dataset.csv", "scores.csv"]


def _cmd_train(cfg: dict, outdir: Path) -> list[str]:
    sources = [k for k in ("data", "synth_spec") if cfg.get(k)]
    if len(sources) != 1:
        raise UsageError("exactly one data source required: --data or --synth-spec")
    dataset = _load_dataset(cfg)
    train, evl = split(dataset, cfg["eval_fraction"], cfg["seed"])
    scorer = S.fit(train, _scorer_config(cfg))
    S.write_scores_csv(S.predict(scorer, dataset), outdir / "scored.csv")
    S.write_scores_csv(S.predict(scorer, train), outdir / "scored_train.csv")
    S.write_scores_csv(S.predict(scorer, evl), outdir / "scored_eval.csv")
    _write_json(
        outdir / "scorer.json",
        {
            "weights": list(scorer.weights),
            "bias": scorer.bias,
            "feature_means": list(scorer.feature_means),
            "feature_scales": list(scorer.feature_scales),
            "feature_names": list(dataset.feature_names),
            "iterations_run": scorer.iterations_run,
            "final_loss": scorer.final_loss,
        },
    )
    return ["scored.csv", "scored_train.csv", "scored_eval.csv", "scorer.json"]


def _cmd_enforce(cfg: dict, outdir: Path) -> list[str]:
    constraint = _build_constraint(cfg)
    scored, split_label = _resolve_scored(cfg)
    problem = P._Problem(scored)
    result, baseline = P._finish(
        problem, [P._choose(problem, constraint), P._choose(problem, P.Unconstrained())])
    prov = result.policy.provenance
    report = A.build_report(
        baseline.metrics,
        result.metrics,
        {"kind": prov.constraint, **prov.parameters},
        split=split_label,
        tolerance=cfg["tolerance"],
    )
    _write_json(outdir / "policy.json", P.policy_to_json_dict(result.policy))
    _write_json(
        outdir / "metrics.json",
        {
            "accuracy": result.accuracy,
            "per_group": M.metrics_to_json_dict(result.metrics),
        },
    )
    A.save_report(report, outdir / "audit.json")
    with open(outdir / "audit.txt", "w", encoding="utf-8") as handle:
        handle.write(A.render_text(report))
    return ["policy.json", "metrics.json", "audit.json", "audit.txt"]


def _cmd_frontier(cfg: dict, outdir: Path) -> list[str]:
    mode = cfg.get("mode")
    if mode not in ("equality", "min-rate"):
        raise UsageError("frontier needs --mode equality or --mode min-rate")
    scored, _ = _resolve_scored(cfg)
    if mode == "equality":
        if not cfg.get("measure"):
            raise UsageError("equality frontier needs --measure")
        result = F.equality_frontier(
            scored, MEASURE_ALIASES[cfg["measure"]], cfg["resolution"]
        )
    else:
        if not cfg.get("stat"):
            raise UsageError("min-rate frontier needs --stat")
        result = F.mrc_frontier(scored, cfg["stat"], cfg["resolution"])
    F.frontier_to_jsonl(result, outdir / "frontier.jsonl")
    F.frontier_to_tsv(result, outdir / "frontier.tsv")
    return ["frontier.jsonl", "frontier.tsv"]


def _cmd_audit(cfg: dict, outdir: Path) -> list[str]:
    if not cfg.get("scores"):
        raise UsageError("audit needs --scores")
    if not cfg.get("policy"):
        raise UsageError("audit needs --policy")
    scored = S.read_scores_csv(cfg["scores"])
    policy = P.policy_from_json_dict(_load_json(cfg["policy"], "policy"))
    if cfg.get("baseline_policy"):
        base_policy = P.policy_from_json_dict(
            _load_json(cfg["baseline_policy"], "baseline policy"))
        base_desc = {"kind": "policy", "path": str(cfg["baseline_policy"])}
    else:
        problem = P._Problem(scored)
        base_policy = P._policy(problem, P._choose(problem, P.Unconstrained()))
        base_desc = {"kind": "unconstrained"}
    # the baseline and the audited policy from one pass over the rows
    baseline, constrained = map(M.group_metrics, M._confusions(scored, [base_policy, policy]))
    report = A.build_report(
        baseline,
        constrained,
        {"kind": "policy", "path": str(cfg["policy"]), "baseline": base_desc},
        split="provided",
        tolerance=cfg["tolerance"],
    )
    A.save_report(report, outdir / "audit.json")
    with open(outdir / "audit.txt", "w", encoding="utf-8") as handle:
        handle.write(A.render_text(report))
    return ["audit.json", "audit.txt"]


_COMMANDS = {
    "synth": (_cmd_synth, _SYNTH_KEYS),
    "train": (_cmd_train, _TRAIN_KEYS),
    "enforce": (_cmd_enforce, _ENFORCE_KEYS),
    "frontier": (_cmd_frontier, _FRONTIER_KEYS),
    "audit": (_cmd_audit, _AUDIT_KEYS),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="levelup",
        description="Group-fair threshold policies: train, enforce, sweep, audit.",
    )
    subs = parser.add_subparsers(dest="command", required=True)
    for name, (_, keys) in _COMMANDS.items():
        sub = subs.add_parser(name)
        _add_common(sub, *keys)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 2
    handler, keys = _COMMANDS[args.command]
    try:
        cfg = _resolve_config(args, keys)
        outdir = Path(cfg["out"])
        outdir.mkdir(parents=True, exist_ok=True)
        outputs = handler(cfg, outdir)
        _write_manifest(outdir, args.command, cfg, outputs + ["manifest.json"])
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except (DataError, FitError, OSError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 3
    except P.InfeasibleConstraintError as exc:
        blocking = (
            f" (blocking group: {exc.blocking_group})" if exc.blocking_group else ""
        )
        print(f"infeasible: {exc}{blocking}", file=sys.stderr)
        return 4
    return 0


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
