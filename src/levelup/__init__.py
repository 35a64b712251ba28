"""Group-fairness post-processing for binary classifiers.

The package picks one decision threshold per group on top of any
probabilistic scorer, contrasting equality constraints (which can level
a better-off group down) with minimum rate constraints and explicit
level-up operations (which only raise groups), and audits every
enforcement group by group.
"""

from .data import (
    CsvSchema,
    DataError,
    GroupSpec,
    LabeledDataset,
    SynthSpec,
    SynthResult,
    adult_sample_path,
    adult_sample_schema,
    load_csv,
    save_csv,
    split,
    synth_generate,
)
from .scoring import (
    CalibrationBin,
    FitError,
    ScoredDataset,
    Scorer,
    ScorerConfig,
    calibration_table,
    fit,
    predict,
    read_scores_csv,
    scored_from_arrays,
    write_scores_csv,
)
from .metrics import (
    ConfusionCounts,
    FairnessMeasure,
    GroupMetrics,
    GroupStats,
    HarmProfile,
    confusion,
    disparity,
    group_metrics,
    harm_profile,
    metrics_from_json_dict,
    metrics_to_json_dict,
    tracked_statistics,
)
from .policy import (
    REJECT_ALL,
    Constraint,
    EnforcementResult,
    Equality,
    InfeasibleConstraintError,
    MaximumRate,
    MinimumRate,
    Provenance,
    ThresholdPolicy,
    Unconstrained,
    candidate_thresholds,
    enforce,
    full_level_up,
    partial_level_up,
    policy_from_json_dict,
    policy_to_json_dict,
)
from .frontier import (
    FrontierPoint,
    FrontierResult,
    equality_frontier,
    frontier_from_jsonl,
    frontier_to_jsonl,
    frontier_to_tsv,
    mrc_frontier,
    pareto_prune,
)
from .audit import (
    AuditReport,
    LevellingScan,
    StatDelta,
    build_report,
    detect_levelling_down,
    load_report,
    render_text,
    report_from_json_dict,
    report_to_json_dict,
    save_report,
)

__version__ = "0.1.0"
