"""Benchmark for the levelup package: one workload, one seed, one run.

    python3 perfbench/run.py --workload equality-search --seed 1 --seconds 40 --trace 0

Run from the root of a source checkout.  The package is imported from
./src, never from an installed copy.  One client runs the workload's
operations back to back in this process (a closed loop); cli-chain
starts one `levelup` process per command, one at a time.

Each run repeats rounds of SETUPS_PER_ROUND set-ups and one pass until
--seconds, set-ups included, are spent.  Every time is reported in
reference seconds: scaled by the host's speed, measured with two fixed
reference tasks before each set-up and each operation (`calibrate`).
--trace 0 times untraced passes and prints the end-to-end metrics.
--trace 1 follows each untraced pass with one that has timing wrappers
installed (spans.py), and prints the per-layer metrics.  Each run
checks its results (workloads.py, checks.py) and exits 1 if any check
fails.  The last line of stdout is one JSON object: correct, attempted,
failed, metrics.
"""

from __future__ import annotations

import argparse
import os
import sys

# Pin BLAS/OpenMP threads before numpy loads; children inherit the setting.
BLAS_THREADS = "1"
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import hashlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import subprocess  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402
from statistics import median  # noqa: E402

import numpy as np  # noqa: E402

from checks import fingerprint  # noqa: E402
from spans import Recorder, layer_metrics, self_time  # noqa: E402
from workloads import WORKLOADS, candidate_sizes  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
HERE = Path(__file__).resolve().parent
WORK = ROOT / ".perfbench_work"
# Host-speed calibration.  A shared host's speed changes in phases of
# seconds to minutes, and a slow phase slows every operation of a run
# alike.  Before each set-up and each operation, and after the last of a
# round, the runner times two fixed reference tasks that never touch
# levelup: a numpy kernel and an import-only process.  Times are scaled
# by REFERENCE_S over the geometric mean of the two tasks' times around
# them (`op_scales`, `speed_scale`): seconds on a host where the
# reference tasks take REFERENCE_S (about their time on the 2.1 GHz Xeon
# of README.md).
REFERENCE_S = 0.02
# Set-ups are short, so a round makes more than one: setup_s is then a
# median of 6 to 20 set-ups in a 40-second run.
SETUPS_PER_ROUND = 2
_REFERENCE_ARRAY = np.random.default_rng(12345).random(200_000)

END_TO_END = {
    # name: unit
    "setup_s": "s",
    "session_s": "s",
    "enforce_s": "s",
    "frontier_s": "s",
    "peak_rss_mb": "MB",
    "policy_accuracy": "ratio",
}
# Printed where the workload has them, but not bounded in BENCHMARK.json:
# they are not measurable on every workload (see README.md).
EXTRA_KINDS = ("level_up", "scores_io")

PER_LAYER_UNITS = {
    "scoring.fit.iterations": "count",
    "scoring.csv.rows": "count",
    "metrics.confusion.calls": "count",
    "policy.enforce.calls": "count",
    "policy.grid_combos": "count",
    "policy.candidates": "count",
    "policy.approximate_results": "count",
    "frontier.feasible_ratio": "ratio",
    "frontier.kept_ratio": "ratio",
}
COMPUTED = ("policy.grid_combos", "policy.candidates")


def fail(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def import_package():
    """Import levelup from ./src of this checkout, or stop."""
    if not (SRC / "levelup" / "__init__.py").is_file():
        fail(f"no package source at {SRC / 'levelup'}; run from a source checkout")
    sys.path.insert(0, str(SRC))
    import levelup
    import levelup.cli  # noqa: F401  (traced: cli.main)

    if Path(levelup.__file__).resolve().parent != SRC / "levelup":
        fail(f"imported levelup from {levelup.__file__}, not from {SRC}")
    return levelup


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    env.pop("LEVELUP_OUT", None)
    return env


def import_in_child(env) -> float:
    """Wall time of one import-only process; checks what it imported."""
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-c", "import levelup, sys; sys.stdout.write(levelup.__file__)"],
        env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
    )
    wall = time.perf_counter() - start
    if proc.returncode != 0 or Path(proc.stdout).resolve().parent != SRC / "levelup":
        fail(f"import-only process failed: {proc.stderr.strip()[-300:]}")
    return wall


def calibrate() -> tuple[float, float]:
    """Times the two reference tasks once: (numpy kernel s, process s)."""
    x = _REFERENCE_ARRAY
    start = time.perf_counter()
    np.sort(x)
    np.cumsum(x)
    np.unique(x[:50_000])
    mid = time.perf_counter()
    proc = subprocess.run([sys.executable, "-c", "import numpy"],
                          stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True)
    end = time.perf_counter()
    if proc.returncode != 0:
        fail(f"reference process failed: {proc.stderr.strip()[-300:]}")
    return mid - start, end - mid


def speed_scale(calibrations: list[tuple[float, float]]) -> float:
    """REFERENCE_S over the geometric mean of the tasks' median times."""
    kernel = median(c[0] for c in calibrations)
    process = median(c[1] for c in calibrations)
    return REFERENCE_S / math.sqrt(kernel * process)


def op_scales(calibrations: list[tuple[float, float]]) -> list[float]:
    """The scale of each operation of a pass.

    calibrations[i] was timed before operation i and calibrations[i + 1]
    after it.  Of the two tasks, the process follows the host's speed
    most closely from one operation to the next, so each operation takes
    the mean process time of its two neighbours.  The kernel is short
    and noisy, so it is pooled as its median over the pass.
    """
    kernel = median(c[0] for c in calibrations)
    return [REFERENCE_S / math.sqrt(kernel * (before[1] + after[1]) / 2)
            for before, after in zip(calibrations, calibrations[1:])]


def run_record(lv, args) -> dict:
    commit = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                              text=True)
        commit = proc.stdout.strip() or None
    digest = hashlib.sha256()
    for f in sorted((SRC / "levelup").rglob("*")):
        if f.is_file() and f.suffix in (".py", ".csv"):
            digest.update(f.relative_to(SRC).as_posix().encode() + b"\0" + f.read_bytes())
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas_threads": {v: os.environ[v] for v in
                         ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")},
        "git_commit": commit,
        "source_sha256": digest.hexdigest(),
        "levelup_version": lv.__version__,
        "clients": 1,
        "loop": "closed",
        "reference_s": REFERENCE_S,
    }


class Runner:
    """Runs set-ups and passes of one workload and keeps what they returned."""

    def __init__(self, lv, workload, work: Path, seed: int, env):
        self.lv, self.wl, self.work, self.seed, self.env = lv, workload, work, seed, env
        self.inputs = None
        self.first_results: dict | None = None
        self.reference: dict | None = None
        self.failures: dict[tuple[int, str], str] = {}
        self.attempted = 0
        self.pass_index = 0

    def setup(self, recorder=None) -> dict:
        """One set-up: its raw times, and the calibration before it."""
        cals = [calibrate()]
        import_s = import_in_child(self.env)
        self.inputs = None  # freed first, so two copies never add to peak RSS
        mark = recorder.mark() if recorder else 0
        start = time.perf_counter()
        self.inputs = self.wl.build(self.lv, self.work, self.seed)
        build_s = time.perf_counter() - start
        rec = {"import_s": import_s, "build_s": build_s, "setup_s": import_s + build_s,
               "calibrations": cals}
        if recorder:
            rec["spans"] = (mark, recorder.mark())
        return rec

    def one_pass(self) -> dict:
        ops = self.wl.ops(self.lv, self.inputs)
        st: dict = {}
        times: dict[str, float] = {}
        kinds: dict[str, float] = {}
        errors: dict[str, str] = {}
        cals = []
        for op in ops:
            cals.append(calibrate())
            t0 = time.perf_counter()
            try:
                st[op.name] = op.call(st)
            except Exception as exc:  # counted as a failed operation
                st[op.name] = None
                errors[op.name] = f"{type(exc).__name__}: {exc}"
            dt = time.perf_counter() - t0
            times[op.name] = dt
            kinds[op.kind] = kinds.get(op.kind, 0.0) + dt
        cals.append(calibrate())
        ref = {name: dt * scale for (name, dt), scale in zip(times.items(), op_scales(cals))}
        ref_kinds: dict[str, float] = {}
        for op in ops:
            ref_kinds[op.kind] = ref_kinds.get(op.kind, 0.0) + ref[op.name]

        k = self.pass_index
        self.pass_index += 1
        self.attempted += len(ops)
        fps = {}
        for name, value in st.items():
            if name in errors:
                self.failures[(k, name)] = errors[name]
            else:
                fps[name] = fingerprint(self.lv, value)
        if self.reference is None:
            self.reference, self.first_results = fps, st
        else:
            for name, fp in fps.items():
                if self.reference.get(name) != fp:
                    self.failures[(k, name)] = "result differs from the first pass"
        # Times in reference seconds, each operation scaled by its own
        # calibrations; "raw" holds them as measured.  "scale" is the whole
        # pass's, for the spans of a traced pass.
        return {"session_s": sum(ref.values()), "kinds": ref_kinds, "ops": ref,
                "raw": {"session_s": sum(times.values()), "kinds": kinds, "ops": times},
                "scale": speed_scale(cals), "calibrations": cals}

    def measure(self, budget: float, recorder=None) -> tuple[list[dict], list[dict], list[dict]]:
        """Rounds of set-ups and a pass until `budget` seconds are spent.

        The set-ups are spread over the run, so that setup_s samples the
        same stretch of machine speed as the passes: a shared machine's
        speed drifts over seconds, and set-ups made in one burst would all
        depend on that one moment.  A set-up is scaled with all the
        calibrations of its round, its set-ups' and its pass's.  With a recorder
        the set-ups are traced, and an untraced and a traced pass follow
        each other, so a drift shows in both and not in the tracing
        overhead.
        """
        setups, plain, traced = [], [], []
        calibrate()  # warm-up: the first reference process starts cold
        start = time.perf_counter()
        while True:
            if recorder:
                recorder.install()
            try:
                round_setups = [self.setup(recorder) for _ in range(SETUPS_PER_ROUND)]
            finally:
                if recorder:
                    recorder.uninstall()
            plain.append(self.one_pass())
            scale = speed_scale([c for s in round_setups for c in s["calibrations"]]
                                + plain[-1]["calibrations"])
            for s in round_setups:
                s["scale"] = scale
            setups += round_setups
            if recorder:
                mark = recorder.mark()
                recorder.install()
                try:
                    rec = self.one_pass()
                finally:
                    recorder.uninstall()
                rec["spans"] = (mark, recorder.mark())
                traced.append(rec)
            elapsed = time.perf_counter() - start
            if elapsed + elapsed / len(plain) > budget:
                return setups, plain, traced

    def check(self, pins: dict) -> None:
        """Checks on the first pass's results, plus the pins for this seed.

        An operation that raised is already counted; a check that raises
        counts as a failed check of its operation.
        """
        results = self.first_results
        pinned = pins.get(self.wl.name, {}).get(str(self.seed), {})
        for name, check in self.wl.check(self.lv, self.inputs, results).items():
            if (0, name) in self.failures:
                continue
            try:
                msgs = check()
                digest = self.wl.pin(self.lv, results[name])
            except Exception as exc:
                msgs, digest = [f"check raised {type(exc).__name__}: {exc}"], None
            if pinned.get(name) is not None and pinned[name] != digest:
                msgs.append(f"differs from the result pinned for seed {self.seed}")
            if msgs:
                self.failures[(0, name)] = "; ".join(msgs)


def end_to_end(runner: Runner, setups, passes) -> tuple[dict, list[str]]:
    lv, wl = runner.lv, runner.wl
    rss_kind = resource.RUSAGE_SELF if wl.in_process else resource.RUSAGE_CHILDREN
    n = len(passes)

    def scaled(get):
        """Median over the passes in reference seconds, and raw."""
        return (median([get(p) for p in passes]), median([get(p["raw"]) for p in passes]))

    times = {
        "setup_s": (median([s["setup_s"] * s["scale"] for s in setups]),
                    median([s["setup_s"] for s in setups])),
        "session_s": scaled(lambda p: p["session_s"]),
        "enforce_s": scaled(lambda p: p["kinds"].get("enforce", 0.0)),
        "frontier_s": scaled(lambda p: p["kinds"].get("frontier", 0.0)),
    }
    samples = {"setup_s": f"{len(setups)} set-ups"}
    values = {name: (v, f"median of {samples.get(name, f'{n} passes')}; raw {raw:.6f} s")
              for name, (v, raw) in times.items()}
    values.update({
        "peak_rss_mb": (resource.getrusage(rss_kind).ru_maxrss / 1024.0,
                        "peak of the run" if wl.in_process else "peak of any child process"),
        "policy_accuracy": (wl.accuracy(lv, runner.first_results),
                            "pass 1; identical in every pass"),
    })
    lines = []
    for name, (value, basis) in values.items():
        lines.append(f"  {name:<22}{value:>14.6f} {END_TO_END[name]:<6} {basis}")
    for kind in EXTRA_KINDS:
        if any(kind in p["kinds"] for p in passes):
            v, raw = scaled(lambda p: p["kinds"][kind])
            lines.append(f"  {kind + '_s':<22}{v:>14.6f} {'s':<6} median of {n} passes; "
                         f"raw {raw:.6f} s")
    scales = [x["scale"] for x in passes + setups]
    lines.append(f"  {'host scale':<22}{median(scales):>14.6f} {'x':<6} reference s per s, "
                 f"median of {len(scales)} passes and set-ups (min {min(scales):.3f}, "
                 f"max {max(scales):.3f})")
    frac = len(runner.failures) / runner.attempted
    lines.append(f"  {'ops_failed_frac':<22}{frac:>14.6f} {'ratio':<6} "
                 f"{len(runner.failures)} of {runner.attempted} operations")
    return {k: v for k, (v, _) in values.items()}, lines


def per_layer(runner: Runner, recorder, setups, plain, traced) -> tuple[dict, list[str], dict]:
    lv = runner.lv
    cache: dict[int, tuple[object, tuple[int, ...]]] = {}

    def sizes(scored):
        if id(scored) not in cache:
            cache[id(scored)] = (scored, candidate_sizes(scored))
        return cache[id(scored)][1]

    def timed(recs):
        """Layer figures per pass or set-up, times in reference seconds."""
        out = []
        for rec in recs:
            figures = layer_metrics(lv, recorder.spans, *rec["spans"], sizes)
            for k, v in figures.items():
                if PER_LAYER_UNITS.get(k, "s") == "s" and isinstance(v, float):
                    figures[k] = v * rec["scale"]
            out.append(figures)
        return out

    per_pass = timed(traced)
    per_setup = timed(setups)
    names = [k for k in per_pass[0] if k not in ("search_kinds", "span_totals")]
    metrics = {k: median([p[k] for p in per_pass]) for k in names}
    metrics["data.synth_generate.s"] = median([s["data.synth_generate.s"] for s in per_setup])
    metrics["cli.startup_s"] = median([s["import_s"] * s["scale"] for s in setups])
    metrics["trace.overhead_s"] = (median([p["session_s"] for p in traced])
                                   - median([p["session_s"] for p in plain]))
    lines = []
    for name, value in metrics.items():
        unit = PER_LAYER_UNITS.get(name, "s")
        if name == "data.synth_generate.s":
            basis = f"median of {len(setups)} set-ups"
        elif name == "cli.startup_s":
            basis = f"median of {len(setups)} import-only processes"
        elif name == "trace.overhead_s":
            basis = f"traced minus untraced session_s, {len(traced)} and {len(plain)} passes"
        else:
            basis = f"median of {len(traced)} traced passes"
        if name in COMPUTED:
            basis += "; computed from the inputs"
        lines.append(f"  {name:<30}{value:>16.6g} {unit:<6} {basis}")
    kinds = per_pass[0]["search_kinds"]
    lines.append(f"  provenance.search kinds (pass 1): {json.dumps(kinds, sort_keys=True)}")
    extra = {"search_kinds": kinds, "span_totals_pass1": per_pass[0]["span_totals"],
             "per_pass": [{k: p[k] for k in names} for p in per_pass]}
    # Where the time of the frontier and I/O operations goes, traced pass 1.
    spans = recorder.spans
    lo, hi = traced[0]["spans"]
    front_total = sum(s.duration for s in spans[lo:hi] if s.name == "frontier.frontier")
    if front_total:
        inner = sum(self_time(spans, i) for i in range(lo, hi)
                    if spans[i].name == "policy.enforce" and spans[i].parent >= 0
                    and spans[spans[i].parent].name == "frontier.frontier")
        lines.append(f"  enforce self time inside frontiers: {inner:.4f} s of "
                     f"{front_total:.4f} s of frontier calls (traced pass 1, raw s)")
    io_op = traced[0]["raw"]["kinds"].get("scores_io", 0.0) * traced[0]["scale"]
    if io_op:
        csv_s = per_pass[0]["scoring.read_scores_csv.s"] + per_pass[0]["scoring.write_scores_csv.s"]
        lines.append(f"  scoring.*_scores_csv.s: {csv_s:.4f} s of {io_op:.4f} s "
                     "scores_io (traced pass 1)")
    return metrics, lines, extra


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    if args.seconds < 1 or args.seed < 0:
        fail("--seconds must be >= 1 and --seed >= 0")

    lv = import_package()
    if args.workload not in WORKLOADS:
        fail(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    wl = WORKLOADS[args.workload]
    env = child_env()
    if not wl.in_process:
        wl.env = env
        wl.subprocess = not args.trace
    pins = json.loads((HERE / "pins.json").read_text(encoding="utf-8"))
    record = run_record(lv, args)

    records = WORK / "records"
    records.mkdir(parents=True, exist_ok=True)
    work = WORK / f"run-{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    stem = f"{args.workload}_seed{args.seed}_trace{args.trace}"
    try:
        runner = Runner(lv, wl, work, args.seed, env)
        recorder = Recorder() if args.trace else None
        setups, plain, traced = runner.measure(args.seconds, recorder)
        runner.check(pins)

        sizes = {name: candidate_sizes(d)
                 for name, d in wl.datasets(lv, runner.inputs).items()}
        lines = [f"perfbench {args.workload} seed={args.seed} trace={args.trace} "
                 f"seconds={args.seconds} nproc={record['nproc']} "
                 f"python={record['python']} numpy={record['numpy']} "
                 f"blas_threads={BLAS_THREADS}"]
        lines.append(f"  candidate grid sizes m_g (computed): {json.dumps(sizes)}")
        if args.trace:
            metrics, body, extra = per_layer(runner, recorder, setups, plain, traced)
            units = {k: PER_LAYER_UNITS.get(k, "s") for k in metrics}
            recorder.write_jsonl(records / f"{stem}.spans.jsonl")
        else:
            metrics, body = end_to_end(runner, setups, plain)
            units = END_TO_END
            extra = {}
        lines += body
        for (k, name), msg in sorted(runner.failures.items()):
            lines.append(f"  FAILED pass {k + 1} {name}: {msg}")
        print("\n".join(lines))

        record.update({
            "setups": [{k: v for k, v in s.items() if k != "spans"} for s in setups],
            "passes": [{k: v for k, v in p.items() if k != "spans"} for p in plain],
            "traced_passes": [{k: v for k, v in p.items() if k != "spans"} for p in traced],
            "candidate_sizes_computed": sizes,
            "metrics": metrics,
            "attempted": runner.attempted,
            "failures": [[k + 1, n, m] for (k, n), m in sorted(runner.failures.items())],
            **extra,
        })
        (records / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n",
                                              encoding="utf-8")
        correct = not runner.failures
        print(json.dumps({
            "correct": correct,
            "attempted": runner.attempted,
            "failed": len(runner.failures),
            "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
        }))
        return 0 if correct else 1
    finally:
        shutil.rmtree(work, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
