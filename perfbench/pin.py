"""Pin this commit's exact results for a range of seeds into pins.json.

    python3 perfbench/pin.py

For every workload and seed 0 .. PIN_SEEDS-1 it runs one pass, requires
every check to pass, and records per operation a digest of the
thresholds and accuracy (or of the frontier.tsv pairs).  Approximate results are
recorded as null and never compared.  run.py compares the results of a
pinned seed against these digests.  Re-pin only in a change that is
allowed to change results.
"""

from __future__ import annotations

import json
import shutil
import sys

import run  # sets the BLAS thread pin before numpy loads

PIN_SEEDS = 32


def main() -> int:
    lv = run.import_package()
    path = run.HERE / "pins.json"
    pins = {}
    env = run.child_env()
    work = run.WORK / "pin"
    status = 0
    for name, wl in run.WORKLOADS.items():
        if not wl.in_process:
            wl.env, wl.subprocess = env, True
        pins[name] = {}
        for seed in range(PIN_SEEDS):
            shutil.rmtree(work, ignore_errors=True)
            work.mkdir(parents=True)
            runner = run.Runner(lv, wl, work, seed, env)
            runner.setup()
            runner.one_pass()
            runner.check({})
            if runner.failures:
                for (_, op), msg in sorted(runner.failures.items()):
                    print(f"{name} seed {seed} {op}: {msg}", file=sys.stderr)
                status = 1
                continue
            digests = {op: wl.pin(lv, v) for op, v in runner.first_results.items()}
            pins[name][str(seed)] = {op: d for op, d in digests.items() if d is not None}
            print(f"{name} seed {seed} policy_accuracy "
                  f"{wl.accuracy(lv, runner.first_results)!r}", flush=True)
    shutil.rmtree(work, ignore_errors=True)
    path.write_text(json.dumps(pins, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return status


if __name__ == "__main__":
    sys.exit(main())
