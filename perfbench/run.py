"""wlflow benchmark: four workloads, end-to-end metrics, and a traced per-layer run.

Run from the root of a checkout:

    python3 perfbench/run.py --workload ref128 --seed 0 --seconds 30 --trace 0
    python3 perfbench/run.py --smoke

With ``--trace 0`` the last line of standard output is a JSON object holding
every end-to-end metric; with ``--trace 1`` it holds every per-layer metric,
taken from a traced run that wraps the library's public functions. The lines
before it give the environment and the same metrics as a table. A record of
the run (and, when traced, its spans) is written under ``.bench_out/``. Times
in the end-to-end metrics are scaled to a reference machine speed, measured by
a fixed kernel during the run (see speed.py), so that host drift cancels.
``--smoke`` runs every workload at its smallest size, in both modes, and
asserts that every metric listed in BENCHMARK.json is emitted and that every
traced span name resolves and records calls.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"


def _emit(name: str, seed: int, seconds: float, trace: bool, outcome, ledger, env: dict) -> dict:
    from metrics import END_TO_END, EXTRAS, PER_LAYER

    units = PER_LAYER if trace else END_TO_END
    print(f"# wlflow benchmark: workload={name} seed={seed} seconds={seconds} trace={int(trace)}")
    print("# environment " + json.dumps(env, sort_keys=True))
    for key, value in outcome.metrics.items():
        print(f"{key:48s} {value:>14.6g} {units[key][0]}")
    for key, value in outcome.extras.items():
        print(f"# {key:46s} {value:>14.6g} {EXTRAS[key]}")
    print(f"# failed_frac {ledger.failed / ledger.attempted:.6g} ({ledger.failed}/{ledger.attempted})")
    for failure in ledger.failures:
        print(f"# FAILED {failure}")
    result = {
        "correct": ledger.failed == 0,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": {k: {"value": v, "unit": units[k][0]} for k, v in outcome.metrics.items()},
    }
    OUT.mkdir(exist_ok=True)
    stem = f"{name}-seed{seed}-trace{int(trace)}"
    record = {"workload": name, "seed": seed, "seconds": seconds, "trace": int(trace),
              "environment": env, "extras": outcome.extras, "failures": ledger.failures, **result}
    (OUT / f"{stem}.json").write_text(json.dumps(record, indent=2, sort_keys=True))
    if outcome.tracer is not None:
        outcome.tracer.write(OUT / f"{stem}-spans.json")
    return result


def smoke() -> int:
    """Every workload at its smallest size, traced and untraced; assert the metric sets."""
    import workloads
    from metrics import COUNTERS, END_TO_END, PER_LAYER
    from tracer import TARGETS

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = {
        False: {m["name"]: (m["unit"], m["better"]) for m in bench["end_to_end"]},
        True: {m["name"]: (m["unit"], m["better"]) for m in bench["per_layer"]},
    }
    assert declared[False] == END_TO_END, "BENCHMARK.json end_to_end differs from metrics.END_TO_END"
    assert declared[True] == PER_LAYER, "BENCHMARK.json per_layer differs from metrics.PER_LAYER"
    assert [w["name"] for w in bench["workloads"]] == list(workloads.WORKLOADS)

    spans = {f"{mod}.{fn}" for mod, names in TARGETS.items() for fn in names}
    recorded: dict[str, int] = {}
    for name in workloads.WORKLOADS:
        for trace in (False, True):
            outcome, ledger = workloads.run(name, seed=0, seconds=0.0, trace=trace, smoke=True)
            assert set(outcome.metrics) == set(declared[trace]), (name, trace, set(outcome.metrics))
            assert ledger.failed == 0, (name, trace, ledger.failures)
            assert all(isinstance(v, (int, float)) for v in outcome.metrics.values())
            if trace:
                for span, st in outcome.tracer.stats().items():
                    recorded[span] = recorded.get(span, 0) + st.calls
            print(f"smoke {name} trace={int(trace)}: {len(outcome.metrics)} metrics, "
                  f"{ledger.attempted} checks and operations, none failed")
    for metric in PER_LAYER:
        if metric.split(".")[0] not in TARGETS or metric.startswith(COUNTERS):
            continue
        span = metric.rsplit(".", 1)[0]
        assert span in spans, f"{metric} names no traced function"
        assert recorded.get(span, 0) > 0, f"span {span} behind {metric} recorded no calls"
    print("smoke ok")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args(argv)

    if not (SRC / "wlflow" / "__init__.py").is_file():
        print(f"error: no wlflow sources under {SRC}; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.smoke:
        return smoke()

    import environment
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(workloads.WORKLOADS)}")
    env = environment.record()
    outcome, ledger = workloads.run(args.workload, args.seed, args.seconds, bool(args.trace))
    result = _emit(args.workload, args.seed, args.seconds, bool(args.trace), outcome, ledger, env)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
