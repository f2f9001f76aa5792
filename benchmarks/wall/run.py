"""The repo's wall-clock benchmark: one command, every metric by name.

    python3 benchmarks/wall/run.py [--workload NAME] [--seed 7]
        [--seconds N] [--trace 0|1 | --traced] [--quick] [--agree]

Launches one fresh interpreter (child.py) per workload, one at a time,
reduces their raw samples to the metrics BENCHMARK.json declares, prints
them with units and checks the outputs.  ``--trace 0`` gives the
end-to-end metrics; ``--trace 1`` the per-layer ones, the span table and
``out/trace.json``.  With ``--workload`` the last stdout line is the
result object of the benchmark contract.  Exits non-zero if any
operation failed.  See README.md for what each number means.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

from spans import CALIBRATION_REFERENCE_S, Span, chrome_trace, layer_table

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = {w["name"]: w["why"] for w in SPEC["workloads"]}
END_TO_END = {m["name"]: m for m in SPEC["end_to_end"]}
PER_LAYER = {m["name"]: m for m in SPEC["per_layer"]}


def run_child(workload: str, seed: int, mode: str, seconds: float) -> dict:
    """One fresh interpreter; returns the raw samples it printed."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + env.get("PYTHONPATH", "").split(os.pathsep)
    ).rstrip(os.pathsep)
    # One BLAS thread: the only threads are then the benchmark's own and
    # the rank threads the program starts, and OpenBLAS's spinning
    # workers do not compete with 16 ranks for 2 cores.
    for variable in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[variable] = "1"
    proc = subprocess.run(
        [sys.executable, str(HERE / "child.py"),
         workload, str(seed), mode, repr(seconds)],
        cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True, check=True,
    )
    return json.loads(proc.stdout.splitlines()[-1])


def high_percentile(samples: list[float]) -> tuple[float, float]:
    """The highest percentile with at least ten samples beyond it, as
    (percentile, value); the median when there are too few samples."""
    ordered = sorted(samples)
    if len(ordered) <= 10:
        return 50.0, statistics.median(ordered)
    index = len(ordered) - 11
    return 100.0 * (index + 1) / len(ordered), ordered[index]


def scene_mean(passes: list[tuple], column: int) -> float:
    """Mean over the scenes a workload rotates through of the median of
    each scene's samples: the work differs from scene to scene, the
    noise from pass to pass."""
    variants = {p[0] for p in passes}
    return statistics.mean(
        statistics.median(p[column] for p in passes if p[0] == v)
        for v in variants
    )


def reduce(children: list[dict]) -> dict:
    """Raw samples of one workload's interpreters → its metric values.

    Times are corrected per interpreter for the shared host: less the
    steal that accrued meanwhile, then scaled to the reference machine
    speed by the interpreter's own calibration samples (spans.py)."""
    for c in children:
        c["scale"] = CALIBRATION_REFERENCE_S / statistics.median(c["calibration_s"])
    measured = [c for c in children if c["mode"] != "setup"]
    raw = [(c["scale"], *p) for c in measured for p in c["passes"]]
    passes = [(variant, (wall - steal) * k, (cpu - steal) * k)
              for k, variant, wall, cpu, steal in raw]
    pass_s = [p[1] for p in passes]
    attempted = sum(c["attempted"] for c in measured)
    failures = [f for c in measured for f in c["failures"]]
    failed = sum(c["failed"] for c in measured)
    virtual = {c["virtual_s"] for c in measured}
    if len(virtual) != 1:
        attempted, failed = attempted + 1, failed + 1
        failures.append(f"virtual_s differs between rounds: {sorted(virtual)}")
    values = dict(measured[-1].get("layers", {}))
    percentile = 50.0
    if pass_s:
        percentile, pass_hi = high_percentile(pass_s)
        values.update(
            setup_s=statistics.median(
                c["setup_s"] * c["scale"] for c in children),
            pass_s=scene_mean(passes, 1),
            cpu_s=scene_mean(passes, 2),
            peak_rss_mb=statistics.median(c["peak_rss_mb"] for c in measured),
            virtual_s=measured[0]["virtual_s"],
            failed_frac=failed / attempted,
            pass_hi_s=pass_hi,
        )
        values["bench.steal_frac"] = (
            sum(p[4] for p in raw) / sum(p[2] for p in raw))
        values["bench.speed_x"] = 1 / statistics.median(
            c["scale"] for c in children)
    return {
        "values": values, "attempted": attempted, "failed": failed,
        "failures": failures, "pass_samples": len(pass_s),
        "retries": sum(c["retries"] for c in measured),
        "scenes": len({p[0] for p in passes}),
        "setup_samples": len(children), "pass_hi_percentile": percentile,
        "spans": [s for c in measured for s in c.get("spans", [])],
        "provenance": children[0]["provenance"],
    }


def run_set(names: list[str], seed: int, seconds: float, mode: str) -> dict[str, dict]:
    """One set: every named workload, one interpreter at a time.

    A single untraced workload (how the contract's driver calls this)
    gets its whole budget in one interpreter plus two set-up-only ones,
    so ``setup_s`` is a median of three.  The untraced suite takes its
    passes in three interleaved rounds instead, so that drift in the
    machine falls on every workload alike."""
    rounds = 3 if mode == "timed" and len(names) > 1 else 1
    schedule = [(n, mode, seconds / rounds) for _ in range(rounds) for n in names]
    if mode == "timed" and rounds == 1:
        schedule += [(n, "setup", 0.0) for n in names for _ in range(2)]
    children: dict[str, list[dict]] = {n: [] for n in names}
    for name, child_mode, budget in schedule:
        children[name].append(run_child(name, seed, child_mode, budget))
    return {n: reduce(children[n]) for n in names}


def emitted(mode: str) -> dict[str, dict]:
    """The metrics a run in ``mode`` reports (--quick reports all)."""
    return {
        **(END_TO_END if mode != "traced" else {}),
        **(PER_LAYER if mode != "timed" else {}),
    }


def contract_line(result: dict, mode: str) -> str:
    return json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {
            name: {"value": result["values"][name], "unit": spec["unit"]}
            for name, spec in emitted(mode).items()
        },
    })


def report(name: str, result: dict, mode: str, seed: int) -> None:
    print(f"\n== {name} (seed {seed}, {mode}): {WORKLOADS[name]}")
    print(f"{'metric':<28}{'value':>16} {'unit':<10}{'better':<8}{'bound':<7}")
    for metric, spec in emitted(mode).items():
        if metric not in result["values"]:
            continue  # a failed run reports its failures, not its layers
        note = ""
        if metric in ("pass_s", "cpu_s"):
            note = (f"{result['pass_samples']} passes over "
                    f"{result['scenes']} scene(s)")
        elif metric == "setup_s":
            note = f"median of {result['setup_samples']} interpreters"
        elif metric == "pass_hi_s":
            note = (f"p{result['pass_hi_percentile']:.0f} of "
                    f"{result['pass_samples']} passes")
        print(f"{metric:<28}{result['values'][metric]:>16.6g} "
              f"{spec['unit']:<10}{spec['better']:<8}"
              f"{spec.get('bound', ''):<7}{note}")
    if mode != "traced" and "bench.steal_frac" in result["values"]:
        print(f"shared-host corrections applied to the times above: steal "
              f"{result['values']['bench.steal_frac']:.1%} of wall subtracted; "
              f"machine at {result['values']['bench.speed_x']:.2f}x its "
              f"reference time per unit of work")
    print(f"operations: {result['attempted']} attempted, "
          f"{result['failed']} failed, {result['retries']} retried after "
          f"the Router declared a deadlock")
    for failure in result["failures"]:
        print(f"FAILED {failure}")


def write_trace(results: dict[str, dict]) -> None:
    """Print the span table and write every child's spans, once, to
    ``out/trace.json``."""
    spans: list[Span] = []
    for result in results.values():
        offset = len(spans)
        for raw in result["spans"]:
            span = Span(**raw)
            if span.parent >= 0:
                span.parent += offset
            spans.append(span)
    if not spans:
        return
    print("\nper-layer spans (self = span minus its children):")
    print(layer_table(spans))
    path = HERE / "out" / "trace.json"
    path.write_text(json.dumps(chrome_trace(spans)) + "\n", encoding="utf-8")
    print(f"trace written to {path.relative_to(ROOT)}")


def agree(first: dict[str, dict], second: dict[str, dict]) -> bool:
    """Compare two sets of the same code, metric by metric, against the
    bound each end-to-end metric allows a later change."""
    ok = True
    print(f"\n{'workload':<16}{'metric':<14}{'first':>12}{'second':>12}"
          f"{'rel diff':>10}{'bound':>8}")
    for name in first:
        a, b = first[name]["values"], second[name]["values"]
        for metric, spec in END_TO_END.items():
            diff = abs(b[metric] - a[metric]) / a[metric]
            within = diff <= spec["bound"]
            ok &= within
            print(f"{name:<16}{metric:<14}{a[metric]:>12.5g}{b[metric]:>12.5g}"
                  f"{diff:>10.2%}{spec['bound']:>8}"
                  f"{'' if within else '  EXCEEDS'}")
        exact = a["virtual_s"] == b["virtual_s"]
        ok &= exact
        print(f"{name:<16}{'virtual_s':<14}{a['virtual_s']:>12.5g}"
              f"{b['virtual_s']:>12.5g}{'' if exact else '  NOT IDENTICAL'}")
    return ok


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=list(WORKLOADS),
                        help="one workload (default: all five)")
    parser.add_argument("--seed", type=int, default=7,
                        help="feeds SceneConfig.seed; the only input")
    parser.add_argument("--seconds", type=float, default=SPEC["run_seconds"],
                        help="measuring time per workload")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: per-layer metrics, span table, trace.json")
    parser.add_argument("--traced", dest="trace", action="store_const",
                        const=1, help="same as --trace 1")
    parser.add_argument("--quick", action="store_true",
                        help="smoke run: tiny scene, fewest passes, all metrics")
    parser.add_argument("--agree", action="store_true",
                        help="run two untraced sets and compare them")
    args = parser.parse_args(argv)
    names = [args.workload] if args.workload else list(WORKLOADS)
    mode = "quick" if args.quick else "traced" if args.trace else "timed"
    if args.agree and mode != "timed":
        parser.error("--agree compares untraced sets")

    results = run_set(names, args.seed, args.seconds, mode)
    ok = True
    if args.agree:
        ok = agree(results, run_set(names, args.seed, args.seconds, mode))
    first = next(iter(results.values()))
    print("provenance: " + json.dumps(first["provenance"], sort_keys=True))
    for name, result in results.items():
        report(name, result, mode, args.seed)
        ok &= result["failed"] == 0
    if mode != "timed":
        write_trace(results)
    if not ok:
        return 1
    for result in results.values():
        print(contract_line(result, mode))
    return 0


if __name__ == "__main__":
    sys.exit(main())
