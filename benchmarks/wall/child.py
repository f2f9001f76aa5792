"""One workload in one fresh interpreter (launched by run.py).

    child.py WORKLOAD SEED MODE SECONDS

``MODE`` is ``setup`` (set up and exit: one more ``setup_s`` sample),
``timed`` (untraced passes for SECONDS), ``traced`` (untraced and traced
passes alternating for a third of SECONDS, then every call no pass made
and the layer probes) or ``quick`` (``traced`` on the tiny scene
with the fewest passes).  The last line of stdout is one JSON object of
raw samples; run.py reduces them.
"""

from __future__ import annotations

import json
import os
import resource
import statistics
import sys
import tempfile
import time
import traceback
from pathlib import Path

OUT_DIR = Path(__file__).resolve().parent / "out"
CALIBRATION_SHARE = 0.06


def measure(ctx, workload: str, seconds: float, traced: bool) -> dict:
    """Passes until ``seconds`` have gone, with calibration samples
    between them; then, traced, the remaining calls and the probes."""
    from check import References, check_op
    from layers import call_metrics, run_probes
    from spans import calibrate
    from workloads import CALLS, call, run_pass

    refs = References(ctx)
    failures: list[str] = []
    counts = {"attempted": 0, "failed": 0}
    virtual: dict[int, float] = {}  # scene variant -> first pass's

    def attempt(fn):
        """Run ``fn`` as attempted operations; an exception is a failure."""
        try:
            return fn()
        except Exception as exc:
            counts["attempted"] += 1
            counts["failed"] += 1
            # Secondary fallout of a rank failure is chained; the root
            # cause alone is readable.
            failures.append(
                "".join(traceback.format_exception(exc, chain=False)))
            return None

    def check(ops) -> None:
        for op in ops:
            why = attempt(lambda: check_op(refs, op))
            if why is not None:
                counts["attempted"] += 1
                counts["failed"] += bool(why)
                failures.extend(why)

    def one_pass(samples: list | None):
        result = attempt(lambda: run_pass(ctx, workload))
        if result is None:
            return False
        check(result.ops)
        # The sim backend is exact: a pass whose virtual time differs
        # from the first pass's on the same scene is a wrong output.
        first = virtual.setdefault(ctx.variant, result.virtual_s)
        counts["attempted"] += 1
        if result.virtual_s != first:
            counts["failed"] += 1
            failures.append(
                f"virtual_s {result.virtual_s!r} differs from the first "
                f"pass's {first!r}"
            )
        if samples is not None:
            samples.append((ctx.variant, result.wall_s, result.cpu_s,
                            result.steal_s))
        return True

    for variant in range(ctx.variants):
        ctx.grid_scene(variant)  # made before the clock starts
    start = time.perf_counter()
    # The rest of a traced run belongs to the calls and probes below.
    budget = seconds / 3 if traced else seconds
    plain: list = []
    recorded: list = []
    alive = ctx.quick or one_pass(None)  # warm-up, discarded
    rounds = 0
    calibrating = 0.0
    while alive:
        round_start = time.perf_counter()
        ctx.variant = rounds % ctx.variants
        alive = one_pass(plain)
        if alive and traced:
            with ctx.spans.recording(workload):
                alive = one_pass(recorded)
        rounds += 1
        now = time.perf_counter()
        # Between passes, keep CALIBRATION_SHARE of the time so far for
        # machine-speed samples: some thirty a run on any workload.
        while (not ctx.quick
               and calibrating < CALIBRATION_SHARE * (now - start)):
            ctx.calibration_s.append(calibrate())
            calibrating += time.perf_counter() - now
            now = time.perf_counter()
        # Every scene is sampled at least once, whatever the budget.
        if (rounds >= ctx.variants
                and now - start + (now - round_start) > budget):
            break
    ctx.variant = 0

    out = {
        "passes": plain,
        "virtual_s": virtual.get(0, 0.0),
    }
    if traced and alive:
        layers: dict[str, float] = {}
        with ctx.spans.recording(f"{workload}:probe"):
            for name in CALLS:
                if not ctx.spans.named(name):
                    op = attempt(lambda: call(ctx, name))
                    if op is not None:
                        check([op])
        probes = attempt(lambda: run_probes(ctx, f"{workload}:probe"))
        if probes is not None and not counts["failed"]:
            layers = {**probes, **call_metrics(ctx)}
            layers["bench.trace_overhead_x"] = (
                statistics.median(p[1] - p[3] for p in recorded)
                / statistics.median(p[1] - p[3] for p in plain))
            layers["bench.reference_s"] = refs.seconds
            layers["mailbox.deadlock_retries"] = ctx.deadlock_retries
        out["layers"] = layers
    out.update(counts, failures=failures, retries=ctx.deadlock_retries)
    return out


def main(argv: list[str]) -> int:
    workload, seed, mode, seconds = (
        argv[0], int(argv[1]), argv[2], float(argv[3]))
    from spans import calibrate, steal_seconds

    start, steal = time.perf_counter(), steal_seconds()
    import repro.cluster  # noqa: F401 - timed, with the six below
    import repro.core  # noqa: F401
    import repro.experiments  # noqa: F401
    import repro.hsi  # noqa: F401
    import repro.mpi  # noqa: F401
    import repro.obs  # noqa: F401
    import repro.tuning  # noqa: F401
    import_s = time.perf_counter() - start - (steal_seconds() - steal)

    import dataclasses

    import numpy
    import workloads
    from repro.obs.provenance import provenance

    OUT_DIR.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT_DIR) as tmp:
        start, steal = time.perf_counter(), steal_seconds()
        ctx = workloads.setup(workload, seed, mode, Path(tmp))
        result = {
            "workload": workload, "seed": seed, "mode": mode,
            # Less steal, like every time reported; run.py scales it.
            "setup_s": import_s + time.perf_counter() - start
                       - (steal_seconds() - steal),
        }
        ctx.calibration_s += [calibrate() for _ in range(3)]
        if mode != "setup":
            result.update(measure(
                ctx, workload, 0.0 if mode == "quick" else seconds,
                traced=mode in ("traced", "quick"),
            ))
            if result.get("layers"):
                result["layers"]["repro.import_s"] = import_s
            result["spans"] = [dataclasses.asdict(s) for s in ctx.spans.spans]
    result["calibration_s"] = ctx.calibration_s
    result["peak_rss_mb"] = (
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024)
    result["provenance"] = {
        **provenance(), "nproc": os.cpu_count(),
        "numpy": numpy.__version__,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
