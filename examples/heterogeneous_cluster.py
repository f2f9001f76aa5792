"""Heterogeneous vs homogeneous algorithms on a custom cluster.

Builds a small heterogeneous network-of-workstations (your own Table 1),
runs Hetero-ATDCA and Homo-ATDCA through the virtual-time engine, and
prints the timing/balance comparison — the paper's core experiment in
miniature, on a platform you define yourself.

Run:  python examples/heterogeneous_cluster.py
"""

import numpy as np

from repro.cluster import (
    CostModel,
    HeterogeneousPlatform,
    ProcessorSpec,
    SimulationEngine,
    segmented_network,
)
from repro.core import parallel_atdca_program, run_parallel
from repro.core.runner import make_row_partition
from repro.hsi import SceneConfig, make_wtc_scene
from repro.perf import breakdown_of_run, format_table, imbalance_of_run
from repro.scheduling import check_equivalence
from repro.viz import gantt_of_run


def build_platform() -> HeterogeneousPlatform:
    """An 8-node, 2-segment lab: fast lab machines + older far ones."""
    processors = [
        ProcessorSpec("lab-1", 0.004, memory_mb=4096, architecture="fast lab"),
        ProcessorSpec("lab-2", 0.004, memory_mb=4096, architecture="fast lab"),
        ProcessorSpec("lab-3", 0.006, memory_mb=2048, architecture="lab"),
        ProcessorSpec("lab-4", 0.006, memory_mb=2048, architecture="lab"),
        ProcessorSpec("old-1", 0.020, memory_mb=1024, architecture="legacy"),
        ProcessorSpec("old-2", 0.020, memory_mb=1024, architecture="legacy"),
        ProcessorSpec("old-3", 0.030, memory_mb=512, architecture="legacy"),
        ProcessorSpec("old-4", 0.030, memory_mb=512, architecture="legacy"),
    ]
    network = segmented_network(
        {"lab": 4, "annex": 4},
        {("lab", "lab"): 10.0, ("lab", "annex"): 80.0, ("annex", "annex"): 15.0},
    )
    return HeterogeneousPlatform("campus lab", processors, network)


def main() -> None:
    platform = build_platform()
    print(platform)
    print(f"aggregate speed: {platform.total_speed:.0f} relative Mflop/s; "
          f"fastest/slowest ratio {platform.heterogeneity_ratio():.1f}x")

    equivalent = platform.equivalent_homogeneous()
    report = check_equivalence(platform, equivalent)
    print(f"equivalent homogeneous node speed: "
          f"{equivalent.speeds[0]:.0f} (equivalence check: {report.equivalent})")

    scene = make_wtc_scene(SceneConfig(rows=96, cols=64, bands=48))
    # Scale virtual costs so the run behaves like the paper's full scene.
    cost = CostModel(compute_scale=800.0, comm_scale=30.0)

    rows = []
    for plat, plat_name in ((platform, "heterogeneous"),
                            (equivalent, "equivalent homogeneous")):
        for variant in ("hetero", "homo"):
            run = run_parallel(
                "atdca", scene.image, plat,
                params={"n_targets": 12}, variant=variant, cost_model=cost,
            )
            breakdown = breakdown_of_run(run.sim)
            balance = imbalance_of_run(run.sim)
            rows.append([
                f"{variant.capitalize()}-ATDCA", plat_name,
                run.makespan, breakdown.com, breakdown.seq, breakdown.par,
                balance.d_all, balance.d_minus,
            ])
            if variant == "hetero" and plat_name == "heterogeneous":
                shares = np.round(run.partition.fractions() * 100, 1)
                print(f"WEA shares (% of rows): {dict(zip([p.name for p in plat.processors], shares))}")

    print()
    print(format_table(
        ["Algorithm", "Platform", "Total (s)", "COM", "SEQ", "PAR",
         "D_all", "D_minus"],
        rows,
        title="Virtual-time comparison (paper-scaled costs)",
        precision=1,
    ))

    # --- where does the time go?  A traced run renders as a Gantt chart.
    params = {"n_targets": 12}
    partition = make_row_partition(
        platform, scene.image, "atdca", params, cost_model=cost
    )
    engine = SimulationEngine(platform, cost_model=cost, trace=True)
    traced = engine.run(
        parallel_atdca_program,
        kwargs_per_rank=[
            {"image": scene.image if r == 0 else None}
            for r in range(platform.size)
        ],
        common_kwargs={"partition": partition, "n_targets": 12},
    )
    print("\nHetero-ATDCA timeline on the heterogeneous platform:")
    print(gantt_of_run(traced, width=72))


if __name__ == "__main__":
    main()
