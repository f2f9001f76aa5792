"""The paper's algorithms: sequential references and parallel versions."""

from repro.core.atdca import TargetDetectionResult, atdca, atdca_pixels
from repro.core.morph import (
    MorphClassification,
    mei_map,
    morph_classify,
    select_endmembers,
)
from repro.core.parallel_detect import (
    parallel_atdca_program,
    parallel_ufcls_program,
)
from repro.core.parallel_morph import (
    morph_halo_depth,
    parallel_morph_exchange_program,
    parallel_morph_program,
)
from repro.core.parallel_pct import parallel_pct_program
from repro.core.pct import PCTClassification, pct_classify, pct_classify_pixels
from repro.core.pipeline import SceneAnalysis, analyze_scene
from repro.core.runner import (
    ALGORITHM_NAMES,
    ParallelRun,
    estimate_row_workload,
    make_fractions,
    make_row_partition,
    run_parallel,
)
from repro.core.ufcls import fcls_error_image, ufcls, ufcls_pixels
from repro.core.unique import (
    UniqueSet,
    diversity_select,
    greedy_unique,
    merge_unique_sets,
    reduce_to_count,
)

__all__ = [
    "ALGORITHM_NAMES",
    "MorphClassification",
    "PCTClassification",
    "ParallelRun",
    "SceneAnalysis",
    "TargetDetectionResult",
    "UniqueSet",
    "analyze_scene",
    "atdca",
    "atdca_pixels",
    "diversity_select",
    "estimate_row_workload",
    "fcls_error_image",
    "greedy_unique",
    "make_fractions",
    "make_row_partition",
    "mei_map",
    "merge_unique_sets",
    "morph_classify",
    "morph_halo_depth",
    "parallel_atdca_program",
    "parallel_morph_exchange_program",
    "parallel_morph_program",
    "parallel_pct_program",
    "parallel_ufcls_program",
    "pct_classify",
    "pct_classify_pixels",
    "reduce_to_count",
    "run_parallel",
    "select_endmembers",
    "ufcls",
    "ufcls_pixels",
]
