"""Unified kernel registry + cost-model-driven autotuning planner.

Two layers with a deliberate split (DESIGN decision 19):

* :mod:`repro.tuning.registry` — *what can run*: every hot kernel
  (OSP step, FCLS solve, MORPH MEI map, unique-survivor filter)
  registers its implementation variants with capability metadata
  (exactness class, memory footprint, preconditions such as
  rank-deficiency tolerance).  The registry holds no policy — it only
  answers "which variants exist and what do they guarantee".
* :mod:`repro.tuning.planner` — *what should run*: consumes the
  calibrated compute/transfer scales from
  ``benchmarks/baselines/calibration.json`` plus the analytic platform
  model to pick, per run, the kernel variant, WEA partition variant,
  and checkpoint cadence minimizing predicted makespan.  Every plan
  ships with its prediction so the sweep gate can check it against the
  executed run.

This module re-exports the registry API only; import
``repro.tuning.planner`` explicitly for planning (it pulls in the
runner layer, which itself dispatches through the registry — importing
it here would create a cycle).
"""

from repro.tuning.registry import (
    KERNEL_NAMES,
    KernelVariant,
    default_variant,
    reference_variant,
    register,
    resolve,
    variants_of,
)

__all__ = [
    "KERNEL_NAMES",
    "KernelVariant",
    "default_variant",
    "reference_variant",
    "register",
    "resolve",
    "variants_of",
]
