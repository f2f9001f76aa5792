"""Cost-model-driven autotuning (DESIGN decision 19).

:mod:`repro.tuning.planner` consumes the calibrated compute/transfer
scales from ``benchmarks/baselines/calibration.json`` plus the analytic
platform model and picks, per run, the WEA partition variant minimizing
predicted makespan.  Every plan ships with its prediction so the
``bench plan`` gate can check it against the executed run.

Import ``repro.tuning.planner`` explicitly: it pulls in the runner and
experiments layers, which importing this package does not.
"""
