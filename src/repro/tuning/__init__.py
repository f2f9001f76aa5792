"""Cost-model-driven autotuning (DESIGN decision 19).

:mod:`repro.tuning.planner` prices each WEA partition variant of a run
with the analytic platform model and picks the one minimizing predicted
makespan.  Every plan ships with its prediction so the
``bench plan`` gate can check it against the executed run.

Import ``repro.tuning.planner`` explicitly: it pulls in the runner and
experiments layers, which importing this package does not.
"""
