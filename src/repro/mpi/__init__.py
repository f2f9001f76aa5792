"""MPI-like message-passing runtime (simulated-time and wall-clock)."""

from repro.mpi.communicator import (
    Communicator,
    MessageContext,
    concat_op,
    max_op,
    min_op,
    sum_op,
)
from repro.mpi.inproc import InprocContext, InprocResult, run_inproc

__all__ = [
    "Communicator",
    "InprocContext",
    "InprocResult",
    "MessageContext",
    "concat_op",
    "max_op",
    "min_op",
    "run_inproc",
    "sum_op",
]
