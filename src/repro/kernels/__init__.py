"""The numeric hot-path kernels.

Everything per-cell and per-batch that the sketches compute — closed
form sweep-hit counting, snapshot-value reconstruction, the vector
sweep and decrement-range passes, the fused touch/timespan/countmin
batch finishers, and the shard scatter fan-out — lives in
:mod:`repro.kernels.numpy_backend`, the one implementation. Call sites
reach each kernel as an attribute of that module::

    from ..kernels import numpy_backend as _kernels
    _kernels.fuse_touch(clock, cells, steps, end_steps)

:mod:`repro.kernels.loops` restates the mutating kernels as plain
per-cell loops. The library never calls it: it is the differential
reference that the kernel parity suite swaps in for the numpy
functions to prove both give bit-identical sketch state. See
``docs/kernels.md``.
"""
