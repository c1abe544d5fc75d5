"""Batch-ingestion engine: vectorised ``insert_many`` for every sketch.

The engine turns batches of items into sketch state through one of
three strategies — closed-form fused numpy application, the reference
per-item loop, or the deferred chunked scatter — chosen per batch so
that results are bit-identical to the scalar ``insert`` path on the
exact sweep modes. See :mod:`repro.engine.batch` for the orchestration
and :mod:`repro.kernels.numpy_backend` for the closed-form math.
"""

from .batch import BatchEngine

__all__ = ["BatchEngine"]
