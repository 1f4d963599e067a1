"""The batched fast path of the direct model probe.

- :mod:`.probe` measures one direct model-probe point as array
  arithmetic (``characterize_model`` tries it for every point);
- :mod:`.kernels` holds the per-model batch latency kernels the probe
  uses.

The probe is bit-exact with the scalar probe it replaces, and it
proves that per point: when an exactness precondition fails (the model
has no kernel, or the schedule stalls on the outstanding-request cap),
that point is measured by the scalar probe. There is no switch between
the two; the preconditions decide.
"""
