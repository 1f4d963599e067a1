"""Batched fast paths for the two open-loop inner loops.

- :mod:`.probe` measures one direct model-probe point as array
  arithmetic (``characterize_model`` tries it for every point);
- :mod:`.mess` drives a fixed-rate read stream through the Mess
  simulator one whole window per step (``drive_fixed_rate``);
- :mod:`.kernels` holds the per-model batch latency kernels the probe
  uses.

Each fast path is bit-exact with the scalar code it replaces, and it
proves that per point or per window: when an exactness precondition
fails, that point is measured by the scalar probe and that window is
replayed request by request through ``simulator.access``. There is no
switch between the two; the preconditions decide.
"""
