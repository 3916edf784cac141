"""The search kernels in ``fprivacy.gamma`` are plain numpy; nothing is
compiled."""

# Read by the benchmark's ``perfbench/stages.py env`` report.
JIT_ENABLED = False
