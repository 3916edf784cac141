"""Bucketization for microdata publishing under per-value disclosure thresholds.

The pipeline: ingest a CSV, derive per-sensitive-value thresholds, search for a
minimum-loss bucket setting, assign records round-robin, publish QIT/ST tables
(optionally hardened with fake values), and evaluate utility with count queries.
A small Laplace-mechanism simulator demonstrates why noisy interfaces do not
stop frequency-based inference on large queries.
"""

__version__ = "0.1.0"

__all__ = [
    "ConfigError",
    "Eligibility",
    "FPrivacyError",
    "InfeasiblePrivacyError",
    "IngestionError",
    "MicrodataTable",
    "PrivacySpec",
    "check_eligibility",
    "ell_for_spec",
    "histogram",
    "ingest_csv",
    "linear_privacy_spec",
    "load_privacy_spec",
    "value_slots",
]


def __getattr__(name):
    # the core names load on first use, and numpy with them, so that
    # fprivacy.cli runs before numpy loads and can set its thread count
    if name in __all__:
        from . import core
        return getattr(core, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
