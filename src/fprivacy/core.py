"""Data model, CSV ingestion, sensitive-value histogram, and privacy thresholds.

A microdata table has categorical quasi-identifier (QI) columns and one
sensitive attribute (SA) column.  All values are interned to dense integer
codes at construction (sorted label order); downstream math runs on codes.
"""

from __future__ import annotations

import contextlib
import csv
from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

# The package's only float tolerance, added before flooring threshold products
# in threshold_slots, through which every count-vs-threshold check goes.  0.29
# has no exact binary form: 0.29*100 evaluates to 28.999999999999996 and must
# still floor to 29, while 4.000000000000001 must not drop to 3.
FLOOR_EPS = 1e-9


class FPrivacyError(Exception):
    """Base class for library errors."""


class ConfigError(FPrivacyError):
    """Bad parameter or an operation that cannot proceed with the given knobs."""


class IngestionError(FPrivacyError):
    """Malformed or unreadable input file."""


class InfeasiblePrivacyError(FPrivacyError):
    """The privacy thresholds admit no bucketization at all."""


class BudgetExceededError(ConfigError):
    """Brute-force enumeration would exceed its candidate budget."""


class Record(NamedTuple):
    qi: tuple[str, ...]
    sa: str


@contextlib.contextmanager
def open_csv(path):
    """path opened as UTF-8 text for csv.reader.  An OSError on opening, or a
    UnicodeDecodeError or csv.Error while reading, becomes an IngestionError
    naming the file."""
    try:
        fh = open(path, newline="", encoding="utf-8")
    except OSError as e:
        raise IngestionError(f"cannot open {path}: {e}") from e
    with fh:
        try:
            yield fh
        except UnicodeDecodeError as e:
            raise IngestionError(f"{path}: not UTF-8 text ({e.reason})") from None
        except csv.Error as e:
            raise IngestionError(f"{path}: malformed CSV ({e})") from None


def read_columns(reader, width: int, path) -> list[list[str]]:
    """Split a csv.reader's rows into ``width`` column lists.
    A row of another width raises IngestionError at path:record (header = 1).

    Each record costs one width check and one ``list.extend`` into a flat
    row-major cell list; the columns are then ``width`` strided slices of
    it, so no Python-level work is done per cell.  The flat list is dropped
    on return; the columns share its strings.
    """
    cells: list[str] = []
    extend = cells.extend
    for lineno, row in enumerate(reader, start=2):
        if len(row) != width:
            raise IngestionError(
                f"{path}:{lineno}: expected {width} fields, got {len(row)}")
        extend(row)
    return [cells[j::width] for j in range(width)]


def intern_labels(column: Sequence[str]) -> tuple[np.ndarray, tuple[str, ...]]:
    """int32 codes of a label column and its sorted domain."""
    domain = tuple(sorted(set(column)))
    lookup = {label: i for i, label in enumerate(domain)}
    return np.fromiter(map(lookup.__getitem__, column), dtype=np.int32,
                       count=len(column)), domain


@dataclass(frozen=True)
class MicrodataTable:
    """Immutable table of QI codes plus one SA code per row."""

    qi_names: tuple[str, ...]
    sa_name: str
    qi_codes: np.ndarray  # shape (n, d), int32
    sa_codes: np.ndarray  # shape (n,), int32
    qi_domains: tuple[tuple[str, ...], ...]
    sa_domain: tuple[str, ...]

    def __post_init__(self):
        if self.qi_codes.ndim != 2 or self.sa_codes.ndim != 1:
            raise ConfigError("qi_codes must be 2-d and sa_codes 1-d")
        if len(self.qi_codes) != len(self.sa_codes):
            raise ConfigError("QI and SA row counts differ")
        if len(self.sa_codes) < 1:
            raise ConfigError("table must contain at least one record")

    def __len__(self) -> int:
        return len(self.sa_codes)

    @property
    def sa_domain_size(self) -> int:
        return len(self.sa_domain)

    def record(self, i: int) -> Record:
        qi = tuple(self.qi_domains[j][c] for j, c in enumerate(self.qi_codes[i]))
        return Record(qi=qi, sa=self.sa_domain[self.sa_codes[i]])

    @classmethod
    def from_rows(cls, qi_rows: Sequence[Sequence[str]], sa_values: Sequence[str],
                  qi_names: Sequence[str], sa_name: str) -> "MicrodataTable":
        """Build a table from label rows, interning every column."""
        if len(qi_rows) != len(sa_values):
            raise ConfigError("QI and SA row counts differ")
        qi_columns = [[row[j] for row in qi_rows] for j in range(len(qi_names))]
        return cls.from_columns(qi_columns, sa_values, qi_names, sa_name)

    @classmethod
    def from_columns(cls, qi_columns: Sequence[Sequence[str]],
                     sa_values: Sequence[str], qi_names: Sequence[str],
                     sa_name: str) -> "MicrodataTable":
        """Build a table from one label list per QI column, interning each."""
        qi_codes = np.empty((len(sa_values), len(qi_names)), dtype=np.int32)
        qi_domains = []
        for j, column in enumerate(qi_columns):
            qi_codes[:, j], domain = intern_labels(column)
            qi_domains.append(domain)
        sa_codes, sa_domain = intern_labels(sa_values)
        return cls(tuple(qi_names), sa_name, qi_codes, sa_codes,
                   tuple(qi_domains), sa_domain)

    @classmethod
    def from_codes(cls, qi_codes: np.ndarray, sa_codes: np.ndarray,
                   qi_names: Sequence[str], sa_name: str,
                   qi_domains: Sequence[Sequence[str]],
                   sa_domain: Sequence[str]) -> "MicrodataTable":
        return cls(tuple(qi_names), sa_name,
                   np.ascontiguousarray(qi_codes, dtype=np.int32),
                   np.ascontiguousarray(sa_codes, dtype=np.int32),
                   tuple(tuple(d) for d in qi_domains), tuple(sa_domain))


@dataclass(frozen=True)
class SaHistogram:
    """Occurrence counts of each SA value, indexed by SA code."""

    counts: np.ndarray  # int64, length = SA domain size
    total: int

    def __post_init__(self):
        if self.total < 0 or int(self.counts.sum()) != self.total:
            raise ConfigError("histogram counts do not sum to the total")

    @property
    def m(self) -> int:
        return len(self.counts)

    @property
    def freqs(self) -> np.ndarray:
        return self.counts / self.total


@dataclass(frozen=True)
class PrivacySpec:
    """Per-SA-value maximum disclosure probabilities, each in (0, 1]."""

    thresholds: np.ndarray  # float64, length = SA domain size

    def __post_init__(self):
        t = self.thresholds
        if t.ndim != 1 or len(t) < 1:
            raise ConfigError("thresholds must be a non-empty vector")
        if not np.all((t > 0.0) & (t <= 1.0)):
            raise ConfigError("thresholds must lie in (0, 1]")

    @property
    def m(self) -> int:
        return len(self.thresholds)


def read_table(path) -> tuple[list[str], list[list[str]]]:
    """Header and label columns of a header-ed CSV, input or release.

    Raises IngestionError naming the file where open_csv does, and for an
    empty file, a row of another width than the header, or no data rows.
    """
    with open_csv(path) as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None:
            raise IngestionError(f"{path}: empty file")
        columns = read_columns(reader, len(header), path)
    if not columns or not columns[0]:
        raise IngestionError(f"{path}: no data rows")
    return header, columns


def ingest_csv(path, sa_column: str) -> MicrodataTable:
    """Read a header-ed CSV into a table; every non-SA column becomes a QI.

    Raises IngestionError for what read_table rejects or a missing SA column.
    """
    header, columns = read_table(path)
    if sa_column not in header:
        raise IngestionError(f"{path}: SA column {sa_column!r} not in header {header}")
    sa_idx = header.index(sa_column)
    sa_values = columns.pop(sa_idx)
    qi_names = [h for i, h in enumerate(header) if i != sa_idx]
    return MicrodataTable.from_columns(columns, sa_values, qi_names, sa_column)


def histogram(table: MicrodataTable, rows: np.ndarray | None = None) -> SaHistogram:
    """Count SA occurrences over the whole table or a subset of row indices."""
    codes = table.sa_codes if rows is None else table.sa_codes[rows]
    counts = np.bincount(codes, minlength=table.sa_domain_size).astype(np.int64)
    return SaHistogram(counts=counts, total=int(len(codes)))


def linear_privacy_spec(h: SaHistogram, theta: float, intercept: float) -> PrivacySpec:
    """Threshold rule min(1, theta*f_i + intercept) applied to every value.

    theta and intercept must be non-negative and must produce positive
    thresholds (theta=0 with intercept=0 would forbid everything).
    """
    if not (theta >= 0 and intercept >= 0):
        raise ConfigError(f"theta and intercept must be non-negative numbers, "
                          f"got {theta} and {intercept}")
    t = np.minimum(1.0, theta * h.freqs + intercept)
    if not np.all(t > 0.0):
        raise ConfigError("privacy rule yields a non-positive threshold")
    return PrivacySpec(thresholds=t)


def load_privacy_spec(path, sa_domain: Sequence[str]) -> PrivacySpec:
    """Load explicit per-value thresholds from a two-column CSV.

    Expected format: ``sa_value,threshold`` per line, optionally with exactly
    that header.  Every SA domain value must be covered exactly once.
    """
    got: dict[str, float] = {}
    with open_csv(path) as fh:
        for lineno, row in enumerate(csv.reader(fh), start=1):
            if not row:
                continue
            if lineno == 1 and [c.strip().lower() for c in row] == ["sa_value", "threshold"]:
                continue
            if len(row) != 2:
                raise IngestionError(f"{path}:{lineno}: expected 2 fields, got {len(row)}")
            name, raw = row[0], row[1]
            try:
                val = float(raw)
            except ValueError:
                raise IngestionError(f"{path}:{lineno}: bad threshold {raw!r}") from None
            if name in got:
                raise IngestionError(f"{path}:{lineno}: duplicate value {name!r}")
            got[name] = val
    if not got:
        raise IngestionError(f"{path}: no thresholds found")
    missing = [v for v in sa_domain if v not in got]
    if missing:
        raise IngestionError(f"{path}: missing thresholds for {missing}")
    known = set(sa_domain)
    unknown = [v for v in got if v not in known]
    if unknown:
        raise IngestionError(f"{path}: unknown SA values {unknown}")
    t = np.array([got[v] for v in sa_domain], dtype=np.float64)
    if not np.all((t > 0.0) & (t <= 1.0)):
        raise IngestionError(f"{path}: thresholds must lie in (0, 1]")
    return PrivacySpec(thresholds=t)


def threshold_slots(thresholds, sizes) -> np.ndarray:
    """Copies admitted, floor(threshold * size + FLOOR_EPS), broadcast over
    both arrays; whole float64 numbers, floored in place (no int copy)."""
    slots = np.multiply(thresholds, sizes)
    slots += FLOOR_EPS
    return np.floor(slots, out=slots)


def smallest_admitting_size(thresholds) -> np.ndarray:
    """Per threshold, the least bucket size (float64) whose threshold_slots
    reach 1, so every larger size admits one copy too; the float guess is
    off by at most one and is corrected by threshold_slots itself.

    A threshold so small that no table could hold that many records (1/t
    may even overflow, e.g. t = 1e-320) gets a size near 2**53 instead,
    which is still finite and above every real record count.
    """
    with np.errstate(over="ignore"):
        guess = np.divide(1.0 - FLOOR_EPS, thresholds)
    size = np.clip(np.ceil(guess), 1.0, 2.0 ** 53)
    size -= threshold_slots(thresholds, size - 1) >= 1
    return size + (threshold_slots(thresholds, size) < 1)


def value_slots(p: PrivacySpec, size: int) -> np.ndarray:
    """Per-value record capacity of a single bucket of the given size."""
    return threshold_slots(p.thresholds, size).astype(np.int64)


@dataclass(frozen=True)
class Eligibility:
    """Outcome of the achievability test, truthy when the spec is satisfiable."""

    ok: bool
    violations: tuple[tuple[int, int, float], ...] = ()  # (code, count, threshold)

    def __bool__(self) -> bool:
        return self.ok


def check_eligibility(h: SaHistogram, p: PrivacySpec) -> Eligibility:
    """A threshold set is achievable iff o_i <= value_slots(p, n) for all i."""
    if p.m != h.m:
        raise ConfigError("privacy spec and histogram cover different domains")
    bad = np.flatnonzero(h.counts > value_slots(p, h.total))
    viol = tuple((int(i), int(h.counts[i]), float(p.thresholds[i])) for i in bad)
    return Eligibility(ok=len(bad) == 0, violations=viol)


def ell_for_spec(p: PrivacySpec) -> int:
    """Uniform diversity parameter: the least size admitting each value once."""
    return int(smallest_admitting_size(p.thresholds).max())
