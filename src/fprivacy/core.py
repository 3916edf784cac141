"""Data model, CSV ingestion, sensitive-value histogram, and privacy thresholds.

A microdata table has categorical quasi-identifier (QI) columns and one
sensitive attribute (SA) column.  All values are interned to dense integer
codes at construction (sorted label order); downstream math runs on codes.
"""

from __future__ import annotations

import contextlib
import csv
import io
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
def csv_errors(path):
    """A UnicodeDecodeError or csv.Error raised inside becomes an
    IngestionError naming path."""
    try:
        yield
    except UnicodeDecodeError as e:
        raise IngestionError(f"{path}: not UTF-8 text ({e.reason})") from None
    except csv.Error as e:
        raise IngestionError(f"{path}: malformed CSV ({e})") from None


@contextlib.contextmanager
def open_csv(path):
    """path opened as UTF-8 text for csv.reader.  An OSError on opening, or a
    UnicodeDecodeError or csv.Error while reading, becomes an IngestionError
    naming the file."""
    try:
        fh = open(path, newline="", encoding="utf-8")
    except OSError as e:
        raise IngestionError(f"cannot open {path}: {e}") from e
    with fh, csv_errors(path):
        yield fh


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
        qi_codes = np.empty((len(sa_values), len(qi_names)), dtype=np.int32)
        qi_domains = []
        for j in range(len(qi_names)):
            qi_codes[:, j], domain = intern_labels([row[j] for row in qi_rows])
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


Column = tuple[np.ndarray, tuple[str, ...]]


def read_table(path) -> tuple[list[str], list[Column]]:
    """Header and interned columns of a header-ed CSV, input or release:
    per column, intern_labels' int32 codes and sorted label domain.

    Quote-free text is split with numpy (split_plain); any other text goes
    through csv.reader, read_columns and intern_labels.  Both give the same
    header, codes and domains, and the same errors: IngestionError naming
    the file where open_csv raises one, and for an empty file, a record of
    another width than the header, or no data rows.
    """
    try:
        fh = open(path, "rb")
    except OSError as e:
        raise IngestionError(f"cannot open {path}: {e}") from e
    with fh:
        data = fh.read()
    table = split_plain(data, path)
    if table is None:
        with io.TextIOWrapper(io.BytesIO(data), encoding="utf-8",
                              newline="") as text, csv_errors(path):
            reader = csv.reader(text)
            header = next(reader, None)
            if header is None:
                raise IngestionError(f"{path}: empty file")
            table = header, list(map(intern_labels,
                                     read_columns(reader, len(header), path)))
    header, columns = table
    if not columns or not len(columns[0][0]):
        raise IngestionError(f"{path}: no data rows")
    return header, columns


# _PREFIX_MASKS[k] keeps the first k bytes of a big-endian 8-byte word
_PREFIX_MASKS = np.array([(1 << 64) - (1 << (64 - 8 * k)) for k in range(9)],
                         dtype=np.uint64)


def split_plain(data: bytes, path) -> tuple[list[str], list[Column]] | None:
    """read_table's header and columns of quote-free CSV bytes, split with
    numpy; None for text csv.reader must parse: text that holds a '"', a
    NUL or a CR not followed by LF, is not UTF-8, has an empty first line,
    or has a line longer than csv.field_size_limit().

    Without quotes a record is one line (its CRLF or LF dropped), and its
    fields are the text between commas; an empty line is a zero-field
    record, as csv.reader reads it.  A record of another width than the
    header raises IngestionError at path:N (header = 1).
    """
    if b'"' in data or b"\0" in data:
        return None
    if not data.isascii():
        try:
            data.decode("utf-8")
        except UnicodeDecodeError:
            return None
    size = len(data)
    # eight zero bytes past the end, so every field start opens a word
    buf = np.zeros(size + 8, dtype=np.uint8)
    buf[:size] = np.frombuffer(data, dtype=np.uint8)
    newlines = np.flatnonzero(buf[:size] == ord("\n"))
    # line i spans [starts[i], ends[i]); a last line without LF ends the text
    starts = np.concatenate(([0], newlines + 1))
    ends = np.append(newlines, size)
    if data.endswith(b"\n"):
        starts, ends = starts[:-1], ends[:-1]
    crlf = buf[newlines - 1] == ord("\r")  # buf[-1] is padding
    if data.count(b"\r") != np.count_nonzero(crlf):
        return None
    ends[:len(newlines)] -= crlf  # the lines that end in LF come first
    if ends[0] == starts[0] or (ends - starts).max() > csv.field_size_limit():
        return None
    commas = np.flatnonzero(buf[:size] == ord(","))
    # commas only lie inside lines, so line i holds those after line i - 1's
    fields = np.diff(np.searchsorted(commas, ends), prepend=0)
    fields = np.where(ends > starts, fields + 1, 0)
    width = int(fields[0])
    ragged = np.flatnonzero(fields != width)
    if len(ragged):
        lineno = int(ragged[0])
        raise IngestionError(f"{path}:{lineno + 1}: expected {width} fields, "
                             f"got {fields[lineno]}")
    header = data[starts[0]:ends[0]].decode("utf-8").split(",")
    # each record holds width - 1 commas; the header's come first
    inner = commas[width - 1:].reshape(len(starts) - 1, width - 1)
    words = np.ndarray((size + 1,), dtype=">u8", buffer=buf, strides=(1,))
    return header, [
        _intern_spans(data, words, inner[:, j - 1] + 1 if j else starts[1:],
                      inner[:, j] if j < width - 1 else ends[1:])
        for j in range(width)]


def _intern_spans(data: bytes, words: np.ndarray, starts: np.ndarray,
                  ends: np.ndarray) -> Column:
    """intern_labels of the UTF-8 fields data[starts[i]:ends[i]].

    Fields are ranked by their zero-padded big-endian 8-byte words, one
    np.unique per word; with no NUL in the text, that order is the byte
    order of the fields, which UTF-8 makes code-point order, so codes and
    domain are intern_labels' own.  words[k] is the word at byte k.
    """
    if not len(starts):
        return np.empty(0, dtype=np.int32), ()
    lengths = ends - starts
    keys = None
    for offset in range(0, max(int(lengths.max()), 1), 8):
        word = words[np.minimum(starts + offset, len(words) - 1)]
        word = word.astype(np.uint64) & _PREFIX_MASKS[
            np.clip(lengths - offset, 0, 8)]
        if keys is not None:
            # rank by (prefix rank, this word)
            _, prefix = np.unique(keys, return_inverse=True)
            uniq, rank = np.unique(word, return_inverse=True)
            word = prefix * len(uniq) + rank
        keys = word
    uniq, codes = np.unique(keys, return_inverse=True)
    first = np.empty(len(uniq), dtype=np.intp)
    first[codes] = np.arange(len(codes))  # some field of each label
    domain = tuple(data[a:b].decode("utf-8") for a, b in
                   zip(starts[first].tolist(), ends[first].tolist()))
    return codes.astype(np.int32), domain


def code_matrix(columns: Sequence[Column], rows: int
                ) -> tuple[np.ndarray, tuple[tuple[str, ...], ...]]:
    """The (rows, len(columns)) int32 codes and the domains of interned
    columns."""
    codes = np.empty((rows, len(columns)), dtype=np.int32)
    for j, (column, _) in enumerate(columns):
        codes[:, j] = column
    return codes, tuple(domain for _, domain in columns)


def ingest_csv(path, sa_column: str) -> MicrodataTable:
    """Read a header-ed CSV into a table; every non-SA column becomes a QI.

    Raises IngestionError for what read_table rejects or a missing SA column.
    """
    header, columns = read_table(path)
    if sa_column not in header:
        raise IngestionError(f"{path}: SA column {sa_column!r} not in header {header}")
    sa_idx = header.index(sa_column)
    sa_codes, sa_domain = columns.pop(sa_idx)
    qi_codes, qi_domains = code_matrix(columns, len(sa_codes))
    qi_names = tuple(h for i, h in enumerate(header) if i != sa_idx)
    return MicrodataTable(qi_names, sa_column, qi_codes, sa_codes, qi_domains,
                          sa_domain)


def stable_order(keys: np.ndarray) -> np.ndarray:
    """np.argsort(keys, kind="stable") of non-negative integer keys.  Keys
    under 2**16 are sorted as a uint16 copy, which numpy sorts by radix; at
    200k keys that is about 5x faster than sorting them as int32."""
    if keys.max(initial=0) < 2**16:
        keys = keys.astype(np.uint16)
    return np.argsort(keys, kind="stable")


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

    violations: tuple[tuple[int, int, float], ...] = ()  # (code, count, threshold)

    @property
    def ok(self) -> bool:
        return not self.violations

    def __bool__(self) -> bool:
        return self.ok


def check_eligibility(h: SaHistogram, p: PrivacySpec) -> Eligibility:
    """A threshold set is achievable iff o_i <= value_slots(p, n) for all i."""
    if p.m != h.m:
        raise ConfigError("privacy spec and histogram cover different domains")
    bad = np.flatnonzero(h.counts > value_slots(p, h.total))
    viol = tuple((int(i), int(h.counts[i]), float(p.thresholds[i])) for i in bad)
    return Eligibility(violations=viol)


def ell_for_spec(p: PrivacySpec) -> int:
    """Uniform diversity parameter: the least size admitting each value once."""
    return int(smallest_admitting_size(p.thresholds).max())
