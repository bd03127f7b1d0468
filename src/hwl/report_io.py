"""Serialization: bit-exact signal CSV, JSON reports, SVG figures.

CSV and the JSON report schema are the package's stable external contracts:

* signal CSV: header line ``x,value``, one row per sample, 17-significant-
  digit decimal floats (lossless for binary64), uniform abscissa spacing
  validated to 1e-9 relative on read, and by the same check
  (:func:`_signal_of`) before a write.  The file is ASCII: a parse reads its
  bytes once, refuses any non-ASCII byte, and parses those same bytes on
  every path, so no result depends on the locale.  The writer formats a
  large file in one process per usable CPU (:func:`write_signal_csv`), with
  no option for it; the bytes are those of a one-shot write, and a range
  whose worker fails is formatted by the writer itself.  The writer also
  saves the abscissas and then the values it formatted, two float64
  columns, in a binary sidecar ``OUT.rows`` written in one call, headed by
  one SHA-256 of the CSV's bytes and then the columns'; a read loads them
  from a regular file there instead of parsing only when that digest
  matches, with the same result, since ``%.17g`` text parses back to the
  same bits.  That check streams the CSV through one reused buffer and
  holds no copy of it;
* report JSON: one strict-JSON object per report (no ``NaN`` or
  ``Infinity``), serialized with sorted keys so identical inputs give
  identical bytes.  Every report carries the envelope ``kind``,
  ``tool_version`` and ``input_digest``, then its own fields.  Eight kinds
  exist.  Four are the analysis dataclasses (``moment_report``,
  ``decay_fit``, ``bound_certificate``, ``sobolev_estimate``) and read back
  as those dataclasses.  Four are records of CLI runs (``hilbert_run``,
  ``bedrosian_residual``, ``tail_limit``, ``partition_deviation``) and read
  back as dicts; their required fields are :data:`RECORD_FIELDS`.  The
  file is UTF-8 (RFC 8259), and the writer's output is ASCII.

Figures are emitted as standalone UTF-8 SVG with hand-built paths and axes;
no plotting dependency.  Every text file this module opens names its encoding.
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import io
import json
import math
import os
import re
import stat
import tempfile
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import TOOL_VERSION
from .analysis import BoundCertificate, DecayFit, MomentReport, SobolevEstimate
from .errors import InvalidParameterError, ParseError, SchemaError
from .numerics import GRID_TOLERANCE, Grid, SampledSignal, check_real

__all__ = [
    "write_signal_csv",
    "read_signal_csv",
    "write_report_json",
    "read_report_json",
    "PanelSpec",
    "render_figure",
]

CSV_HEADER = "x,value"
_HEADER_LINE = (CSV_HEADER + "\n").encode()
# signal CSV rows are written this many at a time: a block's template, float
# tuple and text stay under 100 KiB, and blocks of 2^14 rows formatted no
# faster yet left a repeated CLI chain's peak RSS about 1 MiB higher
_WRITE_BLOCK = 1 << 11
# a signal CSV is formatted in one process per this many rows, up to one per
# usable CPU: forking, exiting and reaping a child cost a few ms, and on two
# otherwise idle cores two processes wrote 2^14+1 rows in 14 ms, one in 17 ms
_PROCESS_ROWS = 4 * _WRITE_BLOCK
# files are read this many bytes at a time into one reused buffer: a child's
# rows as _reap counts them and as they are copied into the CSV, and a file
# as _sha256 hashes it for the sidecar check or cli._digest; no more is held
_COPY_CHUNK = 1 << 20
_ROW_START = re.compile(rb"[^\r\n]")  # the first byte of a row after the header
_NON_ASCII = re.compile(rb"[\x80-\xff]")
# the first line of a signal CSV's ``.rows`` sidecar (_write_rows_sidecar)
_ROWS_MAGIC = b"hwl-rows-3\n"

_REPORT_KINDS = {
    "moment_report": MomentReport,
    "decay_fit": DecayFit,
    "bound_certificate": BoundCertificate,
    "sobolev_estimate": SobolevEstimate,
}
_KIND_BY_TYPE = {cls: kind for kind, cls in _REPORT_KINDS.items()}

# the record kinds, written as ``(kind, fields)``, and the fields each needs;
# a spectral ``hilbert_run`` also carries ``pad_factor`` and ``fft_length``
RECORD_FIELDS = {
    "hilbert_run": ("method",),
    "bedrosian_residual": ("residual",),
    "tail_limit": ("probe_value", "predicted"),
    "partition_deviation": ("max_abs_central", "min_abs_central"),
}
_REQUIRED = {
    **{kind: tuple(f.name for f in dataclasses.fields(cls))
       for kind, cls in _REPORT_KINDS.items()},
    **RECORD_FIELDS,
}


def _format_pairs(row: str, a: np.ndarray, b: np.ndarray) -> str:
    """``row % (a[i], b[i])`` for every i, concatenated: one ``%`` over one
    template of len(a) rows and the pairs as Python floats, which formats
    each float as ``format`` does (both use CPython's float repr code)."""
    return (row * len(a)) % tuple(np.column_stack((a, b)).ravel().tolist())


def _row_ranges(count: int) -> list[int]:
    """Bounds of the contiguous row ranges a signal CSV of ``count`` rows is
    formatted in, one per process: as many as the CPUs this process may run
    on, but no more than give each :data:`_PROCESS_ROWS` rows, and each
    starting on a :data:`_WRITE_BLOCK` boundary; ``[0, count]`` for one."""
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:  # a platform without CPU affinity
        cpus = 1
    k = max(1, min(cpus, count // _PROCESS_ROWS))
    blocks = -(-count // _WRITE_BLOCK)
    return [min(count, blocks * p // k * _WRITE_BLOCK) for p in range(k + 1)]


def _row_blocks(x: np.ndarray, values: np.ndarray, start: int, stop: int):
    """The ASCII bytes of rows ``start:stop``, :data:`_WRITE_BLOCK` rows at a time."""
    for i in range(start, stop, _WRITE_BLOCK):
        j = min(i + _WRITE_BLOCK, stop)
        yield _format_pairs("%.17g,%.17g\n", x[i:j], values[i:j]).encode("ascii")


def _fork_worker(stack: contextlib.ExitStack, directory, x: np.ndarray, values: np.ndarray,
                 start: int, stop: int):
    """``(file, pid)`` of a child that writes rows ``start:stop`` to ``file``,
    an unnamed temporary file in ``directory`` that ``stack`` closes, and
    exits 0 once they are all written, or non-zero; None when no file or no
    child could be made.  The child never returns into the caller."""
    try:
        part = stack.enter_context(tempfile.TemporaryFile(dir=directory))
        pid = os.fork()
    except OSError:
        return None
    if pid == 0:
        status = 1
        try:
            for block in _row_blocks(x, values, start, stop):
                part.write(block)
            part.flush()
            status = 0
        finally:
            os._exit(status)
    return part, pid


def _exited_cleanly(pid: int) -> bool:
    """Wait for the child ``pid``: True if it exited with status 0."""
    try:
        return os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1]) == 0
    except ChildProcessError:  # reaped elsewhere, as with SIGCHLD ignored
        return False


def _chunks(file):
    """The bytes of the binary ``file`` from where it stands, read into one
    reused buffer of :data:`_COPY_CHUNK` bytes: each chunk is a view of that
    buffer, valid until the next chunk is read."""
    buffer = memoryview(bytearray(_COPY_CHUNK))
    while size := file.readinto(buffer):
        yield buffer[:size]


def _sha256(file):
    """The SHA-256 hash object of the binary ``file`` from where it stands,
    fed through :func:`_chunks`, whose buffer is freed when this returns."""
    digest = hashlib.sha256()
    for chunk in _chunks(file):
        digest.update(chunk)
    return digest


def _reap(workers: dict, start: int, rows: int):
    """Wait for the child that formats the range at ``start`` and forget it:
    its file, rewound, if the child exited 0 and left exactly ``rows``
    lines, counted in place in one :data:`_COPY_CHUNK` buffer; else None."""
    part, pid = workers.pop(start)
    if not _exited_cleanly(pid):
        return None
    part.seek(0)
    buffer, lines = bytearray(_COPY_CHUNK), 0
    while size := part.readinto(buffer):
        lines += buffer.count(b"\n", 0, size)
    part.seek(0)
    return part if lines == rows else None


def write_signal_csv(f: SampledSignal, path) -> None:
    """Write ``x,value`` rows at full binary64 round-trip precision, and then
    the ``.rows`` sidecar of those bytes (:func:`_write_rows_sidecar`).

    Rows are formatted :data:`_WRITE_BLOCK` at a time, in one contiguous
    range per usable CPU (:func:`_row_ranges`).  This process formats the
    first range; a forked child formats each other range into an unnamed
    temporary file beside ``path``, copied in afterwards in file order.  A
    range whose child could not be forked, did not exit 0, or left other
    than one line per row is formatted here instead, so the bytes are those
    of a one-shot write whatever the children do.  Every child is reaped
    before this returns or raises.  A grid whose abscissas no read could
    take back (:func:`_signal_of`) is refused first, and no file is opened.
    """
    x, values = f.x(), f.values
    try:
        _signal_of(x, values)
    except ParseError as exc:
        raise InvalidParameterError(f"the grid would not read back: {exc}") from None
    bounds = _row_ranges(values.shape[0])
    digest = hashlib.sha256(_HEADER_LINE)
    workers = {}  # (file, pid) of each range's child, by the range's start, until reaped
    with open(path, "wb") as out, contextlib.ExitStack() as stack:
        # however the write ends, wait for every child not yet reaped
        stack.callback(lambda: [_exited_cleanly(pid) for _, pid in workers.values()])
        for start, stop in zip(bounds[1:-1], bounds[2:]):
            worker = _fork_worker(stack, Path(path).parent, x, values, start, stop)
            if worker is not None:
                workers[start] = worker
        out.write(_HEADER_LINE)
        for start, stop in zip(bounds, bounds[1:]):
            part = _reap(workers, start, stop - start) if start in workers else None
            for block in _row_blocks(x, values, start, stop) if part is None else _chunks(part):
                digest.update(block)
                out.write(block)
    _write_rows_sidecar(path, digest, x, values)


def _write_rows_sidecar(path, digest, x: np.ndarray, values: np.ndarray) -> None:
    """Save the rows a signal CSV holds beside it, as ``path.rows``, in one
    write to a new file: the magic line, ``digest`` (fed the CSV's bytes,
    then the payload's) and the payload, the little-endian float64
    abscissas and then the values.  Any file at that name is replaced, and
    an ``OSError`` leaves the CSV as written: a partly written sidecar never
    matches, and the sidecar only saves later reads a parse."""
    columns = [x.astype("<f8", copy=False), values.astype("<f8", copy=False)]
    for column in columns:
        digest.update(column)
    with contextlib.suppress(OSError):
        Path(f"{path}.rows").unlink(missing_ok=True)
        with open(f"{path}.rows", "xb") as out:
            out.writelines([_ROWS_MAGIC, digest.digest(), *columns])


def _parse_rows(body: list[str]) -> tuple[np.ndarray, np.ndarray]:
    """Abscissas and values of the data rows, row by row; the first bad row
    raises ParseError with its 1-based line number among non-blank lines."""
    xs, vs = [], []
    for row, line in enumerate(body, start=2):
        parts = line.split(",")
        if len(parts) != 2:
            raise ParseError(f"expected 2 fields, got {len(parts)}", row=row)
        try:
            if "_" in line:  # float reads PEP 515 underscores: "1_0" is 10.0
                raise ValueError
            x, v = float(parts[0]), float(parts[1])
        except ValueError:
            raise ParseError(f"unparseable number in {line!r}", row=row) from None
        if not (math.isfinite(x) and math.isfinite(v)):
            raise ParseError("non-finite value", row=row)
        xs.append(x)
        vs.append(v)
    return np.asarray(xs), np.asarray(vs)


def _read_rows(text: str) -> tuple[np.ndarray, np.ndarray]:
    """The reference read of ``text``: its non-blank lines, the header
    checks and then :func:`_parse_rows`."""
    lines = [ln for ln in text.splitlines() if ln.strip() != ""]
    if not lines:
        raise ParseError("empty file")
    if lines[0].strip() != CSV_HEADER:
        raise ParseError(f"expected header {CSV_HEADER!r}, got {lines[0]!r}", row=1)
    if len(lines) < 3:
        raise ParseError("need at least 2 samples")
    return _parse_rows(lines[1:])


def _parse_rows_fast(data: bytes) -> tuple[np.ndarray, np.ndarray] | None:
    """The rows of a plain signal CSV, ASCII ``data``, parsed by NumPy's C
    reader in one pass; None, so that :func:`_read_rows` decides, for a file
    without the exact header line or with fewer than 2 rows (none makes
    loadtxt warn)."""
    # loadtxt strips these as whitespace inside a row, where str.splitlines
    # ends a line (\v, \f, U+001C-U+001E) or float refuses the field (U+001F)
    if (not data.startswith(_HEADER_LINE)
            or any(byte in data for byte in b"\x0b\x0c\x1c\x1d\x1e\x1f")
            or _ROW_START.search(data, len(_HEADER_LINE)) is None):
        return None
    with io.TextIOWrapper(io.BytesIO(data), encoding="ascii") as text:
        try:
            # comments=None: '#' is no comment for float either
            rows = np.loadtxt(text, delimiter=",", comments=None, skiprows=1, ndmin=2)
        except ValueError:
            return None
    if rows.shape[1] != 2 or len(rows) < 2 or not np.isfinite(rows).all():
        return None
    return rows[:, 0], rows[:, 1]


def _parse_signal(data: bytes) -> tuple[np.ndarray, np.ndarray]:
    """Abscissas and values of the signal CSV ``data``: a non-ASCII byte is
    refused with its offset, then NumPy's parse runs, or the reference one
    on the same bytes."""
    if not data.isascii():
        at = _NON_ASCII.search(data).start()
        raise ParseError(f"not text: non-ASCII byte {data[at]:#04x} at byte {at}")
    return _parse_rows_fast(data) or _read_rows(data.decode("ascii"))


def _sidecar_rows(path) -> tuple[np.ndarray, np.ndarray] | None:
    """Abscissas and values of the ``.rows`` sidecar of the signal CSV at
    ``path``, when it is a regular file (opened without waiting on a FIFO)
    whose header is the magic line and the SHA-256 of the CSV's bytes and
    then the payload's, and the payload holds at least two whole rows (only
    a forged header matches fewer); None otherwise.  The CSV is streamed
    through :func:`_sha256`, never held, and the payload read once."""
    def opener(name, flags):  # a FIFO opens at once, to be refused below
        return os.open(name, flags | getattr(os, "O_NONBLOCK", 0))
    try:
        with (open(f"{path}.rows", "rb", opener=opener) as side,
              open(path, "rb", buffering=0) as csv):
            if not stat.S_ISREG(os.fstat(side.fileno()).st_mode):
                return None
            header = side.read(len(_ROWS_MAGIC) + 32)
            digest = _sha256(csv)
            payload = np.fromfile(side, dtype=np.uint8)
    except OSError:  # no sidecar, a directory, or a CSV the parse will fail to read in turn
        return None
    digest.update(payload)
    if header != _ROWS_MAGIC + digest.digest() or payload.size < 32 or payload.size % 16:
        return None
    return tuple(np.split(payload.view("<f8"), 2))


def _signal_of(x: np.ndarray, values) -> SampledSignal:
    """The signal of a CSV's abscissas ``x`` and ``values``, on the grid of
    the first abscissa and the mean spacing, which every spacing must match
    to :data:`GRID_TOLERANCE`; ParseError, naming the row, otherwise."""
    # finite abscissas may span past the float range, which the grid
    # refuses, or step past it, which reads as an infinite deviation
    with np.errstate(over="ignore"):
        step = (x[-1] - x[0]) / (len(x) - 1)
        if step <= 0:
            raise ParseError("abscissas are not increasing")
        try:
            grid = Grid(x[0], step, len(x))
        except InvalidParameterError as exc:
            raise ParseError(f"abscissa span overflows: {exc}") from None
        deviation = np.diff(x)
        deviation -= step
    np.abs(deviation, out=deviation)
    worst = int(np.argmax(deviation))
    if deviation[worst] > GRID_TOLERANCE * abs(step):
        raise ParseError(
            f"non-uniform grid: spacing deviates by {deviation[worst]:.3e} from {step}",
            row=worst + 3,  # header + 1-based + diff offset
        )
    # the values are copied while `deviation` is held: freeing it first
    # left the CLI chain's peak RSS 2 MiB higher, set by heap layout
    return SampledSignal(grid, values)


def read_signal_csv(path) -> SampledSignal:
    """Read a signal CSV, from its ``.rows`` sidecar when that matches
    (:func:`_sidecar_rows`); malformed content raises ParseError with the row."""
    # the sidecar check streams the CSV, and only the parse holds its bytes,
    # so they are freed before the spacing check allocates
    return _signal_of(*(_sidecar_rows(path) or _parse_signal(Path(path).read_bytes())))


def _jsonable(value):
    """``json``'s ``default`` hook: NumPy scalars and arrays as Python values."""
    if isinstance(value, (np.generic, np.ndarray)):
        return value.tolist()
    raise TypeError(f"cannot serialize {type(value)!r}")


def _require(kind, fields) -> None:
    missing = [name for name in _REQUIRED[kind] if name not in fields]
    if missing:
        raise SchemaError(f"{kind} report is missing fields: {missing}")


def _kind_and_fields(report) -> tuple[str, dict]:
    kind = _KIND_BY_TYPE.get(type(report))
    if kind is not None:
        return kind, dataclasses.asdict(report)
    if isinstance(report, tuple) and len(report) == 2 and report[0] in RECORD_FIELDS:
        kind, fields = report
        _require(kind, fields)
        return kind, fields
    raise SchemaError(f"unknown report type {type(report)!r}")


def _is_strict(value) -> bool:
    try:
        json.dumps(value, allow_nan=False, default=_jsonable)
    except ValueError:
        return False
    return True


def write_report_json(report, path, input_digest: str = "", extra: dict | None = None) -> None:
    """Serialize a report deterministically as strict JSON.

    ``report`` is an analysis dataclass or a record ``(kind, fields)`` of a
    kind in :data:`RECORD_FIELDS`.  ``extra`` entries (e.g. a CLI pass flag
    and the run parameters) are merged at the top level; no field may
    collide with the envelope or another field.  A non-finite number raises
    :class:`SchemaError` naming its field, and no file is written.
    """
    kind, fields = _kind_and_fields(report)
    payload = {"kind": kind, "tool_version": TOOL_VERSION, "input_digest": input_digest}
    for key, value in (*fields.items(), *(extra or {}).items()):
        if key in payload:
            raise InvalidParameterError(f"report field {key!r} collides with the schema")
        payload[key] = value
    try:
        text = json.dumps(payload, sort_keys=True, indent=2, allow_nan=False, default=_jsonable)
    except ValueError:
        bad = sorted(key for key, value in payload.items() if not _is_strict(value))
        raise SchemaError(f"{kind} report fields are not finite: {', '.join(bad)}") from None
    Path(path).write_text(text + "\n", encoding="utf-8")


def _retuple(value):
    if isinstance(value, list):
        return tuple(_retuple(v) for v in value)
    return value


def _refuse_constant(token: str):
    raise SchemaError(f"not strict JSON: {token}")


def read_report_json(path):
    """Load a report written by :func:`write_report_json`.

    An analysis kind comes back as its dataclass, a record kind as the
    report's JSON object (a dict).  Unknown ``kind``, missing fields or a
    ``NaN``/``Infinity`` token raise :class:`SchemaError`, and so does a
    file that is not UTF-8.
    """
    try:
        payload = json.loads(Path(path).read_text(encoding="utf-8"),
                             parse_constant=_refuse_constant)
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise SchemaError(f"not valid JSON: {exc}") from None
    kind = payload.get("kind") if isinstance(payload, dict) else None
    if not isinstance(kind, str):
        raise SchemaError("report object must carry a 'kind' discriminator")
    if kind not in _REQUIRED:
        raise SchemaError(f"unknown report kind {kind!r}")
    _require(kind, payload)
    cls = _REPORT_KINDS.get(kind)
    if cls is None:
        return payload
    return cls(**{name: _retuple(payload[name]) for name in _REQUIRED[kind]})


# --------------------------------------------------------------------------
# figures
# --------------------------------------------------------------------------

_ROLE_STYLE = {
    "original": ("#1f6fb4", 1.4),
    "transformed": ("#d03028", 1.1),
    "kernel": ("#333333", 1.4),
}


@dataclass(frozen=True)
class PanelSpec:
    """One panel: a list of (signal, role) curves sharing axes."""

    curves: tuple
    title: str = ""
    y_range: tuple[float, float] | None = None

    def __post_init__(self):
        if not self.curves:
            raise InvalidParameterError("a panel needs at least one curve")
        for _, role in self.curves:
            if role not in _ROLE_STYLE:
                raise InvalidParameterError(f"unknown style role {role!r}")
        if self.y_range is not None:
            try:  # a pair of numbers, with a finite positive width
                lo, hi = (check_real(v, "y_range end") for v in self.y_range)
                check_real(hi - lo, "y_range width", 0.0, strict=True)
            except (TypeError, ValueError):  # InvalidParameterError is a ValueError
                raise InvalidParameterError(f"y_range must be lo < hi with a finite hi - lo, "
                                            f"got {self.y_range!r}") from None


_PANEL_W, _PANEL_H = 340, 260
_MARGIN = 46
_MAX_POINTS = 2048


def _ticks(lo: float, hi: float, n: int = 5) -> list[float]:
    return [float(t) for t in np.linspace(lo, hi, n)]


def _polyline(x, y, x0, x1, y0, y1, ox, oy) -> str:
    stride = max(1, len(x) // _MAX_POINTS)
    xs = x[::stride]
    ys = np.clip(y[::stride], y0, y1)
    px = ox + (xs - x0) / (x1 - x0) * _PANEL_W
    py = oy + _PANEL_H - (ys - y0) / (y1 - y0) * _PANEL_H
    return _format_pairs("%.2f,%.2f ", px, py)[:-1]


def render_figure(panels, path) -> None:
    """Emit a standalone SVG of ``panels`` (at least one): one row of panels,
    labeled axes, one polyline per curve, values clipped to the panel's y-range."""
    n = len(panels)
    if n == 0:
        raise InvalidParameterError("figure needs at least one panel")
    width = _MARGIN + n * (_PANEL_W + _MARGIN)
    height = _PANEL_H + 2 * _MARGIN + 14
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}" font-family="Helvetica, Arial, sans-serif" '
        f'font-size="11">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
    ]
    for ip, panel in enumerate(panels):
        ox = _MARGIN + ip * (_PANEL_W + _MARGIN)
        oy = _MARGIN
        xs = [sig.x() for sig, _ in panel.curves]
        x0 = min(float(x[0]) for x in xs)
        x1 = max(float(x[-1]) for x in xs)
        if panel.y_range is not None:
            y0, y1 = panel.y_range
        else:
            vals = np.concatenate([sig.values for sig, _ in panel.curves])
            # cut at +-4e307, under a quarter of the float range, so the width
            # stays finite, and padded by at least 5e-14 of the magnitude, so y0 < y1
            y0 = max(float(vals.min()), -4e307)
            y1 = min(float(vals.max()), 4e307)
            pad = 0.05 * max(y1 - y0, 1e-12 * max(-y0, y1, 1.0))
            y0, y1 = y0 - pad, y1 + pad
        parts.append(
            f'<rect x="{ox}" y="{oy}" width="{_PANEL_W}" height="{_PANEL_H}" '
            f'fill="none" stroke="#999" stroke-width="0.8"/>'
        )
        if y0 < 0 < y1:
            zy = oy + _PANEL_H - (0 - y0) / (y1 - y0) * _PANEL_H
            parts.append(
                f'<line x1="{ox}" y1="{zy:.2f}" x2="{ox + _PANEL_W}" y2="{zy:.2f}" '
                f'stroke="#ccc" stroke-width="0.7"/>'
            )
        for t in _ticks(x0, x1):
            px = ox + (t - x0) / (x1 - x0) * _PANEL_W
            parts.append(
                f'<line x1="{px:.2f}" y1="{oy + _PANEL_H}" x2="{px:.2f}" '
                f'y2="{oy + _PANEL_H + 4}" stroke="#333" stroke-width="0.8"/>'
            )
            parts.append(
                f'<text x="{px:.2f}" y="{oy + _PANEL_H + 16}" '
                f'text-anchor="middle">{t:g}</text>'
            )
        for t in _ticks(y0, y1):
            py = oy + _PANEL_H - (t - y0) / (y1 - y0) * _PANEL_H
            parts.append(
                f'<line x1="{ox - 4}" y1="{py:.2f}" x2="{ox}" y2="{py:.2f}" '
                f'stroke="#333" stroke-width="0.8"/>'
            )
            parts.append(
                f'<text x="{ox - 7}" y="{py + 3:.2f}" text-anchor="end">{t:.3g}</text>'
            )
        clip_id = f"panel{ip}"
        parts.append(
            f'<clipPath id="{clip_id}"><rect x="{ox}" y="{oy}" '
            f'width="{_PANEL_W}" height="{_PANEL_H}"/></clipPath>'
        )
        for sig, role in panel.curves:
            color, sw = _ROLE_STYLE[role]
            pts = _polyline(sig.x(), sig.values, x0, x1, y0, y1, ox, oy)
            parts.append(
                f'<polyline points="{pts}" fill="none" stroke="{color}" '
                f'stroke-width="{sw}" clip-path="url(#{clip_id})"/>'
            )
        if panel.title:
            parts.append(
                f'<text x="{ox + _PANEL_W / 2}" y="{oy - 10}" text-anchor="middle" '
                f'font-size="13">{panel.title}</text>'
            )
        parts.append(
            f'<text x="{ox + _PANEL_W / 2}" y="{oy + _PANEL_H + 32}" '
            f'text-anchor="middle">x</text>'
        )
    parts.append("</svg>")
    Path(path).write_text("\n".join(parts) + "\n", encoding="utf-8")
