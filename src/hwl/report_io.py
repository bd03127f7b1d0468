"""Serialization: bit-exact signal CSV, JSON reports, SVG figures.

CSV and the JSON report schema are the package's stable external contracts:

* signal CSV: header line ``x,value``, one row per sample, 17-significant-
  digit decimal floats (lossless for binary64), uniform abscissa spacing
  validated to 1e-9 relative on read;
* report JSON: one strict-JSON object per report (no ``NaN`` or
  ``Infinity``), serialized with sorted keys so identical inputs give
  identical bytes.  Every report carries the envelope ``kind``,
  ``tool_version`` and ``input_digest``, then its own fields.  Eight kinds
  exist.  Four are the analysis dataclasses (``moment_report``,
  ``decay_fit``, ``bound_certificate``, ``sobolev_estimate``) and read back
  as those dataclasses.  Four are records of CLI runs (``hilbert_run``,
  ``bedrosian_residual``, ``tail_limit``, ``partition_deviation``) and read
  back as dicts; their required fields are :data:`RECORD_FIELDS`.

Figures are emitted as standalone SVG with hand-built paths and axes; no
plotting dependency.
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import TOOL_VERSION
from .analysis import BoundCertificate, DecayFit, MomentReport, SobolevEstimate
from .errors import InvalidParameterError, ParseError, SchemaError
from .numerics import Grid, SampledSignal

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
# signal CSV rows are written this many rows and read this many bytes at a
# time, so no whole-file list of lines or second copy of the text is held
_WRITE_BLOCK = 1 << 14
_READ_BLOCK = 1 << 20

_REPORT_KINDS = {
    "moment_report": MomentReport,
    "decay_fit": DecayFit,
    "bound_certificate": BoundCertificate,
    "sobolev_estimate": SobolevEstimate,
}
_KIND_BY_TYPE = {cls: kind for kind, cls in _REPORT_KINDS.items()}

# the record kinds, written as ``(kind, fields)``, and the fields each needs;
# ``hilbert_run`` also carries its engine's setting (``pad_factor`` or
# ``singularity_correction``)
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


def write_signal_csv(f: SampledSignal, path) -> None:
    """Write ``x,value`` rows at full binary64 round-trip precision,
    formatted and written :data:`_WRITE_BLOCK` rows at a time."""
    x, values = f.x(), f.values
    with open(path, "w") as out:
        out.write(CSV_HEADER + "\n")
        for i in range(0, values.shape[0], _WRITE_BLOCK):
            j = i + _WRITE_BLOCK
            out.write("".join([f"{a:.17g},{b:.17g}\n"
                               for a, b in zip(x[i:j].tolist(), values[i:j].tolist())]))


def _parse_rows(body: list[str]) -> tuple[np.ndarray, np.ndarray]:
    """Abscissas and values of the data rows, row by row; the first bad row
    raises ParseError with its 1-based line number among non-blank lines."""
    xs, vs = [], []
    for row, line in enumerate(body, start=2):
        parts = line.split(",")
        if len(parts) != 2:
            raise ParseError(f"expected 2 fields, got {len(parts)}", row=row)
        try:
            x, v = float(parts[0]), float(parts[1])
        except ValueError:
            raise ParseError(f"unparseable number in {line!r}", row=row) from None
        if not (np.isfinite(x) and np.isfinite(v)):
            raise ParseError("non-finite value", row=row)
        xs.append(x)
        vs.append(v)
    return np.asarray(xs), np.asarray(vs)


def _read_rows(path) -> tuple[np.ndarray, np.ndarray]:
    """The reference read: the whole text, its non-blank lines, the header
    checks and then :func:`_parse_rows`."""
    try:
        text = Path(path).read_text()
    except UnicodeDecodeError as exc:
        raise ParseError(f"not text: {exc.reason} at byte {exc.start}") from None
    lines = [ln for ln in text.splitlines() if ln.strip() != ""]
    if not lines:
        raise ParseError("empty file")
    if lines[0].strip() != CSV_HEADER:
        raise ParseError(f"expected header {CSV_HEADER!r}, got {lines[0]!r}", row=1)
    if len(lines) < 3:
        raise ParseError("need at least 2 samples")
    return _parse_rows(lines[1:])


def _parse_rows_fast(data: bytes) -> tuple[np.ndarray, np.ndarray] | None:
    """The rows of a plain signal CSV (ASCII, the exact header line, no blank
    line) parsed by NumPy's C reader :data:`_READ_BLOCK` bytes at a time, or
    None for anything else, so that :func:`_read_rows` decides."""
    # float refuses a field with U+001F around it, which loadtxt strips as
    # whitespace; a non-ASCII file is left to the locale's decoding
    if not data.startswith(_HEADER_LINE) or b"\x1f" in data or not data.isascii():
        return None
    blocks = []
    start = len(_HEADER_LINE)
    while start < len(data):
        # blocks end after a newline, so splitlines cuts each one as it cuts
        # the whole text
        end = data.find(b"\n", start + _READ_BLOCK - 1) + 1 or len(data)
        lines = data[start:end].decode("ascii").splitlines()
        if not all(lines):  # a blank line; a block of only those makes loadtxt warn
            return None
        try:
            # comments=None: '#' is no comment for float either
            block = np.loadtxt(lines, delimiter=",", comments=None, ndmin=2)
        except ValueError:
            return None
        if block.shape[1] != 2 or not np.isfinite(block).all():
            return None
        blocks.append(block)
        start = end
    if sum(len(b) for b in blocks) < 2:  # the reference refuses this
        return None
    rows = np.concatenate(blocks)
    return rows[:, 0], rows[:, 1]


def read_signal_csv(path) -> SampledSignal:
    """Parse a signal CSV; malformed content raises ParseError with the row."""
    x_arr, vs = _parse_rows_fast(Path(path).read_bytes()) or _read_rows(path)
    step = (x_arr[-1] - x_arr[0]) / (len(x_arr) - 1)
    if step <= 0:
        raise ParseError("abscissas are not increasing")
    deviation = np.abs(np.diff(x_arr) - step)
    worst = int(np.argmax(deviation))
    if deviation[worst] > 1e-9 * abs(step):
        raise ParseError(
            f"non-uniform grid: spacing deviates by {deviation[worst]:.3e} from {step}",
            row=worst + 3,  # header + 1-based + diff offset
        )
    return SampledSignal(Grid(float(x_arr[0]), float(step), len(x_arr)), vs)


def _jsonable(value):
    if isinstance(value, np.generic):
        return value.item()
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, np.ndarray):
        return [_jsonable(v) for v in value.tolist()]
    if isinstance(value, dict):
        return {k: _jsonable(v) for k, v in value.items()}
    if isinstance(value, (bool, int, float, str)) or value is None:
        return value
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
        json.dumps(value, allow_nan=False)
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
        payload[key] = _jsonable(value)
    try:
        text = json.dumps(payload, sort_keys=True, indent=2, allow_nan=False)
    except ValueError:
        bad = sorted(key for key, value in payload.items() if not _is_strict(value))
        raise SchemaError(f"{kind} report fields are not finite: {', '.join(bad)}") from None
    Path(path).write_text(text + "\n")


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
    ``NaN``/``Infinity`` token raise :class:`SchemaError`.
    """
    try:
        payload = json.loads(Path(path).read_text(), parse_constant=_refuse_constant)
    except json.JSONDecodeError as exc:
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
        for _, role in self.curves:
            if role not in _ROLE_STYLE:
                raise InvalidParameterError(f"unknown style role {role!r}")


_PANEL_W, _PANEL_H = 340, 260
_MARGIN = 46
_MAX_POINTS = 2048


def _ticks(lo: float, hi: float, n: int = 5) -> list[float]:
    if hi <= lo:
        hi = lo + 1.0
    raw = np.linspace(lo, hi, n)
    return [float(t) for t in raw]


def _polyline(x, y, x0, x1, y0, y1, ox, oy) -> str:
    stride = max(1, len(x) // _MAX_POINTS)
    xs = x[::stride]
    ys = np.clip(y[::stride], y0, y1)
    px = ox + (xs - x0) / (x1 - x0) * _PANEL_W
    py = oy + _PANEL_H - (ys - y0) / (y1 - y0) * _PANEL_H
    return " ".join(f"{a:.2f},{b:.2f}" for a, b in zip(px, py))


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
            y0, y1 = float(vals.min()), float(vals.max())
            pad = 0.05 * max(y1 - y0, 1e-12)
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
    Path(path).write_text("\n".join(parts) + "\n")
