"""CSV round trips, JSON report schema, SVG figure rendering."""

import contextlib
import errno
import gc
import hashlib
import json
import math
import os
import signal
import subprocess
import sys
import warnings
import xml.etree.ElementTree as ET
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import hwl
from hwl import analysis, cli, report_io
from hwl.errors import InvalidParameterError, ParseError, SchemaError
from hwl.hilbert import hilbert_spectral
from hwl.numerics import Grid, SampledSignal
from hwl.report_io import (
    PanelSpec,
    read_report_json,
    read_signal_csv,
    render_figure,
    write_report_json,
    write_signal_csv,
)
from hwl.wavelets import make_bspline_scaling, make_spline_wavelet, sample

from conftest import rng, traced_peak_mib
from test_cli import _CSV


_MAX = sys.float_info.max


@pytest.fixture
def awkward_signal():
    # values exercising the full float width: subnormal-ish, huge, negative
    g = Grid(-1.25, 1.0 / 3.0, 9)
    r = rng(3)
    v = r.normal(size=9) * np.logspace(-150, 150, 9)
    return SampledSignal(g, v)


# -0.0, the least subnormal, the largest float, and 1e16 and 1e17, where
# %.17g turns from positional to exponent form
AWKWARD_VALUES = [-0.0, 5e-324, 1.7976931348623157e308, -1.7976931348623157e308,
                  9999999999999998.0, 1e16, 1e17]


def one_shot_signal(count: int) -> SampledSignal:
    """``count`` random samples, led by as many of the awkward values as fit."""
    values = rng(count).normal(size=count)
    awkward = AWKWARD_VALUES[:count]
    values[:len(awkward)] = awkward
    return SampledSignal(Grid(-1.25, 1.0 / 3.0, count), values)


def one_shot_bytes(sig: SampledSignal) -> bytes:
    """The signal CSV of ``sig``, formatted one row at a time by ``format``."""
    rows = [f"{x:.17g},{v:.17g}" for x, v in zip(sig.x().tolist(), sig.values.tolist())]
    return ("\n".join(["x,value", *rows]) + "\n").encode()


def rows_sidecar_bytes(sig: SampledSignal, csv: bytes) -> bytes:
    """The ``.rows`` sidecar of ``sig`` written as the CSV ``csv``: the
    abscissas and then the values, each a little-endian float64 column."""
    columns = sig.x().astype("<f8").tobytes() + sig.values.astype("<f8").tobytes()
    return b"hwl-rows-3\n" + hashlib.sha256(csv + columns).digest() + columns


@contextlib.contextmanager
def deadline(seconds: int):
    """Fail the test, rather than hang it, if the block runs ``seconds`` long."""
    def expire(signum, frame):
        pytest.fail(f"still running after {seconds} s")
    handler = signal.signal(signal.SIGALRM, expire)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, handler)


@contextlib.contextmanager
def no_resource_warning():
    """Fail if the block leaves a file to its finalizer."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        yield
        gc.collect()
    assert [w for w in caught if issubclass(w.category, ResourceWarning)] == []


def assert_no_child():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def _without_sidecar(path: Path) -> Path:
    """``path`` with its ``.rows`` sidecar removed, so reads parse it."""
    Path(f"{path}.rows").unlink()
    return path


# each round trip runs through the sidecar and through the parse
SIDECAR = pytest.mark.parametrize("keep", [lambda p: p, _without_sidecar],
                                  ids=["sidecar-kept", "sidecar-removed"])


class TestSignalCsv:
    @SIDECAR
    def test_round_trip_bit_identical(self, tmp_path, awkward_signal, keep):
        p = tmp_path / "sig.csv"
        write_signal_csv(awkward_signal, p)
        back = read_signal_csv(keep(p))
        np.testing.assert_array_equal(back.values, awkward_signal.values)
        assert back.grid.count == awkward_signal.grid.count
        assert back.grid.x_min == awkward_signal.grid.x_min

    def test_header_and_row_shape(self, tmp_path):
        g = Grid(0.0, 0.5, 3)
        p = tmp_path / "sig.csv"
        write_signal_csv(SampledSignal(g, [1.0, 2.0, 3.0]), p)
        lines = p.read_text().splitlines()
        assert lines[0] == "x,value"
        assert len(lines) == 4

    # "-1" to "None" straddle one and two blocks, and "2-rows" is the least
    # file; the rest straddle the rows one process formats at the least
    # (report_io._PROCESS_ROWS) and the counts where a second and third start
    _BLOCK, _PROCESS = report_io._WRITE_BLOCK, report_io._PROCESS_ROWS
    ROW_COUNTS = {"-1": _BLOCK - 1, "0": _BLOCK, "1": _BLOCK + 1, "None": 2 * _BLOCK + 1,
                  "2-rows": 2, "process-1": _PROCESS - 1, "process": _PROCESS,
                  "2-processes-1": 2 * _PROCESS - 1, "2-processes": 2 * _PROCESS,
                  "3-processes+5": 3 * _PROCESS + 5}

    @pytest.mark.parametrize("count", ROW_COUNTS.values(), ids=ROW_COUNTS.keys())
    def test_blocks_write_the_one_shot_bytes(self, tmp_path, monkeypatch, count):
        # with the CPUs this process may use, and with one, where nothing forks
        sig = one_shot_signal(count)
        want = one_shot_bytes(sig)
        p = tmp_path / "sig.csv"
        write_signal_csv(sig, p)
        assert p.read_bytes() == want
        assert Path(f"{p}.rows").read_bytes() == rows_sidecar_bytes(sig, want)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
        monkeypatch.setattr(os, "fork", lambda: pytest.fail("forked with one CPU"))
        write_signal_csv(sig, p)
        assert p.read_bytes() == want
        assert Path(f"{p}.rows").read_bytes() == rows_sidecar_bytes(sig, want)

    def test_fast_parse_takes_a_plain_file(self, tmp_path, awkward_signal):
        p = tmp_path / "sig.csv"
        write_signal_csv(awkward_signal, p)
        x, v = report_io._parse_rows_fast(p.read_bytes())
        assert x.tobytes() == awkward_signal.x().tobytes()
        assert v.tobytes() == awkward_signal.values.tobytes()

    def test_shuffled_x_rejected(self, tmp_path):
        p = tmp_path / "bad.csv"
        p.write_text("x,value\n0.0,1.0\n2.0,1.0\n1.0,1.0\n")
        with pytest.raises(ParseError, match="non-uniform"):
            read_signal_csv(p)

    def test_empty_file_rejected(self, tmp_path):
        p = tmp_path / "empty.csv"
        p.write_text("")
        with pytest.raises(ParseError):
            read_signal_csv(p)

    def test_bad_header_rejected(self, tmp_path):
        p = tmp_path / "hdr.csv"
        p.write_text("t,y\n0.0,1.0\n1.0,2.0\n")
        with pytest.raises(ParseError, match="header"):
            read_signal_csv(p)

    def test_non_finite_rejected_with_row(self, tmp_path):
        p = tmp_path / "inf.csv"
        p.write_text("x,value\n0.0,1.0\n1.0,inf\n2.0,0.0\n")
        with pytest.raises(ParseError) as err:
            read_signal_csv(p)
        assert err.value.row == 3

    def test_undecodable_bytes_rejected(self, tmp_path):
        p = tmp_path / "binary.csv"
        p.write_bytes(b"x,value\n0.0,1.0\n\xff,2.0\n")
        with pytest.raises(ParseError, match="not text: non-ASCII byte 0xff at byte 16$"):
            read_signal_csv(p)

    def test_reference_parse_reads_the_file_once(self, tmp_path, monkeypatch):
        p = tmp_path / "crlf.csv"
        p.write_bytes(b"x,value\r\n0,1\r\n1,2\r\n")
        assert report_io._parse_rows_fast(p.read_bytes()) is None
        reads = []
        read_bytes = Path.read_bytes
        monkeypatch.setattr(Path, "read_bytes", lambda self: reads.append(self) or read_bytes(self))
        monkeypatch.setattr(Path, "read_text", lambda *a, **k: pytest.fail("second read"))
        assert read_signal_csv(p).values.tolist() == [1.0, 2.0]
        assert reads == [p]

    # finite abscissas whose span, last abscissa or one adjacent difference
    # lies past the float range: a parse error, never an overflow warning
    @pytest.mark.parametrize("xs,match", [
        ([-1.7e308, 1.7e308], "span overflows"),
        ([0.0, _MAX / 3, 2 * (_MAX / 3), _MAX], "span overflows"),
        ([0.0, 1.7e308, -1.7e308, 3.0], "row 4: non-uniform grid"),
    ])
    def test_overflowing_abscissas_rejected(self, tmp_path, xs, match):
        p = tmp_path / "huge.csv"
        p.write_text("x,value\n" + "".join(f"{x!r},0\n" for x in xs))
        with pytest.raises(ParseError, match=match):
            read_signal_csv(p)

    def test_garbage_row_number(self, tmp_path):
        p = tmp_path / "garbled.csv"
        p.write_text("x,value\n0.0,1.0\n1.0,two\n")
        with pytest.raises(ParseError) as err:
            read_signal_csv(p)
        assert err.value.row == 3

    @settings(max_examples=30, deadline=None)
    @given(
        values=hnp.arrays(
            np.float64,
            st.integers(min_value=2, max_value=40),
            elements=st.floats(-1e12, 1e12, allow_nan=False, width=64),
        ),
        x_min=st.floats(-1e3, 1e3),
        # step well above the abscissa rounding jitter at |x| ~ 1e3, so the
        # reader's 1e-9-relative spacing validation cannot trip on ulps
        step=st.floats(1e-3, 1e3),
    )
    @SIDECAR
    def test_round_trip_is_identity(self, values, x_min, step, keep):
        import tempfile

        sig = SampledSignal(Grid(x_min, step, len(values)), values)
        with tempfile.TemporaryDirectory() as d:
            p = Path(d) / "prop.csv"
            write_signal_csv(sig, p)
            np.testing.assert_array_equal(read_signal_csv(keep(p)).values, sig.values)


def _outcome(path):
    """What reading ``path`` gives: the grid and the values' bytes, or the
    error's type, row and message."""
    try:
        f = read_signal_csv(path)
    except Exception as exc:  # noqa: BLE001 -- compared, not handled
        return type(exc), getattr(exc, "row", None), str(exc)
    return repr(f.grid), f.values.tobytes()


def _parsed_outcome(path, tmp_dir):
    """:func:`_outcome` of a copy of ``path``'s bytes that has no sidecar."""
    copy = tmp_dir / "parsed-copy.csv"
    copy.write_bytes(path.read_bytes())
    return _outcome(copy)


def _fork_then(child):
    """An ``os.fork`` whose child runs ``child()`` at once and ends there."""
    fork = os.fork

    def forked():
        pid = fork()
        if pid == 0:
            try:
                child()
            finally:
                os._exit(1)
        return pid
    return forked


def _exit_status(status: int):
    """An ``os.fork`` whose child writes its rows and then exits with ``status``."""
    fork, exit_ = os.fork, os._exit

    def forked():
        pid = fork()
        if pid == 0:
            os._exit = lambda _: exit_(status)
        return pid
    return forked


def _fork_fails():
    raise BlockingIOError(errno.EAGAIN, "Resource temporarily unavailable")


class _FullDisk:
    """An output file whose every write past its first ``room`` bytes fails."""

    def __init__(self, out, room):
        self.out, self.room = out, room

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.out.close()

    def write(self, data):
        if self.out.tell() + memoryview(data).nbytes > self.room:
            raise OSError(errno.ENOSPC, "No space left on device")
        return self.out.write(data)

    def writelines(self, parts):
        for part in parts:
            self.write(part)


class TestParallelWriter:
    """The writer formats a large signal CSV in one process per usable CPU;
    whatever a child does, the bytes are those of a one-shot write, every
    child is reaped and no file is left behind."""

    COUNT = 3 * report_io._PROCESS_ROWS + 5

    @pytest.fixture
    def formatted(self, monkeypatch):
        """Three CPUs, so three ranges on any machine, and the ranges this
        process formats itself, in order."""
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2})
        ranges = []
        blocks = report_io._row_blocks

        def row_blocks(x, values, start, stop):
            ranges.append((start, stop))
            return blocks(x, values, start, stop)
        monkeypatch.setattr(report_io, "_row_blocks", row_blocks)
        return ranges

    def _write(self, tmp_path):
        sig = one_shot_signal(self.COUNT)
        p = tmp_path / "sig.csv"
        with no_resource_warning():
            write_signal_csv(sig, p)
        want = one_shot_bytes(sig)
        assert p.read_bytes() == want
        assert Path(f"{p}.rows").read_bytes() == rows_sidecar_bytes(sig, want)
        assert sorted(f.name for f in tmp_path.iterdir()) == ["sig.csv", "sig.csv.rows"]
        assert_no_child()

    def test_ranges(self, formatted):
        # whole blocks each, at least _PROCESS_ROWS rows, the rest in the last
        block = report_io._WRITE_BLOCK
        assert report_io._row_ranges(self.COUNT) == [0, 4 * block, 8 * block, self.COUNT]

    def test_no_cpu_affinity_writes_in_one_process(self, tmp_path, monkeypatch):
        # a platform without os.sched_getaffinity formats every row here
        monkeypatch.delattr(os, "sched_getaffinity")
        monkeypatch.setattr(os, "fork", lambda: pytest.fail("forked without CPU affinity"))
        assert report_io._row_ranges(self.COUNT) == [0, self.COUNT]
        self._write(tmp_path)

    def test_children_format_all_but_the_first_range(self, tmp_path, formatted):
        self._write(tmp_path)
        assert formatted == [(0, 4 * report_io._WRITE_BLOCK)]

    FAULTS = {
        "fork-fails": _fork_fails,
        "child-exits-1": _fork_then(lambda: os._exit(1)),
        "child-killed": _fork_then(lambda: os.kill(os.getpid(), signal.SIGKILL)),
        # exits 0 having written nothing: a part short of its rows
        "child-writes-nothing": _fork_then(lambda: os._exit(0)),
        "child-writes-then-exits-3": _exit_status(3),
    }

    @pytest.mark.parametrize("fault", FAULTS.values(), ids=FAULTS.keys())
    def test_a_failed_child_falls_back_to_this_process(self, tmp_path, monkeypatch,
                                                       formatted, fault):
        monkeypatch.setattr(os, "fork", fault)
        self._write(tmp_path)
        block = report_io._WRITE_BLOCK
        assert formatted == [(0, 4 * block), (4 * block, 8 * block), (8 * block, self.COUNT)]

    def test_a_failed_write_reaps_every_child(self, tmp_path, monkeypatch, formatted):
        p = tmp_path / "sig.csv"
        monkeypatch.setattr(report_io, "open", lambda path, mode: _FullDisk(
            open(path, mode), len(b"x,value\n")), raising=False)
        with no_resource_warning(), pytest.raises(OSError, match="No space left"):
            write_signal_csv(one_shot_signal(self.COUNT), p)
        assert_no_child()
        assert sorted(f.name for f in tmp_path.iterdir()) == ["sig.csv"]


class TestRowsSidecar:
    """The ``.rows`` sidecar the writer leaves beside each signal CSV: a read
    loads it only when it matches the CSV's bytes, and gives the parse's
    answer either way."""

    def test_layout(self, tmp_path, awkward_signal):
        p = tmp_path / "sig.csv"
        write_signal_csv(awkward_signal, p)
        assert Path(f"{p}.rows").read_bytes() == rows_sidecar_bytes(awkward_signal, p.read_bytes())
        assert sorted(f.name for f in tmp_path.iterdir()) == ["sig.csv", "sig.csv.rows"]

    @settings(max_examples=60, deadline=None)
    @given(
        values=hnp.arrays(np.float64, st.integers(2, 40), elements=st.one_of(
            st.sampled_from(AWKWARD_VALUES), st.floats(allow_nan=False,
                                                       allow_infinity=False))),
        x_min=st.floats(-1e6, 1e6),
        step=st.floats(1e-6, 1e6),
    )
    # a grid whose spacing the abscissas' rounding bends, and one it does not
    @example(values=np.zeros(3), x_min=1e6, step=1e-6)
    @example(values=np.zeros(3), x_min=-1.0, step=0.5)
    def test_sidecar_gives_the_parse_answer(self, tmp_path_factory, values, x_min, step):
        # the writer refuses exactly the grids whose one-shot bytes the parse
        # refuses, naming the same row, and writes no file; otherwise the
        # sidecar gives the parse's grid and value bits
        base = tmp_path_factory.getbasetemp()
        sig = SampledSignal(Grid(x_min, step, len(values)), values)
        one_shot = base / "one_shot.csv"
        one_shot.write_bytes(one_shot_bytes(sig))
        parsed = _outcome(one_shot)
        p = base / "sidecar_property.csv"
        for name in (p, Path(f"{p}.rows")):
            name.unlink(missing_ok=True)
        if parsed[0] is ParseError:
            with pytest.raises(InvalidParameterError) as err:
                write_signal_csv(sig, p)
            assert str(err.value) == f"the grid would not read back: {parsed[2]}"
            assert not p.exists() and not Path(f"{p}.rows").exists()
            return
        write_signal_csv(sig, p)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(report_io, "_parse_signal", lambda data: pytest.fail("parsed"))
            assert _outcome(p) == parsed

    def test_a_failed_sidecar_write_leaves_the_csv(self, tmp_path, monkeypatch):
        # the disk fills after the sidecar's header: the CSV stands as
        # written, the partly written sidecar never matches, and a read parses
        p = tmp_path / "sig.csv"
        monkeypatch.setattr(report_io, "open", lambda path, mode: _FullDisk(
            open(path, mode), len(b"hwl-rows-3\n") + 32) if mode == "xb" else open(path, mode),
            raising=False)
        write_signal_csv(self.SIGNAL, p)
        monkeypatch.undo()
        assert p.read_bytes() == one_shot_bytes(self.SIGNAL)
        assert sorted(f.name for f in tmp_path.iterdir()) == ["sig.csv", "sig.csv.rows"]
        assert Path(f"{p}.rows").stat().st_size == len(b"hwl-rows-3\n") + 32
        want = _parsed_outcome(p, tmp_path)
        parses = []
        parse = report_io._parse_signal
        monkeypatch.setattr(report_io, "_parse_signal", lambda data: parses.append(data)
                            or parse(data))
        assert _outcome(p) == want
        assert parses == [p.read_bytes()]

    def test_a_symlink_at_the_sidecar_is_replaced(self, tmp_path):
        # the link is replaced by the sidecar, and the file it named is untouched
        target = tmp_path / "elsewhere" / "target"
        target.parent.mkdir()
        target.write_bytes(b"not a sidecar")
        p = tmp_path / "out" / "sig.csv"
        p.parent.mkdir()
        Path(f"{p}.rows").symlink_to(target)
        write_signal_csv(self.SIGNAL, p)
        assert not Path(f"{p}.rows").is_symlink()
        assert Path(f"{p}.rows").read_bytes() == rows_sidecar_bytes(self.SIGNAL, p.read_bytes())
        assert target.read_bytes() == b"not a sidecar"
        assert sorted(f.name for f in p.parent.iterdir()) == ["sig.csv", "sig.csv.rows"]

    @staticmethod
    def _edit_csv(p, old, new):
        data = p.read_bytes()
        assert data.count(old) == 1
        p.write_bytes(data.replace(old, new))

    @staticmethod
    def _edit_rows(side, edit):
        """Apply ``edit`` in place to a copy of the sidecar's rows and write
        them back under the header as written."""
        data = side.read_bytes()
        head = len(b"hwl-rows-3\n") + 32
        rows = np.frombuffer(data, "<f8", offset=head).reshape(2, -1).T.copy()
        edit(rows)
        side.write_bytes(data[:head] + rows.T.tobytes())

    @staticmethod
    def _rows_2(p, side):
        # the layout before the columns: (x, value) rows, under a digest of the CSV and them
        sig = TestRowsSidecar.SIGNAL
        rows = np.column_stack((sig.x(), sig.values)).astype("<f8").tobytes()
        side.write_bytes(b"hwl-rows-2\n" + hashlib.sha256(p.read_bytes() + rows).digest() + rows)

    @staticmethod
    def _sidecar_of_another_file(p, side):
        # a sidecar that matches its own CSV, whose rows have the same shape
        other = p.with_name("other.csv")
        write_signal_csv(SampledSignal(Grid(-1.0, 0.5, 5), [4.0, 3.0, 2.0, 1.0, 0.0]), other)
        os.replace(f"{other}.rows", side)

    SIGNAL = SampledSignal(Grid(-1.0, 0.5, 5), [0.0, 0.1, 0.2, -0.3, 5e-324])

    # each leaves a sidecar that does not match its CSV, or none
    DAMAGE = {
        "deleted": lambda p, side: side.unlink(),
        "truncated-1-byte": lambda p, side: side.write_bytes(side.read_bytes()[:-1]),
        "truncated-1-row": lambda p, side: side.write_bytes(side.read_bytes()[:-16]),
        "extended-1-byte": lambda p, side: side.write_bytes(side.read_bytes() + bytes(1)),
        "extended-1-row": lambda p, side: side.write_bytes(side.read_bytes() + bytes(16)),
        "wrong-magic": lambda p, side: side.write_bytes(
            b"hwl-rows-4\n" + side.read_bytes()[len(b"hwl-rows-3\n"):]),
        # the layout before the header bound the rows: the CSV's digest alone
        "hwl-rows-1": lambda p, side: side.write_bytes(
            b"hwl-rows-1\n" + hashlib.sha256(p.read_bytes()).digest()
            + side.read_bytes()[len(b"hwl-rows-3\n") + 32:]),
        "hwl-rows-2": lambda p, side: TestRowsSidecar._rows_2(p, side),
        "directory": lambda p, side: (side.unlink(), side.mkdir()),
        "device": lambda p, side: (side.unlink(), side.symlink_to("/dev/zero")),
        # a blocking open would wait here for a writer that never comes
        "fifo": lambda p, side: (side.unlink(), os.mkfifo(side)),
        "another-files-digest": lambda p, side: TestRowsSidecar._sidecar_of_another_file(p, side),
        # payloads edited under the header as written: the last value reads
        # NaN, the value 0.1 reads 0.2, or the rows of 0.1 and 0.2 trade places
        "nan-payload": lambda p, side: side.write_bytes(
            side.read_bytes()[:-8] + np.array(np.nan, "<f8").tobytes()),
        "payload-value-doubled": lambda p, side: TestRowsSidecar._edit_rows(
            side, lambda rows: np.multiply.at(rows, (1, 1), 2.0)),
        "payload-rows-swapped": lambda p, side: TestRowsSidecar._edit_rows(
            side, lambda rows: np.copyto(rows[1:3], rows[[2, 1]])),
        "csv-value-edited": lambda p, side: TestRowsSidecar._edit_csv(
            p, b",0.20000000000000001\n", b",0.20000000000000004\n"),
        "csv-nan": lambda p, side: TestRowsSidecar._edit_csv(
            p, b",0.20000000000000001\n", b",nan\n"),
    }

    @pytest.mark.parametrize("damage", DAMAGE.values(), ids=DAMAGE.keys())
    def test_a_sidecar_that_does_not_match_falls_back_to_the_parse(self, tmp_path,
                                                                   monkeypatch, damage):
        p = tmp_path / "sig.csv"
        write_signal_csv(self.SIGNAL, p)
        damage(p, Path(f"{p}.rows"))
        want = _parsed_outcome(p, tmp_path)
        parses = []
        parse = report_io._parse_signal
        monkeypatch.setattr(report_io, "_parse_signal", lambda data: parses.append(data)
                            or parse(data))
        fds = len(os.listdir("/dev/fd"))
        with deadline(10):
            assert _outcome(p) == want
        assert len(os.listdir("/dev/fd")) == fds  # the read closed every file it opened
        assert parses == [p.read_bytes()]

    @settings(max_examples=150, deadline=None)
    @given(side=st.one_of(
        st.binary(max_size=200),
        st.binary(max_size=200).map(b"hwl-rows-3\n".__add__),
        st.tuples(st.integers(0, 2 ** 16), st.integers(1, 255))))
    def test_any_sidecar_bytes_give_the_parse_answer(self, tmp_path_factory, side):
        # arbitrary bytes, the same after the magic line, or the sidecar as
        # written with the byte at one offset XORed with a non-zero mask
        base = tmp_path_factory.getbasetemp()
        p = base / "fuzzed_sidecar.csv"
        write_signal_csv(self.SIGNAL, p)
        if isinstance(side, tuple):
            (at, mask), side = side, bytearray(Path(f"{p}.rows").read_bytes())
            side[at % len(side)] ^= mask
        Path(f"{p}.rows").write_bytes(side)
        assert _outcome(p) == _parsed_outcome(p, base)

    # a header forged to match is out of scope, but over fewer than two
    # whole rows it is not loaded, and over any payload no run ends in a
    # traceback
    @settings(max_examples=100, deadline=None)
    @given(payload=st.sampled_from([0, 8, 16, 24, 32, 40, 48]).flatmap(
        lambda size: st.binary(min_size=size, max_size=size)))
    def test_a_forged_header_is_loaded_only_over_two_whole_rows(self, tmp_path_factory,
                                                                 payload):
        base = tmp_path_factory.getbasetemp()
        p = base / "forged_sidecar.csv"
        write_signal_csv(self.SIGNAL, p)
        forged = hashlib.sha256(p.read_bytes() + payload).digest()
        Path(f"{p}.rows").write_bytes(b"hwl-rows-3\n" + forged + payload)
        if len(payload) < 32 or len(payload) % 16:
            assert _outcome(p) == _parsed_outcome(p, base)
        assert cli.main(["analyze", "moments", "--in", str(p), "--max-order", "2",
                         "--json", str(base / "forged.json")]) in (0, 2, 3)


class TestStreamedCheck:
    """The sidecar check streams the CSV through one reused buffer of
    ``_COPY_CHUNK`` bytes, hashing it across chunk boundaries, and
    ``cli._digest`` hashes through the same reads.  The check counts no
    rows: the appended-row case rewrites the header to the SHA-256 of the
    CSV alone, which no longer matches, since the digest also covers the
    payload."""

    COUNT = 80_000  # rows enough for 4 chunks, the last holding a whole appended row

    @pytest.fixture
    def csv(self, tmp_path):
        p = tmp_path / "sig.csv"
        write_signal_csv(one_shot_signal(self.COUNT), p)
        assert p.stat().st_size > 2 * report_io._COPY_CHUNK
        return p

    def test_a_row_appended_under_a_rewritten_digest_falls_back_to_the_parse(
            self, tmp_path, monkeypatch, csv):
        x = Grid(-1.25, 1.0 / 3.0, self.COUNT + 1).abscissas()[-1]
        row = f"{x:.17g},0.5\n".encode()
        data = csv.read_bytes() + row
        chunk = report_io._COPY_CHUNK
        assert (len(data) - len(row)) // chunk == (len(data) - 1) // chunk  # the last chunk
        csv.write_bytes(data)
        side = Path(f"{csv}.rows")
        magic = len(b"hwl-rows-3\n")
        old = side.read_bytes()
        side.write_bytes(old[:magic] + hashlib.sha256(data).digest() + old[magic + 32:])
        want = _parsed_outcome(csv, tmp_path)
        assert len(want[1]) == 8 * (self.COUNT + 1)
        parses = []
        parse = report_io._parse_signal
        monkeypatch.setattr(report_io, "_parse_signal", lambda data: parses.append(data)
                            or parse(data))
        assert _outcome(csv) == want
        assert parses == [data]

    def test_an_untouched_file_loads_the_sidecar(self, tmp_path, monkeypatch, csv):
        want = _parsed_outcome(csv, tmp_path)
        monkeypatch.setattr(report_io, "_parse_signal", lambda data: pytest.fail("parsed"))
        assert _outcome(csv) == want

    def test_an_empty_csv_beside_a_sidecar_is_the_parse_error(self, csv):
        csv.write_bytes(b"")
        assert Path(f"{csv}.rows").is_file()
        with pytest.raises(ParseError, match="^empty file$"):
            read_signal_csv(csv)

    # a file of chunks * _COPY_CHUNK + extra bytes
    @pytest.mark.parametrize("chunks, extra", [(0, 0), (1, -1), (1, 0), (1, 1), (3, 5)],
                             ids=["empty", "chunk-1", "chunk", "chunk+1", "3-chunks+5"])
    def test_digest_is_the_sha256_of_the_whole_file(self, tmp_path, chunks, extra):
        size = chunks * report_io._COPY_CHUNK + extra
        p = tmp_path / "blob"
        p.write_bytes(rng(size).integers(0, 256, size, dtype=np.uint8).tobytes())
        assert cli._digest(p) == hashlib.sha256(p.read_bytes()).hexdigest()


@settings(max_examples=300, deadline=None)
@given(csv=_CSV)
# three fields then one: as many fields as two good rows
@example(csv=b"x,value\n0,1,2\n3\n")
# fields float takes and loadtxt refuses: underscores, refused by the row
# parser too, and non-ASCII digits, spaces and line ends, refused as not text
@example(csv=b"x,value\n1_0,1\n2_0,2\n")
@example(csv=b"x,value\n0,1_0\n1,2\n")
@example(csv="x,value\n\uff11,1\n\uff12,2\n".encode())
@example(csv="x,value\n\u0660,1\n1,2\n".encode())
@example(csv="x,value\n\uff10,1\n1,2\n".encode())
@example(csv="x,value\n0,\u00a01\u00a0\n1,2\n".encode())
@example(csv="x,value\n0,1\u20281,2\u2028".encode())
@example(csv="x,value\n0,1\u00851,2\u0085".encode())
# fields loadtxt would take and float refuses: U+001F strips as whitespace,
# and '#' starts a comment unless comments=None
@example(csv=b"x,value\n1\x1f,1\n2,2\n")
@example(csv=b"x,value\n0,1.5#c\n1,2\n")
# line ends: CRLF, bare CR, and the ones str.splitlines ends a line at and
# loadtxt strips as whitespace inside a row
@example(csv=b"x,value\n0,1\r\n1,2\r\n")
@example(csv=b"x,value\n0,1\r1,2\r")
@example(csv=b"x,value\n0,\x0b1\n1,2\n")
@example(csv=b"x,value\n0,\x0c1\n1,2\n")
@example(csv=b"x,value\n0\x1c,1\n1,2\n")
@example(csv=b"x,value\n0,1\x1d\n1,2\n")
@example(csv=b"x,value\n\x1e0,1\n1,2\n")
# blank and whitespace-only lines, a header alone, no final newline
@example(csv=b"x,value\n0,1\n \t\n1,2\n")
@example(csv=b"x,value\n0,1\n\n1,2\n")
@example(csv=b"x,value\n")
@example(csv=b"x,value\n\n\r\n")
@example(csv=b"x,value\n0,1\n1,2")
def test_fast_parse_matches_row_parser(tmp_path_factory, csv):
    """NumPy's parse returns what the row-by-row parser returns, bit for
    bit, or lets it raise the same error for the same row."""
    path = tmp_path_factory.getbasetemp() / "fast_parse.csv"
    path.write_bytes(csv)

    def outcome():
        try:
            f = read_signal_csv(path)
        except Exception as exc:  # noqa: BLE001 -- compared, not handled
            return type(exc), getattr(exc, "row", None), str(exc)
        return repr(f.grid), f.values.tobytes()

    fast = outcome()
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(report_io, "_parse_rows_fast", lambda data: None)
        assert outcome() == fast
    if not csv.isascii():
        at = next(i for i, byte in enumerate(csv) if byte > 0x7f)
        assert fast == (ParseError, None, f"not text: non-ASCII byte {csv[at]:#04x} at byte {at}")
    if b"_" in csv:  # float reads "1_0" as 10.0
        assert fast[0] is ParseError


_ENCODING_GUARD = """
from hwl import cli
from hwl.report_io import read_report_json, read_signal_csv
for argv in (
    ["gen", "--wavelet", "haar-wavelet", "--grid", "-8:8:0.0625", "--out", "psi.csv"],
    ["hilbert", "--method", "pv", "--in", "psi.csv", "--out", "hpsi.csv"],
    ["analyze", "decay", "--in", "hpsi.csv", "--window", "2:8", "--json", "decay.json"],
    ["figure", "--id", "2", "--out", "fig.svg"],
):
    assert cli.main(argv) == 0, argv
read_report_json("decay.json")
assert read_signal_csv("crlf.csv").values.tolist() == [1.0, 2.0]
"""

_READ_UNDER_LOCALE = """
import locale
from hwl.report_io import read_signal_csv
try:
    read_signal_csv("full_width.csv")
except Exception as exc:
    print(locale.getpreferredencoding(False), type(exc).__name__, exc, sep="|")
"""


def test_files_do_not_depend_on_the_locale(tmp_path):
    """No open in the CLI chain or the readers falls back to the locale's
    encoding, and a non-ASCII signal CSV is refused alike under an ASCII and
    a UTF-8 locale."""
    (tmp_path / "crlf.csv").write_bytes(b"x,value\r\n0,1\r\n1,2\r\n")
    (tmp_path / "full_width.csv").write_bytes("x,value\n\uff11,1\n\uff12,2\n".encode())
    src = str(Path(hwl.__file__).parents[1])

    def python(*args, **env):
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        env = {**os.environ, "PYTHONPATH": path, **env}
        done = subprocess.run([sys.executable, *args], cwd=tmp_path, env=env,
                              capture_output=True, text=True, encoding="utf-8")
        assert done.returncode == 0, done.stderr
        return done.stdout

    python("-X", "warn_default_encoding", "-W", "error::EncodingWarning", "-c", _ENCODING_GUARD)
    ascii_run = python("-c", _READ_UNDER_LOCALE,
                       LC_ALL="POSIX", PYTHONUTF8="0", PYTHONCOERCECLOCALE="0")
    utf8_run = python("-c", _READ_UNDER_LOCALE, LC_ALL="C.UTF-8")
    ascii_encoding, *ascii_error = ascii_run.rstrip("\n").split("|")
    utf8_encoding, *utf8_error = utf8_run.rstrip("\n").split("|")
    assert ascii_encoding != utf8_encoding  # the two runs decode text differently
    assert ascii_error == utf8_error == ["ParseError", "not text: non-ASCII byte 0xef at byte 8"]


class TestSignalCsvMemory:
    """Peak traced allocation of the CSV writer and reader, the sidecar
    check, ``cli._digest`` and the Sobolev profile on the 2^18+1-sample spectral transform of the
    cubic wavelet, a file of about 9 MiB; a list of every row or line, one
    str each, would take over 40 MiB."""

    @pytest.fixture(scope="class")
    def transform(self):
        grid = Grid(-128.0, 2.0 ** -10, 2 ** 18 + 1)
        return hilbert_spectral(sample(make_spline_wavelet(3), grid))

    # in two processes on any machine, so a block here and a chunk of the
    # child's part as it is copied in
    def test_writer_holds_a_block(self, tmp_path, monkeypatch, transform):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
        assert report_io._row_ranges(transform.grid.count)[1] < transform.grid.count
        assert traced_peak_mib(lambda: write_signal_csv(transform, tmp_path / "h.csv")) < 8.0

    # through the sidecar (test_reader_holds_less_than_the_file is tighter)
    def test_reader_holds_the_bytes_once(self, tmp_path, transform):
        p = tmp_path / "h.csv"
        write_signal_csv(transform, p)
        assert Path(f"{p}.rows").is_file()
        assert traced_peak_mib(lambda: read_signal_csv(p)) < 16.0

    def test_parse_holds_the_bytes_once(self, tmp_path, transform):
        p = tmp_path / "h.csv"
        write_signal_csv(transform, p)
        _without_sidecar(p)
        assert traced_peak_mib(lambda: read_signal_csv(p)) < 16.0

    # the sidecar check streams the CSV and never holds a copy of it
    def test_reader_holds_less_than_the_file(self, tmp_path, transform):
        p = tmp_path / "h.csv"
        write_signal_csv(transform, p)
        assert traced_peak_mib(lambda: read_signal_csv(p)) < p.stat().st_size / 2 ** 20

    # the payload, read once; the chunk buffer that hashed the CSV is freed first
    def test_sidecar_check_holds_the_payload(self, tmp_path, transform):
        p = tmp_path / "h.csv"
        write_signal_csv(transform, p)
        payload = 16 * transform.grid.count
        assert Path(f"{p}.rows").stat().st_size == len(b"hwl-rows-3\n") + 32 + payload
        cap = (payload + report_io._COPY_CHUNK / 2) / 2 ** 20
        assert traced_peak_mib(lambda: report_io._sidecar_rows(p)) < cap

    # a chunk buffer and its views, no whole-file copy
    def test_digest_holds_a_chunk(self, tmp_path, transform):
        p = tmp_path / "h.csv"
        write_signal_csv(transform, p)
        assert traced_peak_mib(lambda: cli._digest(p)) <= 2 * report_io._COPY_CHUNK / 2 ** 20

    # the fine and the coarse resolution's arrays are never live together
    def test_sobolev_profile_holds_one_resolution(self, transform):
        gammas = [0, 0.75, 1.5, 2, 2.75, 3, 3.25, 4]  # analyze sobolev's default
        assert traced_peak_mib(lambda: analysis.smoothness_profile(transform, gammas)) < 12.0


def sample_reports(grid):
    psi = sample(make_spline_wavelet(3), grid)
    hpsi = hilbert_spectral(psi)
    return {
        "moment_report": analysis.moments(psi, 4, tolerance=1e-6),
        "decay_fit": analysis.fit_decay(hpsi, (4.0, 12.0)),
        "bound_certificate": analysis.theorem_certificate(psi, hpsi, 4),
        "sobolev_estimate": analysis.smoothness_profile(psi, [0.0, 1.0, 3.25, 4.0]),
    }


# the record kinds of CLI runs, as ``(kind, fields)``
SAMPLE_RECORDS = {
    "hilbert_run": {"method": "spectral", "pad_factor": 16},
    "bedrosian_residual": {"residual": 1.5e-7},
    "tail_limit": {"probe_value": 0.3167, "predicted": 1 / math.pi},
    "partition_deviation": {"max_abs_central": 2.2e-16, "min_abs_central": 0.0},
}


class TestReportJson:
    def test_round_trip_all_kinds(self, tmp_path, grid_16):
        reports = {**sample_reports(grid_16),
                   **{kind: (kind, fields) for kind, fields in SAMPLE_RECORDS.items()}}
        assert len(reports) == 8
        for kind, report in reports.items():
            p = tmp_path / f"{kind}.json"
            write_report_json(report, p, input_digest="abc123", extra={"pass": True})
            payload = json.loads(p.read_text())
            assert payload["kind"] == kind
            assert payload["tool_version"].startswith("hwl ")
            assert payload["input_digest"] == "abc123"
            back = read_report_json(p)
            if kind in SAMPLE_RECORDS:
                assert back == {**payload, **SAMPLE_RECORDS[kind], "pass": True}
            else:
                assert back == report

    def test_deterministic_bytes(self, tmp_path, grid_16):
        report = sample_reports(grid_16)["decay_fit"]
        p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
        write_report_json(report, p1, input_digest="d")
        write_report_json(report, p2, input_digest="d")
        assert p1.read_bytes() == p2.read_bytes()

    def test_certificate_carries_both_constants(self, tmp_path, grid_16):
        cert = sample_reports(grid_16)["bound_certificate"]
        p = tmp_path / "cert.json"
        write_report_json(cert, p)
        payload = json.loads(p.read_text())
        assert "empirical_constant" in payload
        assert "empirical_constant_doubled" in payload

    def test_unknown_kind_rejected(self, tmp_path):
        p = tmp_path / "bad.json"
        p.write_text(json.dumps({"kind": "mystery", "fields": 1}))
        with pytest.raises(SchemaError, match="unknown report kind"):
            read_report_json(p)

    @pytest.mark.parametrize("payload", [[1, 2], {"exponent": 2.0}, {"kind": 3}, "decay_fit"],
                             ids=["list", "no-kind", "kind-not-a-string", "string"])
    def test_object_without_kind_rejected(self, tmp_path, payload):
        p = tmp_path / "bad.json"
        p.write_text(json.dumps(payload))
        with pytest.raises(SchemaError, match="must carry a 'kind'"):
            read_report_json(p)

    @pytest.mark.parametrize("report", [object(), ("mystery", {}), ("tail_limit",), {}],
                             ids=["object", "unknown-record", "short-tuple", "dict"])
    def test_unknown_report_type_rejected(self, tmp_path, report):
        with pytest.raises(SchemaError, match="unknown report type"):
            write_report_json(report, tmp_path / "w.json")
        assert not (tmp_path / "w.json").exists()

    def test_missing_fields_rejected(self, tmp_path):
        p = tmp_path / "short.json"
        p.write_text(json.dumps({"kind": "decay_fit", "exponent": 2.0}))
        with pytest.raises(SchemaError, match="missing"):
            read_report_json(p)
        p.write_text(json.dumps({"kind": "tail_limit", "probe_value": 0.3}))
        with pytest.raises(SchemaError, match="missing fields: \\['predicted'\\]"):
            read_report_json(p)
        with pytest.raises(SchemaError, match="missing"):
            write_report_json(("tail_limit", {"probe_value": 0.3}), tmp_path / "w.json")
        assert not (tmp_path / "w.json").exists()

    def test_non_finite_field_refused(self, tmp_path):
        # theorem_certificate refuses the all-zero psi that gave these NaNs
        cert = analysis.BoundCertificate(theorem="T2(2)", norm_bundle={"mixed(f)": 0.0},
                                         empirical_constant=math.nan,
                                         empirical_constant_doubled=math.nan, stable=False)
        p = tmp_path / "cert.json"
        with pytest.raises(SchemaError, match="empirical_constant,"):
            write_report_json(cert, p)
        with pytest.raises(SchemaError, match="not finite: parameters$"):
            write_report_json(("bedrosian_residual", {"residual": 0.0}), p,
                              extra={"parameters": {"gammas": [0.0, math.inf]}})
        assert not p.exists()

    def test_reader_refuses_bytes_that_are_not_utf8(self, tmp_path):
        p = tmp_path / "latin1.json"
        p.write_bytes(b'{"kind": "bedrosian_residual", "residual": 0.5, "note": "\xff"}')
        with pytest.raises(SchemaError, match="not valid JSON: 'utf-8' codec"):
            read_report_json(p)

    def test_reader_refuses_non_standard_tokens(self, tmp_path):
        p = tmp_path / "nan.json"
        p.write_text('{"kind": "bedrosian_residual", "residual": NaN}')
        with pytest.raises(SchemaError, match="strict JSON: NaN"):
            read_report_json(p)

    def test_numpy_scalars_serialize(self, tmp_path):
        p = tmp_path / "np.json"
        write_report_json(("bedrosian_residual", {"residual": np.float32(0.5)}), p,
                          extra={"pass": np.bool_(True), "parameters": {"k": np.int64(4)}})
        payload = read_report_json(p)
        assert payload["residual"] == 0.5
        assert payload["pass"] is True and payload["parameters"] == {"k": 4}

    def test_numpy_arrays_serialize(self, tmp_path):
        p = tmp_path / "arr.json"
        write_report_json(("bedrosian_residual", {"residual": np.float64(0.5)}), p,
                          extra={"parameters": {"gammas": np.array([0.0, 1.5]),
                                                "k": np.arange(4).reshape(2, 2)}})
        payload = json.loads(p.read_text(encoding="utf-8"))
        assert payload["parameters"] == {"gammas": [0.0, 1.5], "k": [[0, 1], [2, 3]]}
        # a non-finite array entry names its field, and anything else is refused
        with pytest.raises(SchemaError, match="parameters"):
            write_report_json(("bedrosian_residual", {"residual": 0.5}), tmp_path / "nan.json",
                              extra={"parameters": np.array([np.nan])})
        with pytest.raises(TypeError, match="cannot serialize"):
            write_report_json(("bedrosian_residual", {"residual": object()}),
                              tmp_path / "obj.json")
        assert not (tmp_path / "nan.json").exists() and not (tmp_path / "obj.json").exists()

    def test_extra_fields_cannot_shadow_schema(self, tmp_path, grid_16):
        report = sample_reports(grid_16)["decay_fit"]
        with pytest.raises(InvalidParameterError):
            write_report_json(report, tmp_path / "x.json", extra={"exponent": 0.0})
        with pytest.raises(InvalidParameterError):
            write_report_json(("tail_limit", {"probe_value": 0.3, "predicted": 0.3,
                                              "input_digest": "x"}), tmp_path / "x.json")


class TestFigures:
    def _curve_count(self, path):
        root = ET.parse(path).getroot()
        return len(root.findall(".//{http://www.w3.org/2000/svg}polyline"))

    def test_multi_panel_figure(self, tmp_path, grid_8):
        panels = []
        for d in range(4):
            sig = sample(make_spline_wavelet(d), grid_8)
            panels.append(PanelSpec(
                curves=((sig, "original"), (hilbert_spectral(sig), "transformed")),
                title=f"degree {d}",
            ))
        p = tmp_path / "fig3.svg"
        render_figure(panels, p)
        assert self._curve_count(p) == 8

    def test_kernel_panel_clipped(self, tmp_path):
        step = 2.0 ** -8
        g = Grid(-4.0 + step / 2, step, int(8 / step))
        x = g.abscissas()
        kern = SampledSignal(g, 1.0 / (np.pi * x))
        p = tmp_path / "fig2.svg"
        render_figure([PanelSpec(curves=((kern, "kernel"),), y_range=(-5.0, 5.0))], p)
        root = ET.parse(p).getroot()  # well-formed XML
        assert root.tag.endswith("svg")

    # a flat panel lost its 1e-12 pad to rounding at 600 and divided by
    # zero; a panel spanning +-1e308 overflowed its width
    @pytest.mark.parametrize("values", [[0.0] * 3, [1.0] * 3, [600.0] * 3, [-2000.0] * 3,
                                        [1e300] * 3, [-1e308, 0.0, 1e308]],
                             ids=["0", "1", "600", "-2000", "1e300", "+-1e308"])
    def test_auto_y_range_of_any_finite_panel(self, tmp_path, values):
        sig = SampledSignal(Grid(-1.0, 1.0, 3), np.array(values))
        p = tmp_path / "flat.svg"
        render_figure([PanelSpec(curves=((sig, "original"),))], p)
        points = ET.parse(p).getroot().find(".//{http://www.w3.org/2000/svg}polyline")
        ys = [float(pair.split(",")[1]) for pair in points.get("points").split()]
        top = report_io._MARGIN
        assert all(top <= y <= top + report_io._PANEL_H for y in ys), ys

    def test_empty_panel_list_rejected(self, tmp_path):
        with pytest.raises(InvalidParameterError):
            render_figure([], tmp_path / "empty.svg")
        assert not (tmp_path / "empty.svg").exists()

    def test_unknown_role_rejected(self, grid_8):
        sig = sample(make_bspline_scaling(1), grid_8)
        with pytest.raises(InvalidParameterError):
            PanelSpec(curves=((sig, "dashed"),))

    # render_figure took the minimum of no abscissas
    def test_empty_panel_rejected(self):
        with pytest.raises(InvalidParameterError, match="at least one curve"):
            PanelSpec(curves=())

    # an empty range divides by zero, NaN writes "nan" coordinates, an
    # infinite end or width warns, and lo > hi flips the plot
    @pytest.mark.parametrize("y_range", [(1.0, 1.0), (math.nan, 1.0), (0.0, math.inf),
                                         (-1e308, 1e308), (5.0, -5.0), (0.0,), ("0", "1")])
    def test_bad_y_range_rejected(self, grid_8, y_range):
        sig = sample(make_bspline_scaling(1), grid_8)
        with pytest.raises(InvalidParameterError, match="y_range"):
            PanelSpec(curves=((sig, "original"),), y_range=y_range)

    @pytest.mark.parametrize("figure_id", sorted(cli.FIGURES))
    def test_points_template_writes_the_formatted_bytes(self, tmp_path, monkeypatch,
                                                        figure_id):
        panels = cli.FIGURES[figure_id]()
        render_figure(panels, tmp_path / "template.svg")
        monkeypatch.setattr(report_io, "_polyline", _polyline_reference)
        render_figure(panels, tmp_path / "reference.svg")
        assert (tmp_path / "template.svg").read_bytes() == \
            (tmp_path / "reference.svg").read_bytes()


def _polyline_reference(x, y, x0, x1, y0, y1, ox, oy) -> str:
    """SVG points formatted one NumPy scalar at a time: the reference for
    the one-template ``_polyline``."""
    stride = max(1, len(x) // report_io._MAX_POINTS)
    xs = x[::stride]
    ys = np.clip(y[::stride], y0, y1)
    px = ox + (xs - x0) / (x1 - x0) * report_io._PANEL_W
    py = oy + report_io._PANEL_H - (ys - y0) / (y1 - y0) * report_io._PANEL_H
    return " ".join(f"{a:.2f},{b:.2f}" for a, b in zip(px, py))
