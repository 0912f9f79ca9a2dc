"""Span recording for the gbtmark benchmark.

The benchmark does not change gbtmark. To see inside an operation it
rebinds public names at the places where gbtmark looks them up (a module
attribute, or a method on a class) to a wrapper that records a span:
name, start, end, parent span and an optional work count. Spans stay in
memory; ``summarize`` turns them into per-layer rows afterwards.

A point whose name no longer exists is listed in ``Tracer.absent``
instead of raising, so the benchmark keeps running across refactors.
"""

import importlib
import os
from time import perf_counter
from typing import NamedTuple


class Span(NamedTuple):
    op: int          # operation the span belongs to
    name: str
    start: float     # perf_counter seconds
    end: float
    parent: int      # index of the enclosing span, -1 at the top
    work: int        # bits, frames or bytes handled; 0 when not counted


class Point(NamedTuple):
    module: str      # module holding the name, e.g. "gbtmark.cli"
    attr: str        # dotted name in it, e.g. "embed" or "AttackSpec.apply"
    label: object    # span name, or a function of the call's args giving it
    work: object     # None, or a function (args, result) -> int


def _bits_embedded(args, result):
    return len(result.key.records)


def _bits_extracted(args, result):
    return int(result.bits.size)


def _frames_scanned(args, result):
    # select_frames(signal, params, bit_count, plan)
    return len(args[0]) // args[3].frame_size


def _file_bytes(args, result):
    return os.path.getsize(args[0])


def _attack_label(args):
    return f"attacks.{args[0].kind}"


def _fileio_points(module):
    return [Point(module, name, f"fileio.{name}", _file_bytes)
            for name in ("read_wav", "write_wav", "read_pbm", "write_pbm",
                         "read_key", "write_key")]


# Every name is rebound where it is looked up: cli and benchmark import
# the library functions by name, and embed/extract find make_plan and
# select_frames in their own module. The per-bit helpers embed_bit and
# extract_bit are deliberately not wrapped: they run once per bit, so a
# wrapper would distort what it measures; per-bit cost shows up as the
# self time of watermark.embed and watermark.extract.
TRACE_POINTS = [
    Point("gbtmark.cli", "main", "cli.main", None),
    Point("gbtmark.cli", "embed", "watermark.embed", _bits_embedded),
    Point("gbtmark.cli", "extract", "watermark.extract", _bits_extracted),
    Point("gbtmark.cli", "psnr", "metrics.psnr", None),
    Point("gbtmark.cli", "ber", "metrics.ber", None),
    *_fileio_points("gbtmark.cli"),
    Point("gbtmark.benchmark", "run_benchmark", "benchmark.run_benchmark", None),
    Point("gbtmark.benchmark", "report_to_csv", "benchmark.report_to_csv", None),
    Point("gbtmark.benchmark", "embed", "watermark.embed", _bits_embedded),
    Point("gbtmark.benchmark", "extract", "watermark.extract", _bits_extracted),
    Point("gbtmark.benchmark", "psnr", "metrics.psnr", None),
    Point("gbtmark.benchmark", "ber", "metrics.ber", None),
    Point("gbtmark.benchmark", "read_wav", "fileio.read_wav", _file_bytes),
    Point("gbtmark.watermark", "make_plan", "transform.make_plan", None),
    Point("gbtmark.watermark", "select_frames", "watermark.select_frames",
          _frames_scanned),
    Point("gbtmark.attacks", "AttackSpec.apply", _attack_label, None),
]

# The two calls whose per-call wall times give the attack grid's
# embed_cal and extract_cal: 2 + 26 wrapped calls per grid of about a second.
GRID_PHASE_POINTS = [
    Point("gbtmark.benchmark", "embed", "watermark.embed", None),
    Point("gbtmark.benchmark", "extract", "watermark.extract", None),
]


def _count(work, args, result):
    if work is None:
        return 0
    try:
        return work(args, result)
    except (AttributeError, IndexError, TypeError, OSError):
        # the wrapped signature changed; the span stays, uncounted
        return 0


class Tracer:
    """Rebinds a list of points while active and records their spans."""

    def __init__(self, points):
        self.points = points
        self.spans = []
        self.absent = []
        self.op = 0
        self._stack = []
        self._originals = []

    def __enter__(self):
        self.absent = []
        for point in self.points:
            owner, name = self._resolve(point)
            if owner is None:
                self.absent.append(f"{point.module}.{point.attr}")
                continue
            original = getattr(owner, name)
            self._originals.append((owner, name, original))
            setattr(owner, name, self._wrap(original, point))
        return self

    def __exit__(self, *exc):
        while self._originals:
            owner, name, original = self._originals.pop()
            setattr(owner, name, original)
        return False

    @staticmethod
    def _resolve(point):
        try:
            owner = importlib.import_module(point.module)
        except ImportError:
            return None, None
        *path, name = point.attr.split(".")
        for part in path:
            owner = getattr(owner, part, None)
        if owner is None or not callable(getattr(owner, name, None)):
            return None, None
        return owner, name

    def _wrap(self, fn, point):
        spans, stack = self.spans, self._stack
        label, work = point.label, point.work

        def traced(*args, **kwargs):
            name = label(args) if callable(label) else label
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                spans[index] = Span(self.op, name, start, perf_counter(), parent, 0)
                raise
            finally:
                stack.pop()
            end = perf_counter()
            spans[index] = Span(self.op, name, start, end, parent,
                                _count(work, args, result))
            return result

        return traced

    def take(self):
        """Return the recorded spans and start a fresh list."""
        spans = list(self.spans)
        self.spans.clear()
        return spans


class Row(NamedTuple):
    calls: int
    busy: float      # seconds inside the span
    self_time: float  # busy minus time in direct child spans
    work: int


def summarize(spans):
    """Per-name totals of calls, busy time, self time and work."""
    totals = {}
    child_time = {}
    for span in spans:
        duration = span.end - span.start
        calls, busy, work = totals.get(span.name, (0, 0.0, 0))
        totals[span.name] = (calls + 1, busy + duration, work + span.work)
        if span.parent >= 0:
            parent = spans[span.parent].name
            child_time[parent] = child_time.get(parent, 0.0) + duration
    return {name: Row(calls, busy, busy - child_time.get(name, 0.0), work)
            for name, (calls, busy, work) in totals.items()}
