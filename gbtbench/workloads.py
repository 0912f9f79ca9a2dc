"""Workloads of the gbtmark benchmark: their inputs, the operation each
one repeats, and the correctness gates every operation must pass.

Inputs come only from the seed. Generate them with

    python gbtbench/workloads.py WORKLOAD SEED OUT_DIR [--tiny]

(``run.py`` does this in a child process, so that generating inputs
does not count towards the measured process's peak memory).
"""

import contextlib
import io
import sys
import traceback
from dataclasses import dataclass, replace
from pathlib import Path
from time import perf_counter

import numpy as np

import gbtmark.benchmark
import gbtmark.cli
from gbtmark import WatermarkImage, read_pbm, write_pbm, write_wav
from gbtmark.synth import speech_like

from spans import GRID_PHASE_POINTS, Tracer


@dataclass(frozen=True)
class Workload:
    kind: str            # "cli": embed + extract on files; "grid": attack grid
    host_s: float        # host length in seconds (each clip, for the grid)
    rate: int            # sample rate in Hz
    mark: tuple          # watermark width, height
    clips: int = 1


WORKLOADS = {
    # 10 000 bits in 48 000 frames: the per-bit embed/extract work and
    # the key text dominate
    "mark-dense": Workload("cli", 60.0, 8000, (100, 100)),
    # 1 024 bits in 480 000 frames: work scales with the host (frame
    # scan, WAV I/O), not with the payload
    "long-host": Workload("cli", 300.0, 16000, (32, 32)),
    # 2 clips x 13 attacks: 13 extracts per embed, and the only
    # workload where the attacks and the grid loop do real work
    "attack-grid": Workload("grid", 10.0, 8000, (40, 40), clips=2),
}

# Inputs small enough for the smoke test; same kinds of operation.
TINY = {name: replace(w, host_s=1.0, mark=(4, 4), clips=min(w.clips, 2))
        for name, w in WORKLOADS.items()}

# The default grid without its mp3 rows: the MP3 attack runs an external
# codec that is not part of the repository, so it is left unmeasured.
GRID = tuple(row for row in gbtmark.benchmark.DEFAULT_GRID if row[0] != "mp3")


def generate(workload: Workload, seed: int, out_dir: Path) -> None:
    """Write the watermark PBM and the host WAV (or clip corpus)."""
    out_dir.mkdir(parents=True, exist_ok=True)
    width, height = workload.mark
    bits = np.random.default_rng(seed).integers(0, 2, width * height)
    write_pbm(out_dir / "mark.pbm", WatermarkImage(width, height, bits))
    if workload.kind == "cli":
        write_wav(out_dir / "host.wav",
                  speech_like(workload.host_s, workload.rate, seed=seed))
        return
    corpus = out_dir / "corpus"
    corpus.mkdir(exist_ok=True)
    for i in range(workload.clips):
        clip = speech_like(workload.host_s, workload.rate,
                           seed=seed * workload.clips + i)
        write_wav(corpus / f"clip{i:02d}.wav", clip)


@dataclass
class Outcome:
    """What one operation took and whether its outputs were right."""

    start: float         # perf_counter seconds
    end: float
    embed: list          # (start, end) of each embed call
    extract: list        # (start, end) of each extract call
    problems: list       # gate failures; empty when the outputs are right

    @property
    def wall(self) -> float:
        return self.end - self.start


def cli_gate(embed_code, extract_code, extract_stdout, out_pbm: bytes,
             mark_pbm: bytes):
    """Problems with one CLI round trip: exit codes, clean BER, PBM bytes."""
    problems = []
    if embed_code != 0 or extract_code != 0:
        problems.append(f"exit codes embed={embed_code} extract={extract_code}")
    bers = [line.split()[1] for line in extract_stdout.splitlines()
            if line.startswith("ber:")]
    if len(bers) != 1 or float(bers[0]) != 0.0:
        problems.append(f"clean BER is not 0: {bers}")
    if out_pbm != mark_pbm:
        problems.append("extracted PBM differs from the embedded mark")
    return problems


def grid_gate(report, csv_text: str, first_csv: str):
    """Problems with one grid: every cell measured, clean row at BER 0,
    and the CSV byte-identical to the run's first one."""
    problems = []
    for row in report.rows:
        if row.skipped or any(b is None for b in row.bers):
            problems.append(f"row {row.attack} {row.parameter} skipped")
        if row.attack == "none" and any(b != 0.0 for b in row.bers):
            problems.append(f"clean row BER is not 0: {row.bers}")
    if csv_text != first_csv:
        problems.append("CSV differs from the first grid of this run")
    return problems


class CliRoundTrip:
    """``gbtmark embed`` then ``gbtmark extract --reference`` on files."""

    def __init__(self, work_dir: Path):
        self.host = work_dir / "host.wav"
        self.mark = work_dir / "mark.pbm"
        self.out_wav = work_dir / "marked.wav"
        self.out_key = work_dir / "marked.key"
        self.out_pbm = work_dir / "extracted.pbm"
        self.mark_bytes = self.mark.read_bytes()

    def run(self) -> Outcome:
        for path in (self.out_wav, self.out_key, self.out_pbm):
            path.unlink(missing_ok=True)
        printed = io.StringIO()
        with contextlib.redirect_stdout(printed):
            t0 = perf_counter()
            embed_code = gbtmark.cli.main(
                ["embed", str(self.host), str(self.mark),
                 str(self.out_wav), str(self.out_key)])
            t1 = perf_counter()
            extract_code = gbtmark.cli.main(
                ["extract", str(self.out_wav), str(self.out_key),
                 str(self.out_pbm), "--reference", str(self.mark)])
            t2 = perf_counter()
        out_pbm = self.out_pbm.read_bytes() if self.out_pbm.exists() else b""
        problems = cli_gate(embed_code, extract_code, printed.getvalue(),
                            out_pbm, self.mark_bytes)
        return Outcome(t0, t2, [(t0, t1)], [(t1, t2)], problems)

    def quality(self) -> dict:
        """PSNR of the last marked file against the host file."""
        host = gbtmark.read_wav(self.host)
        marked = gbtmark.read_wav(self.out_wav)
        return {"psnr_db": gbtmark.psnr(host, marked).psnr_db}


class AttackGrid:
    """``run_benchmark`` over the clip corpus, then ``report_to_csv``."""

    def __init__(self, work_dir: Path):
        self.corpus = work_dir / "corpus"
        self.mark = read_pbm(work_dir / "mark.pbm")
        self.first_csv = None
        self.report = None
        # times each embed/extract call inside the grid; two clock reads
        # per call, against calls that take milliseconds
        self.phases = Tracer(GRID_PHASE_POINTS)

    def run(self) -> Outcome:
        with self.phases:
            t0 = perf_counter()
            report = gbtmark.benchmark.run_benchmark(self.corpus, self.mark,
                                                     grid=GRID)
            csv_text = gbtmark.benchmark.report_to_csv(report)
            t1 = perf_counter()
        spans = self.phases.take()
        if self.first_csv is None:
            self.first_csv = csv_text
        self.report = report
        return Outcome(
            t0, t1,
            [(s.start, s.end) for s in spans if s.name == "watermark.embed"],
            [(s.start, s.end) for s in spans if s.name == "watermark.extract"],
            grid_gate(report, csv_text, self.first_csv))

    def quality(self) -> dict:
        """Mean embedding PSNR, mean BER over the rows, cells per grid."""
        rows = self.report.rows
        return {"psnr_db": float(np.mean(self.report.psnrs)),
                "grid_mean_ber": float(np.mean([r.mean_ber for r in rows])),
                "cells": sum(len(r.bers) for r in rows),
                "cells_measured": sum(b is not None for r in rows for b in r.bers)}


def make_operation(workload: Workload, work_dir: Path):
    return (CliRoundTrip if workload.kind == "cli" else AttackGrid)(work_dir)


def run_checked(operation) -> Outcome:
    """One operation; an exception counts as a failed operation."""
    try:
        return operation.run()
    except Exception:  # the benchmark keeps going and reports the failure
        traceback.print_exc()
        return Outcome(float("nan"), float("nan"), [], [], ["operation raised"])


if __name__ == "__main__":
    name, seed, out = sys.argv[1], int(sys.argv[2]), Path(sys.argv[3])
    table = TINY if "--tiny" in sys.argv[4:] else WORKLOADS
    generate(table[name], seed, out)
