"""Attack-grid benchmark: embed into every clip of a corpus, run each
attack, extract, and tabulate bit error rates."""

import csv
import io
import math
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .attacks import ATTACKS, AttackSpec, CodecCommand, _check_seed
from .errors import CodecError, ValidationError
from .fileio import read_wav
from .metrics import ber, psnr
from .watermark import EmbedParams, WatermarkImage, embed, extract

# Union of the attack parameters reported for this scheme; both 64/32
# and 32/16 kbps readings of the MP3 attack are covered. Each row is
# (label, spec), and a spec's label is its kind.
DEFAULT_GRID = (("none", None), *((spec.kind, spec) for spec in (
    AttackSpec("awgn", 20.0), AttackSpec("awgn", 10.0),
    AttackSpec("mp3", 64), AttackSpec("mp3", 32), AttackSpec("mp3", 16),
    AttackSpec("resample", 6000), AttackSpec("resample", 4000),
    AttackSpec("lowpass", 4000.0), AttackSpec("highpass", 50.0),
    AttackSpec("amplitude_scale", 0.9), AttackSpec("amplitude_scale", 0.7),
    AttackSpec("requantize", 24), AttackSpec("requantize", 8),
    AttackSpec("crop", 0.20), AttackSpec("crop", 0.30),
)))


@dataclass(frozen=True)
class BenchmarkRow:
    """Results of one attack across the whole corpus."""

    attack: str              # the grid label
    spec: AttackSpec | None  # the attack that ran; None for no attack
    bers: tuple              # one entry per file; None where skipped

    @property
    def parameter(self) -> str:
        # integral values print without a decimal point, others with
        # repr, so close parameters never share a label
        if self.spec is None:
            return ""
        value = float(self.spec.parameter)
        return str(int(value)) if value.is_integer() else repr(value)

    @property
    def skipped(self) -> bool:
        return None in self.bers

    @property
    def mean_ber(self) -> float | None:
        return None if self.skipped else float(np.mean(self.bers))


@dataclass(frozen=True)
class BenchmarkReport:
    """Per-attack BER table plus the settings that produced it."""

    files: tuple
    psnrs: tuple         # embedding PSNR per file
    rows: tuple
    params: EmbedParams
    seed: int


def run_benchmark(corpus_dir, watermark: WatermarkImage,
                  params: EmbedParams | None = None, seed: int = 0,
                  codec: CodecCommand | None = None,
                  grid=DEFAULT_GRID) -> BenchmarkReport:
    """Embed, attack and extract over every WAV file in a directory.

    Files are processed in name order. Each attack's seed (only awgn
    reads one) is offset by the file's position so clips get independent
    noise, reproducibly; a bad seed is refused before any file is read.
    MP3 rows turn into skipped entries when the codec is unavailable.
    """
    params = params if params is not None else EmbedParams()
    seed = _check_seed(seed)
    paths = sorted(Path(corpus_dir).glob("*.wav"))
    if not paths:
        raise ValidationError(f"no .wav files found in {corpus_dir}")

    psnrs = []
    table = [[] for _ in grid]
    for file_index, path in enumerate(paths):
        host = read_wav(path)
        marked = embed(host, watermark, params)
        psnrs.append(psnr(host, marked.signal).psnr_db)
        for row_index, (_, spec) in enumerate(grid):
            if spec is None:
                attacked = marked.signal
            else:
                try:
                    attacked = replace(spec, seed=seed + file_index).apply(
                        marked.signal, codec=codec)
                except CodecError:
                    table[row_index].append(None)
                    continue
            table[row_index].append(ber(watermark, extract(attacked, marked.key)))

    return BenchmarkReport(
        files=tuple(p.name for p in paths),
        psnrs=tuple(psnrs),
        rows=tuple(BenchmarkRow(label, spec, tuple(bers))
                   for (label, spec), bers in zip(grid, table)),
        params=params,
        seed=seed,
    )


def _format_ber(value):
    return "skipped" if value is None else f"{value:.6f}"


def _format_psnr(value):
    return "inf" if math.isinf(value) else f"{value:.2f}"


def report_to_csv(report: BenchmarkReport) -> str:
    """Render a report as CSV with a commented metadata header.

    Per-file rows come first (sorted by file name, then grid order),
    followed by one mean row per attack. The header's ``codec=`` reads
    ``unused`` when no row's attack takes a codec, ``missing`` when such
    a row was skipped, and ``available`` otherwise.
    """
    params, graph = report.params, report.params.graph
    codec_rows = [row for row in report.rows if row.spec is not None
                  and "codec" in ATTACKS[row.spec.kind].extras]
    codec = ("unused" if not codec_rows else
             "missing" if any(row.skipped for row in codec_rows) else "available")
    text = io.StringIO()
    text.write("# gbtmark benchmark\n"
               f"# ws={params.ws!r} frame_size={graph.frame_size} "
               f"coeff_fraction={params.coeff_fraction!r} w1={graph.w1!r} "
               f"w2={graph.w2!r} seed={report.seed} codec={codec}\n")
    # the writer quotes only the fields that need it (a file name with a
    # comma or a quote)
    writer = csv.writer(text, lineterminator="\n")
    writer.writerow(["file", "attack", "parameter", "ber", "psnr_embed"])
    for file_index, name in enumerate(report.files):
        for row in report.rows:
            writer.writerow([name, row.attack, row.parameter,
                             _format_ber(row.bers[file_index]),
                             _format_psnr(report.psnrs[file_index])])
    mean_psnr = _format_psnr(float(np.mean(report.psnrs)))
    for row in report.rows:
        writer.writerow(["mean", row.attack, row.parameter,
                         _format_ber(row.mean_ber), mean_psnr])
    return text.getvalue()


def report_to_markdown(report: BenchmarkReport) -> str:
    """Render the per-attack means as a human-readable table."""
    lines = [
        "| Attack | Parameter | Mean BER | Mean PSNR (dB) |",
        "|---|---|---|---|",
    ]
    mean_psnr = _format_psnr(float(np.mean(report.psnrs)))
    measured = [row.mean_ber for row in report.rows if not row.skipped]
    for row in report.rows:
        label = "skipped" if row.skipped else f"{row.mean_ber:.3f}"
        lines.append(f"| {row.attack} | {row.parameter} | {label} | {mean_psnr} |")
    if measured:
        lines.append(f"| average | | {float(np.mean(measured)):.3f} | |")
    return "\n".join(lines) + "\n"
