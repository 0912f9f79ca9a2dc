"""The full evaluation table on a synthetic mini-corpus.

Generates a handful of clips, runs the complete attack grid over each
(embed, attack, extract), and renders the per-attack mean BER table
plus the raw CSV. MP3 rows run through the ``lame`` command-line tool
and report 'skipped' when it is not installed; ``run_benchmark`` takes
another encoder/decoder pair as a ``CodecCommand``, and the CLI reads
one from --codec-encode/--codec-decode or GBTMARK_CODEC_ENCODE/DECODE.

The command-line equivalent:

    gbtmark benchmark corpus/ watermark.pbm results.csv --seed 0 --markdown
"""

import tempfile
from pathlib import Path

import numpy as np

from gbtmark import (
    WatermarkImage,
    report_to_csv,
    report_to_markdown,
    run_benchmark,
    write_wav,
)
from gbtmark.synth import speech_like

workdir = Path(tempfile.mkdtemp(prefix="gbtmark_bench_"))
corpus = workdir / "corpus"
corpus.mkdir()

# ------------------------------------------------------------------
# 1. A mini corpus of distinct synthetic voices.
for seed in range(1, 6):
    write_wav(corpus / f"voice{seed}.wav", speech_like(3.0, 8000, seed=seed))
print(f"corpus of 5 clips in {corpus}")

# ------------------------------------------------------------------
# 2. One balanced random watermark for all of them.
rng = np.random.default_rng(7)
watermark = WatermarkImage(25, 25, rng.integers(0, 2, 625))

# ------------------------------------------------------------------
# 3. Embed + attack grid + extract for every clip.
report = run_benchmark(corpus, watermark, seed=0)

csv_path = workdir / "benchmark.csv"
csv_path.write_text(report_to_csv(report))
print(f"CSV written to {csv_path}\n")

print(report_to_markdown(report))
print(f"mean embedding PSNR over the corpus: "
      f"{float(np.mean(report.psnrs)):.2f} dB")
