"""Golden outputs of the gbtmark CLI: what each command writes and prints
on fixed inputs, and how the outputs of a new run compare with the
committed record ``tests/golden.json``.

    PYTHONPATH=src python tests/golden.py

rewrites the record. A change that moves an output on purpose runs it
in the same commit and says in CHANGES.md which entries moved and why.

The inputs are 2 s ``speech_like`` clips at 8 and 16 kHz and one 16x16
mark. For each clip the record holds ``gbtmark embed``'s stdout, WAV and
key at the defaults and at ``--coeff-fraction 0.6`` (six coefficients,
so the SVD path), and ``gbtmark extract``'s PBM and stdout for both.
The WAV of every non-mp3 ``gbtmark attack`` kind on the default marked
8 kHz WAV follows (PCM hardly compresses, and the attacks at 16 kHz
would double the record's size). ``gbtmark benchmark --markdown`` over both clips adds its CSV and
markdown; its mp3 rows are skipped, because the encoder it names does
not exist.

Entries are compared by kind. Text (stdout, PBM, CSV, markdown, the
key's header lines), key frame indices, WAV headers and PCM samples
must match exactly. A key's ``s_max`` values come from BLAS and LAPACK
arithmetic, whose last bits differ between builds, so each may differ
by ``S_MAX_ULPS`` units in the last place of the recorded value. The
basis's column signs do not depend on the build: each column's lead row
is the lowest within a tolerance of its largest magnitude, so rounding
in ``eigh`` does not pick between a chain's mirror rows.
"""

import base64
import contextlib
import io
import json
import lzma
import operator
import sys
from pathlib import Path

import numpy as np

from gbtmark import WatermarkImage, write_pbm, write_wav
from gbtmark.cli import main
from gbtmark.synth import speech_like

RECORD = Path(__file__).with_name("golden.json")
S_MAX_ULPS = 4
CLIPS = {"8k": 8000, "16k": 16000}
ATTACKED_CLIP = "8k"
CLIP_SECONDS = 2.0
CLIP_SEED = 5
MARK_SEED = 7
SETTINGS = {"default": [], "coeff0.6": ["--coeff-fraction", "0.6"]}
ATTACKS = {"awgn": ["--snr", "20", "--seed", "3"], "lowpass": ["--cutoff", "3000"],
           "highpass": ["--cutoff", "100"], "resample": ["--rate", "6000"],
           "requantize": ["--bits", "8"], "amplitude_scale": ["--factor", "0.7"],
           "crop": ["--fraction", "0.2"]}
# an encoder that is nowhere on the PATH, so every mp3 row is skipped
ABSENT_CODEC = ["--codec-encode", "gbtmark-golden-absent-encoder {input} {output} "
                                  "{bitrate}"]
WAV_HEADER_BYTES = 44  # write_wav's header: RIFF, fmt and the data chunk's header


def _run(argv):
    # one in-process CLI call; its exit status and what it printed
    printed = io.StringIO()
    with contextlib.redirect_stdout(printed):
        status = main([str(arg) for arg in argv])
    if status != 0:
        raise RuntimeError(f"gbtmark {' '.join(map(str, argv))} exited {status}")
    return printed.getvalue()


def _wav(path):
    data = path.read_bytes()
    return {"kind": "wav", "header": data[:WAV_HEADER_BYTES].hex(),
            "pcm": np.frombuffer(data[WAV_HEADER_BYTES:], "<i2").tolist()}


def _key(path):
    lines = path.read_text(encoding="ascii").splitlines()
    records = [line.split() for line in lines if line[0].isdigit()]
    return {"kind": "key",
            "header": [line for line in lines if not line[0].isdigit()],
            "indices": [int(index) for index, _ in records],
            "s_max": [float(s_max) for _, s_max in records]}


def _text(text):
    return {"kind": "text", "lines": text.splitlines()}


def outputs(folder: Path) -> dict:
    """Run every recorded command in folder; the entries by name."""
    entries = {}
    mark = folder / "mark.pbm"
    bits = np.random.default_rng(MARK_SEED).integers(0, 2, 16 * 16)
    write_pbm(mark, WatermarkImage(16, 16, bits))
    corpus = folder / "corpus"
    corpus.mkdir()
    for clip, rate in CLIPS.items():
        host = corpus / f"{clip}.wav"
        write_wav(host, speech_like(CLIP_SECONDS, rate, seed=CLIP_SEED))
        for setting, flags in SETTINGS.items():
            name = f"{clip}/{setting}"
            marked, key, pbm = (folder / f"{clip}-{setting}.{ext}"
                                for ext in ("wav", "key", "pbm"))
            entries[f"{name}/embed stdout"] = _text(
                _run(["embed", host, mark, marked, key, *flags]))
            entries[f"{name}/marked wav"] = _wav(marked)
            entries[f"{name}/key"] = _key(key)
            entries[f"{name}/extract stdout"] = _text(
                _run(["extract", marked, key, pbm, "--reference", mark]))
            entries[f"{name}/extracted pbm"] = _text(pbm.read_text(encoding="ascii"))
    for kind, flags in ATTACKS.items():
        attacked = folder / f"{ATTACKED_CLIP}-{kind}.wav"
        _run(["attack", kind, folder / f"{ATTACKED_CLIP}-default.wav", attacked, *flags])
        entries[f"{ATTACKED_CLIP}/attack {kind} wav"] = _wav(attacked)
    csv = folder / "benchmark.csv"
    entries["benchmark markdown"] = _text(
        _run(["benchmark", corpus, mark, csv, "--markdown", *ABSENT_CODEC]))
    entries["benchmark csv"] = _text(csv.read_text(encoding="utf-8"))
    return entries


def _packed(entry):
    # PCM as base64 of xz-compressed int16 bytes, so the record stays small
    if entry["kind"] != "wav":
        return entry
    pcm = np.array(entry["pcm"], dtype="<i2").tobytes()
    return {**entry, "pcm": base64.b64encode(lzma.compress(pcm)).decode("ascii")}


def load() -> dict:
    """The committed record, PCM unpacked to lists of ints."""
    entries = json.loads(RECORD.read_text(encoding="utf-8"))
    for entry in entries.values():
        if entry["kind"] == "wav":
            pcm = lzma.decompress(base64.b64decode(entry["pcm"]))
            entry["pcm"] = np.frombuffer(pcm, "<i2").tolist()
    return entries


def _differences(label, got, want, equal):
    # the count of differing positions, and the first few of them
    if len(got) != len(want):
        return [f"{label}: {len(got)} values, recorded {len(want)}"]
    bad = [i for i, (g, w) in enumerate(zip(got, want)) if not equal(g, w)]
    if not bad:
        return []
    shown = ", ".join(f"[{i}] {got[i]!r} (recorded {want[i]!r})" for i in bad[:3])
    return [f"{label}: {len(bad)} of {len(want)} differ, first {shown}"]


def _within_ulps(got, want):
    return abs(got - want) <= S_MAX_ULPS * np.spacing(abs(want))


def _values(part):
    # a string (the entry's kind, a WAV header) is one value, a list many
    return [part] if isinstance(part, str) else list(part)


def compare(got: dict, want: dict) -> list:
    """One line per entry part that differs from the record."""
    problems = [f"{name}: missing" for name in want if name not in got]
    problems += [f"{name}: not in the record" for name in got if name not in want]
    for name in want.keys() & got.keys():
        for part, value in want[name].items():
            equal = _within_ulps if part == "s_max" else operator.eq
            problems += _differences(f"{name} {part}", _values(got[name][part]),
                                     _values(value), equal)
    return sorted(problems)


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as folder:
        entries = outputs(Path(folder))
    RECORD.write_text(json.dumps({name: _packed(entry) for name, entry
                                  in sorted(entries.items())}, indent=1) + "\n",
                      encoding="utf-8")
    print(f"wrote {RECORD} ({RECORD.stat().st_size} bytes, {len(entries)} entries)",
          file=sys.stderr)
