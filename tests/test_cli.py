import contextlib
import errno
import io
import os
import subprocess
import sys
import wave
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gbtmark import (AttackSpec, AudioSignal, WatermarkImage, embed, psnr, read_pbm,
                     read_wav, write_key, write_pbm, write_wav)
from gbtmark.attacks import ATTACKS
from gbtmark.audio import _BLOCK, _energies, _frames, _store, _values
from gbtmark.cli import build_parser, main
from gbtmark.synth import speech_like
from gbtmark.transform import GraphConfig
from gbtmark.watermark import EmbedParams, _mark

from conftest import EDITS, mutate, random_watermark, with_wav_edit_examples
from test_attacks import BAD_ENCODE_TEMPLATES, fake_codec
from test_fileio import with_chunk_past_the_end, with_rate, write_raw_wav
from test_numbers import LISTED


def run_cli(argv):
    """Invoke the CLI in-process; normalize SystemExit to a status code."""
    try:
        return main([str(a) for a in argv])
    except SystemExit as exc:
        return int(exc.code) if exc.code is not None else 0


@pytest.fixture()
def workspace(tmp_path):
    host = tmp_path / "host.wav"
    watermark = tmp_path / "wm.pbm"
    write_wav(host, speech_like(3.0, 8000, seed=2))
    write_pbm(watermark, random_watermark())
    return tmp_path


def test_embed_extract_cycle(workspace, capsys):
    marked = workspace / "marked.wav"
    key = workspace / "marked.key"
    out_pbm = workspace / "recovered.pbm"

    status = run_cli(["embed", workspace / "host.wav", workspace / "wm.pbm",
                      marked, key])
    out = capsys.readouterr().out
    assert status == 0
    assert marked.exists() and key.exists()
    psnr_line = next(line for line in out.splitlines() if line.startswith("psnr:"))
    assert float(psnr_line.split()[1]) >= 35.0
    assert "payload: 800 bits/s" in out

    status = run_cli(["extract", marked, key, out_pbm,
                      "--reference", workspace / "wm.pbm"])
    out = capsys.readouterr().out
    assert status == 0
    assert "ber: 0.000000" in out
    original = read_pbm(workspace / "wm.pbm")
    recovered = read_pbm(out_pbm)
    assert np.array_equal(recovered.bits, original.bits)


def _clipping_host():
    # peak-normalised, then driven half again past full scale and clipped
    samples = speech_like(3.0, 8000, seed=2).samples
    return AudioSignal(np.clip(1.5 * samples / np.abs(samples).max(), -1, 1), 8000)


def _loud_host():
    # peak-normalised to 0.99 (32 440 codes): the samples embed leaves as
    # they are span codes above 16 384 too, which the WAV must keep exactly
    samples = speech_like(3.0, 8000, seed=2).samples
    return AudioSignal(0.99 * samples / np.abs(samples).max(), 8000)


@pytest.mark.parametrize("make_host", [
    lambda: speech_like(3.0, 8000, seed=2),
    _clipping_host,
    lambda: AudioSignal(speech_like(3.0, 8000, seed=2).samples[:-5], 8000),
], ids=["default", "clipping", "partial-last-frame"])
def test_embed_psnr_from_the_changed_frames(make_host, tmp_path, capsys):
    # one owner: _mark's report of the frames it changed is embed's quality
    # and the line the CLI prints; psnr over the whole signal agrees with it
    # up to the order of the sum
    path, mark = tmp_path / "host.wav", tmp_path / "wm.pbm"
    write_wav(path, make_host())
    write_pbm(mark, random_watermark())
    host = read_wav(path)
    result = embed(host, random_watermark())
    samples = host.samples.copy()  # _store writes the marked frames into it
    key, marked, quality = _mark(samples, host.sample_rate, random_watermark(),
                                 EmbedParams())
    _store(_frames(samples, 10), key.frame_indices, marked)
    assert np.array_equal(samples, result.signal.samples)
    assert quality == result.quality  # a dataclass: field for field, exactly
    whole = psnr(host, result.signal)
    assert abs(result.quality.mse - whole.mse) <= 4 * np.spacing(whole.mse)
    assert run_cli(["embed", path, mark, tmp_path / "m.wav", tmp_path / "m.key"]) == 0
    assert (capsys.readouterr().out.splitlines()[0]
            == f"psnr: {result.quality.psnr_db:.2f} dB")
    if make_host is _clipping_host:
        assert np.abs(result.signal.samples).max() == 1.0  # embed clipped


def _every_code_host():
    # each of the 65 536 int16 codes, which write_wav writes exactly: 700
    # frames at -32768 outrank every other frame and take the 625 bits (the
    # first 625 of the tie), so the ramp of all codes after them is written
    # unkeyed, -32768, +-16384, +-16385 and 32767 included
    codes = np.concatenate([np.full(7000, -32768), np.arange(-32768, 32768)])
    return AudioSignal(codes / 32768, 8000)


@pytest.mark.parametrize("make_host", [
    lambda: speech_like(3.0, 8000, seed=2),
    _clipping_host,
    lambda: AudioSignal(speech_like(3.0, 8000, seed=2).samples[:-5], 8000),
    _loud_host,
    _every_code_host,
], ids=["default", "clipping", "partial-last-frame", "loud", "every-code"])
def test_cli_embed_writes_write_wav_of_embed(make_host, tmp_path):
    # the CLI writes its WAV from the host's codes and the marked frames;
    # the bytes are write_wav's of the library's signal, loud samples and
    # clips too
    path, mark = tmp_path / "host.wav", tmp_path / "wm.pbm"
    write_wav(path, make_host())
    write_pbm(mark, random_watermark())
    out = tmp_path / "m.wav"
    assert run_cli(["embed", path, mark, out, tmp_path / "m.key"]) == 0
    write_wav(tmp_path / "lib.wav", embed(read_wav(path), read_pbm(mark)).signal)
    assert out.read_bytes() == (tmp_path / "lib.wav").read_bytes()


def test_cli_embed_over_its_own_host(workspace):
    # the WAV is staged from the host's map and replaces the host only once
    # it is complete, so an embed that writes over the host file gives the
    # bytes of a fresh path
    host, mark = workspace / "host.wav", workspace / "wm.pbm"
    fresh, fresh_key = workspace / "fresh.wav", workspace / "fresh.key"
    assert run_cli(["embed", host, mark, fresh, fresh_key]) == 0
    assert run_cli(["embed", host, mark, host, workspace / "same.key"]) == 0
    assert host.read_bytes() == fresh.read_bytes()
    assert (workspace / "same.key").read_bytes() == fresh_key.read_bytes()


def snapshot(folder):
    """Every file in the folder with its bytes."""
    return {path.name: path.read_bytes() for path in folder.iterdir() if path.is_file()}


def test_cli_embed_writes_the_key_first(workspace):
    # a key that cannot be written fails the embed before the marked WAV
    # is written, so an embed over its own host leaves the host as it was
    before = snapshot(workspace)
    argv = ["embed", workspace / "host.wav", workspace / "wm.pbm", workspace / "host.wav",
            workspace / "missing" / "k.key"]
    assert run_cli(argv) == 2
    assert snapshot(workspace) == before


@pytest.mark.parametrize("argv", [
    ["embed", "host.wav", "wm.pbm", "missing/out.wav", "out.key"],
    ["embed", "host.wav", "wm.pbm", "folder", "out.key"],
    ["attack", "crop", "host.wav", "missing/out.wav", "--fraction", "0.1"],
], ids=["embed", "embed-over-a-folder", "attack"])
def test_cli_wav_output_that_cannot_be_opened_exits_2(workspace, capsys, monkeypatch,
                                                      argv):
    # a WAV output that cannot be made fails with one error line, no
    # half-made wave writer raising again when it is collected, and, as
    # every output is staged, no key, no temporary and no other file changed
    (workspace / "folder").mkdir()
    monkeypatch.chdir(workspace)
    before = snapshot(workspace)
    assert run_cli(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("gbtmark: error: ") and err.count("\n") == 1
    assert snapshot(workspace) == before


@pytest.mark.parametrize(("argv", "work"), [
    (["embed", "host.wav", "wm.pbm", "missing/out.wav", "out.key"], "gbtmark.cli._mark"),
    (["extract", "m.wav", "m.key", "missing/out.pbm"], "gbtmark.cli._read_bits"),
    (["attack", "awgn", "host.wav", "missing/out.wav", "--snr", "30"],
     "gbtmark.attacks.AttackSpec.apply"),
    (["benchmark", "corpus", "wm.pbm", "missing/out.csv"], "gbtmark.cli.run_benchmark"),
], ids=["embed", "extract", "attack", "benchmark"])
def test_cli_output_that_cannot_be_made_fails_before_the_work(workspace, monkeypatch,
                                                               argv, work):
    # the outputs are staged before the command's work runs, so a target
    # in a missing folder exits 2 without running it, and leaves no file
    monkeypatch.chdir(workspace)
    assert run_cli(["embed", "host.wav", "wm.pbm", "m.wav", "m.key"]) == 0
    (workspace / "corpus").mkdir()
    write_wav(workspace / "corpus" / "clip.wav", speech_like(2.0, 8000, seed=1))
    calls = []
    monkeypatch.setattr(work, lambda *args, **kwargs: calls.append(args))
    before = snapshot(workspace), snapshot(workspace / "corpus")
    assert run_cli(argv) == 2
    assert calls == []
    assert (snapshot(workspace), snapshot(workspace / "corpus")) == before


def _torn_write(path, *args):
    # writes the start of a file, then fails as a full disk would
    Path(path).write_bytes(b"RIFF")
    raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))


@pytest.mark.parametrize(("argv", "writer"), [
    (["embed", "host.wav", "wm.pbm", "out", "k.key"], "_write_pcm"),
    (["embed", "host.wav", "wm.pbm", "host.wav", "k.key"], "_write_pcm"),
    (["attack", "crop", "host.wav", "out", "--fraction", "0.1"], "write_wav"),
    (["extract", "m.wav", "m.key", "out"], "write_pbm"),
], ids=["embed", "embed-over-its-host", "attack", "extract"])
def test_cli_write_that_fails_changes_no_file(workspace, monkeypatch, argv, writer):
    # a write cut short leaves every target as it was, embed's key
    # unwritten and its host intact, and no temporary
    monkeypatch.chdir(workspace)
    assert run_cli(["embed", "host.wav", "wm.pbm", "m.wav", "m.key"]) == 0
    (workspace / "out").write_bytes(b"old")
    monkeypatch.setattr(f"gbtmark.cli.{writer}", _torn_write)
    before = snapshot(workspace)
    assert run_cli(argv) == 2
    assert snapshot(workspace) == before


def test_cli_embed_writes_through_a_symlink(workspace):
    # the link stays a link, and the file it points to gets the marked bytes
    target, link = workspace / "old" / "target.wav", workspace / "link.wav"
    target.parent.mkdir()
    target.write_bytes(b"old")
    link.symlink_to(target)
    host, mark = workspace / "host.wav", workspace / "wm.pbm"
    assert run_cli(["embed", host, mark, link, workspace / "link.key"]) == 0
    assert run_cli(["embed", host, mark, workspace / "m.wav", workspace / "m.key"]) == 0
    assert link.is_symlink() and os.readlink(link) == str(target)
    assert target.read_bytes() == (workspace / "m.wav").read_bytes()


def test_cli_outputs_have_plain_open_permissions(workspace):
    # a staged output is made with open's mode under the umask, as a plain
    # write would make it, not a private temporary file's 0600
    previous = os.umask(0o027)
    try:
        (workspace / "plain").open("wb").close()
        assert run_cli(["embed", workspace / "host.wav", workspace / "wm.pbm",
                        workspace / "m.wav", workspace / "m.key"]) == 0
    finally:
        os.umask(previous)
    mode = (workspace / "plain").stat().st_mode
    assert mode & 0o777 == 0o640
    for name in ("m.wav", "m.key"):
        assert (workspace / name).stat().st_mode == mode


def test_cli_success_leaves_no_temporary(workspace, monkeypatch):
    # each command's folder holds its inputs and its outputs, nothing more
    monkeypatch.chdir(workspace)
    corpus = workspace / "corpus"
    corpus.mkdir()
    write_wav(corpus / "clip.wav", speech_like(2.0, 8000, seed=1))
    names = {path.name for path in workspace.iterdir()}
    for argv, outputs in (
            (["embed", "host.wav", "wm.pbm", "m.wav", "m.key"], {"m.wav", "m.key"}),
            (["attack", "awgn", "m.wav", "a.wav", "--snr", "30"], {"a.wav"}),
            (["extract", "a.wav", "m.key", "out.pbm"], {"out.pbm"}),
            (["benchmark", "corpus", "wm.pbm", "grid.csv"], {"grid.csv"})):
        assert run_cli(argv) == 0
        names |= outputs
        assert {path.name for path in workspace.iterdir()} == names
    assert [path.name for path in corpus.iterdir()] == ["clip.wav"]


@pytest.mark.parametrize(("out_wav", "out_key"), [
    ("out", "out"), ("out.wav", "./sub/../out.wav"), ("out.wav", "alias/out.wav"),
    ("out.wav", "host.wav"), ("out.wav", "link.wav"), ("out.wav", "wm.pbm"),
    ("wm.pbm", "out.key"),
])
def test_cli_embed_refuses_an_output_on_another_path(workspace, capsys, out_wav,
                                                     out_key):
    # the key on the WAV output (by name, or through a symlinked folder), the
    # host (by name or through a hard link) or the watermark, and the WAV on
    # the watermark, exit 1 writing nothing
    (workspace / "sub").mkdir()
    (workspace / "alias").symlink_to(workspace, target_is_directory=True)
    os.link(workspace / "host.wav", workspace / "link.wav")
    before = snapshot(workspace)
    argv = ["embed", workspace / "host.wav", workspace / "wm.pbm", workspace / out_wav,
            workspace / out_key]
    assert run_cli(argv) == 1
    assert "is the same file as" in capsys.readouterr().err
    assert snapshot(workspace) == before


@pytest.mark.parametrize("target", ["wav", "key", "reference"])
def test_cli_extract_refuses_an_output_on_an_input(workspace, capsys, target):
    # the PBM written over the WAV, the key or the reference would replace
    # an input
    files = {"wav": workspace / "m.wav", "key": workspace / "m.key",
             "reference": workspace / "wm.pbm"}
    assert run_cli(["embed", workspace / "host.wav", files["reference"], files["wav"],
                    files["key"]]) == 0
    capsys.readouterr()
    before = snapshot(workspace)
    argv = ["extract", files["wav"], files["key"], files[target],
            "--reference", files["reference"]]
    assert run_cli(argv) == 1
    assert "is the same file as" in capsys.readouterr().err
    assert snapshot(workspace) == before


@pytest.mark.parametrize("target", ["wm.pbm", "corpus/clip.wav", "link.csv"])
def test_cli_benchmark_refuses_an_output_on_an_input(workspace, capsys, target):
    # the CSV over the watermark or a corpus clip (by name or through a hard
    # link) would replace that input; it exits 1 before reading any file
    corpus = workspace / "corpus"
    corpus.mkdir()
    write_wav(corpus / "clip.wav", speech_like(2.0, 8000, seed=1))
    os.link(corpus / "clip.wav", workspace / "link.csv")
    before = snapshot(workspace), snapshot(corpus)
    argv = ["benchmark", corpus, workspace / "wm.pbm", workspace / target]
    assert run_cli(argv) == 1
    assert "is the same file as" in capsys.readouterr().err
    assert (snapshot(workspace), snapshot(corpus)) == before


def test_cli_extract_checks_the_reference_before_writing(workspace, capsys):
    # a missing, malformed or wrongly sized reference writes no PBM
    wav, key, out = workspace / "m.wav", workspace / "m.key", workspace / "out.pbm"
    assert run_cli(["embed", workspace / "host.wav", workspace / "wm.pbm", wav, key]) == 0
    (workspace / "bad.pbm").write_text("P1\n2 2\n0 1\n")
    write_pbm(workspace / "small.pbm", WatermarkImage(2, 2, [0, 1, 1, 0]))
    for reference, status in (("missing.pbm", 2), ("bad.pbm", 2), ("small.pbm", 1)):
        assert run_cli(["extract", wav, key, out, "--reference",
                        workspace / reference]) == status
        assert not out.exists()


def with_seam_examples(test):
    # hosts one frame short of, at and one frame past the first seam, at
    # the smallest, the default and the two largest frame sizes
    for frame_size in (3, 10, 1023, 1024):
        for end in ("-size", "0", "+size"):
            test = example(frame_size=frame_size, seams=1, end=end, loud=[], spread=[],
                           level=20_000, seed=0)(test)
    return test


# The CLI's embed sums the energies of the host's codes, as integers, a
# block of whole frames at a time, _BLOCK samples rounded down to whole
# frames; they must equal the library's, bit for bit. Hosts end at and
# around the first or second seam, with full-scale frames, which take the
# bits, around the first (on both sides of it when the host reaches past
# it) and anywhere.
@settings(max_examples=30)
@with_seam_examples
@given(frame_size=st.sampled_from([3, 10, 16, 1023, 1024]),
       seams=st.integers(1, 2),
       end=st.sampled_from(["-size", "-1", "0", "+1", "+size", "+size+half"]),
       loud=st.lists(st.integers(-3, 2), max_size=3),
       spread=st.lists(st.floats(0, 1), max_size=3),
       level=st.sampled_from([200, 20_000]),
       seed=st.integers(0, 2**16))
def test_cli_embed_matches_the_library_across_block_seams(
        tmp_path_factory, frame_size, seams, end, loud, spread, level, seed):
    seam = max(_BLOCK // frame_size, 1) * frame_size
    length = seams * seam + {"-size": -frame_size, "-1": -1, "0": 0, "+1": 1,
                             "+size": frame_size,
                             "+size+half": frame_size + frame_size // 2}[end]
    rng = np.random.default_rng(seed)
    pcm = rng.integers(-level, level + 1, length)
    # constant frames louder than any noise frame, the first all -32768 and
    # the rest at either sign's full scale or one step inside it; the ones
    # the host holds in whole carry one bit each
    total = length // frame_size
    frames = sorted({seam // frame_size + at for at in loud + [-2, -1, 0]}
                    & set(range(total)) | {int(at * (total - 1)) for at in spread})
    for n, index in enumerate(frames):
        pcm[index * frame_size:(index + 1) * frame_size] = (
            rng.choice([-32768, -32767, 32766, 32767]) if n else -32768)
    codes = _frames(pcm.astype("<i2"), frame_size)
    assert np.array_equal(_energies(codes), _energies(_values(codes)))
    folder = tmp_path_factory.getbasetemp() / "seam"  # each example overwrites the last
    folder.mkdir(exist_ok=True)
    path, mark = folder / "host.wav", folder / "wm.pbm"
    write_raw_wav(path, pcm.tolist())
    watermark = WatermarkImage(len(frames), 1, rng.integers(0, 2, len(frames)))
    write_pbm(mark, watermark)
    argv = ["embed", path, mark, folder / "m.wav", folder / "m.key",
            "--frame-size", frame_size]
    printed = io.StringIO()
    with contextlib.redirect_stdout(printed):
        assert run_cli(argv) == 0
    host = read_wav(path)
    result = embed(host, watermark, EmbedParams(graph=GraphConfig(frame_size=frame_size)))
    assert list(result.key.frame_indices) == frames
    write_wav(folder / "lib.wav", result.signal)
    write_key(folder / "lib.key", result.key)
    assert (folder / "m.wav").read_bytes() == (folder / "lib.wav").read_bytes()
    assert (folder / "m.key").read_bytes() == (folder / "lib.key").read_bytes()
    assert printed.getvalue().splitlines()[0] == (
        f"psnr: {psnr(host, result.signal).psnr_db:.2f} dB")


def test_embed_capacity_error(workspace, capsys):
    short = workspace / "short.wav"
    write_wav(short, speech_like(0.5, 8000, seed=3))  # 400 frames < 625 bits
    status = run_cli(["embed", short, workspace / "wm.pbm",
                      workspace / "m.wav", workspace / "m.key"])
    err = capsys.readouterr().err
    assert status == 1
    assert "625" in err and "eligible" in err


def test_embed_missing_watermark_file(workspace, capsys):
    status = run_cli(["embed", workspace / "host.wav", workspace / "nope.pbm",
                      workspace / "m.wav", workspace / "m.key"])
    assert status == 2


def test_extract_rate_mismatch(workspace, capsys):
    marked = workspace / "marked.wav"
    key = workspace / "marked.key"
    run_cli(["embed", workspace / "host.wav", workspace / "wm.pbm", marked, key])
    write_wav(marked, AudioSignal(read_wav(marked).samples, 16000))
    capsys.readouterr()
    status = run_cli(["extract", marked, key, workspace / "out.pbm"])
    assert status == 1
    assert "16000" in capsys.readouterr().err


def test_extract_corrupt_key(workspace, capsys):
    marked = workspace / "marked.wav"
    key = workspace / "marked.key"
    run_cli(["embed", workspace / "host.wav", workspace / "wm.pbm", marked, key])
    capsys.readouterr()
    text = key.read_text()
    key.write_text(text[:100])
    status = run_cli(["extract", marked, key, workspace / "out.pbm"])
    assert status == 2
    # keys that address no frame or a frame counted from the end
    lines = text.splitlines()
    header, records = lines[:9], lines[9:]
    negative = header + [f"-5 {records[0].split()[1]}"] + records[1:]
    empty = [line.replace("wm_width 25", "wm_width 0") for line in header]
    # a reference that would read one bit the same on any signal
    nan = header + [f"{records[0].split()[0]} nan"] + records[1:]
    # one non-ASCII byte in a header value
    utf8 = [header[0] + "\u00b5"] + header[1:] + records
    # settings no embed accepts: an infinite edge weight or strength
    inf_w1 = [line.replace("w1 1.0", "w1 inf") for line in header] + records
    inf_ws = [line.replace("ws 0.05", "ws inf") for line in header] + records
    # a sample rate no signal has
    zero_rate = [line.replace("sample_rate 8000", "sample_rate 0")
                 for line in header] + records
    negative_rate = [line.replace("sample_rate 8000", "sample_rate -8000")
                     for line in header] + records
    # a frame size whose basis would not fit in memory
    huge_frame = ["frame_size 10000000" if line == "frame_size 10" else line
                  for line in header] + records
    # indices numpy can hold only as floats, which index no frame
    float_indices = header + records[:-1] + [f"{2**63} {records[-1].split()[1]}"]
    # a watermark far larger than the key's records
    huge_width = [line.replace("wm_width 25", f"wm_width {2**70}") for line in header]
    for bad in (negative, empty, nan, utf8, inf_w1, inf_ws, zero_rate, negative_rate,
                huge_frame, float_indices, huge_width + records):
        key.write_text("\n".join(bad) + "\n", encoding="utf-8")
        status = run_cli(["extract", marked, key, workspace / "out.pbm"])
        assert status == 2
        # every key error names the key file
        assert f"gbtmark: error: {key}: " in capsys.readouterr().err


def test_extract_frame_far_past_the_signal(workspace):
    # a frame that far out is all zeros, so its bit reads 0; the index is
    # compared with the frame count, never multiplied by the frame size,
    # so the largest index a key holds does not overflow
    marked = workspace / "marked.wav"
    key = workspace / "marked.key"
    out_pbm = workspace / "out.pbm"
    run_cli(["embed", workspace / "host.wav", workspace / "wm.pbm", marked, key])
    lines = key.read_text().splitlines()
    for index in (2**50, 2**63 - 1):
        lines[-1] = f"{index} {lines[-1].split()[1]}"
        key.write_text("\n".join(lines) + "\n")
        assert run_cli(["extract", marked, key, out_pbm]) == 0
        assert read_pbm(out_pbm).bits[-1] == 0


def test_attack_awgn_deterministic(workspace):
    marked = workspace / "host.wav"
    a = workspace / "a.wav"
    b = workspace / "b.wav"
    for out in (a, b):
        assert run_cli(["attack", "awgn", marked, out,
                        "--snr", 20, "--seed", 7]) == 0
    assert a.read_bytes() == b.read_bytes()
    assert run_cli(["attack", "awgn", marked, b, "--snr", 20, "--seed", 8]) == 0
    assert a.read_bytes() != b.read_bytes()


def test_attack_awgn_negative_seed(workspace, capsys):
    status = run_cli(["attack", "awgn", workspace / "host.wav", workspace / "n.wav",
                      "--snr", 10, "--seed", -1])
    assert status == 1
    assert "seed must be a non-negative integer" in capsys.readouterr().err


def test_attack_crop_preserves_length(workspace):
    out = workspace / "cropped.wav"
    assert run_cli(["attack", "crop", workspace / "host.wav", out,
                    "--fraction", 0.2]) == 0
    assert len(read_wav(out)) == len(read_wav(workspace / "host.wav"))


def test_attack_unit_gain_copies_full_scale_pcm(tmp_path):
    # a read and a write keep every code, -32768 and 32767 included
    path, out = tmp_path / "full.wav", tmp_path / "out.wav"
    codes = np.arange(-32768, 32768)
    write_raw_wav(path, codes.tolist())
    assert run_cli(["attack", "amplitude_scale", path, out, "--factor", 1.0]) == 0
    with wave.open(str(out), "rb") as handle:
        assert handle.readframes(handle.getnframes()) == codes.astype("<i2").tobytes()


# each kind's option and one valid value for it, none a grid default
CLI_PARAMETERS = {"awgn": ("--snr", 15.0), "mp3": ("--bitrate", 32),
                  "lowpass": ("--cutoff", 3000.0), "highpass": ("--cutoff", 100.0),
                  "resample": ("--rate", 6000), "requantize": ("--bits", 8),
                  "amplitude_scale": ("--factor", 0.8), "crop": ("--fraction", 0.25)}


def test_attack_requires_its_parameter(workspace, capsys):
    status = run_cli(["attack", "lowpass", workspace / "host.wav",
                      workspace / "out.wav"])
    assert status == 1
    assert ("the following arguments are required: --cutoff"
            in capsys.readouterr().err)
    for kind, (flag, _) in CLI_PARAMETERS.items():
        status = run_cli(["attack", kind, workspace / "host.wav",
                          workspace / "out.wav"])
        assert status == 1
        assert flag in capsys.readouterr().err


@pytest.mark.parametrize("kind", ATTACKS)
def test_attack_writes_what_the_spec_writes(kind, workspace, monkeypatch, tmp_path):
    codec = fake_codec(tmp_path)
    monkeypatch.setenv("GBTMARK_CODEC_ENCODE", codec.encode_template)
    monkeypatch.setenv("GBTMARK_CODEC_DECODE", codec.decode_template)
    flag, value = CLI_PARAMETERS[kind]
    out = workspace / "cli.wav"
    assert run_cli(["attack", kind, workspace / "host.wav", out, flag, value]) == 0
    expected = workspace / "spec.wav"
    host = read_wav(workspace / "host.wav")
    write_wav(expected, AttackSpec(kind, value).apply(host, codec=codec))
    assert out.read_bytes() == expected.read_bytes()


def test_attack_validation_failure(workspace, capsys):
    status = run_cli(["attack", "lowpass", workspace / "host.wav",
                      workspace / "out.wav", "--cutoff", 6000])
    assert status == 1
    # integer options take integers only, and mp3 only its bitrates
    for kind, flag, value in (("mp3", "--bitrate", 48), ("mp3", "--bitrate", "32.0"),
                              ("requantize", "--bits", "8.7"), ("awgn", "--snr", 4000)):
        status = run_cli(["attack", kind, workspace / "host.wav",
                          workspace / "out.wav", flag, value])
        assert status == 1


def test_attack_malformed_wav_is_format_error(workspace, capsys):
    host = (workspace / "host.wav").read_bytes()
    empty = bytearray(host[:44])
    empty[40:44] = bytes(4)  # the data chunk's size
    for name, data, message in (("cut.wav", host[:-1], "mid-sample"),
                                ("empty.wav", bytes(empty), "no samples")):
        (workspace / name).write_bytes(data)
        status = run_cli(["attack", "crop", workspace / name,
                          workspace / "out.wav", "--fraction", 0.1])
        assert status == 2
        assert message in capsys.readouterr().err


def test_wav_chunk_past_the_end_or_huge_rate_exits_2(workspace, capsys):
    key = workspace / "marked.key"
    assert run_cli(["embed", workspace / "host.wav", workspace / "wm.pbm",
                    workspace / "marked.wav", key]) == 0
    host = (workspace / "host.wav").read_bytes()
    bad = workspace / "bad.wav"
    for data in (with_chunk_past_the_end(host), with_rate(host, 2**31)):
        bad.write_bytes(data)
        capsys.readouterr()
        for argv in (["extract", bad, key, workspace / "out.pbm"],
                     ["attack", "amplitude_scale", bad, workspace / "out.wav",
                      "--factor", 0.5],
                     ["embed", bad, workspace / "wm.pbm", workspace / "m.wav",
                      workspace / "m.key"]):
            assert run_cli(argv) == 2
            assert "gbtmark: error:" in capsys.readouterr().err


@pytest.fixture(scope="module")
def small_inputs(tmp_path_factory):
    """A 0.5 s marked WAV, its key and its 4x4 mark, for the mutation property."""
    folder = tmp_path_factory.mktemp("small")
    write_wav(folder / "host.wav", speech_like(0.5, 8000, seed=2))
    write_pbm(folder / "wm.pbm", random_watermark(4, 4))
    assert run_cli(["embed", folder / "host.wav", folder / "wm.pbm",
                    folder / "marked.wav", folder / "marked.key"]) == 0
    return folder


# each CLI call takes a few ms; an edited key frame_size can build a
# 1024-sample basis, which takes far longer, so the examples are bounded
@settings(max_examples=150)
@with_wav_edit_examples(target="marked.wav")
@given(target=st.sampled_from(["marked.wav", "wm.pbm", "marked.key"]), edit=EDITS)
def test_cli_exits_cleanly_on_mutated_inputs(small_inputs, target, edit):
    folder = small_inputs
    files = {name: folder / name for name in ("marked.wav", "wm.pbm", "marked.key")}
    files[target] = folder / f"mutated-{target}"
    files[target].write_bytes(mutate((folder / target).read_bytes(), edit))
    wav, pbm, key = files.values()
    for argv in (["extract", wav, key, folder / "out.pbm", "--reference", pbm],
                 ["attack", "amplitude_scale", wav, folder / "out.wav", "--factor", 0.5],
                 ["embed", wav, pbm, folder / "out.wav", folder / "out.key"]):
        if files[target] in argv:
            assert run_cli(argv) in (0, 1, 2)


@pytest.fixture(scope="module")
def short_clip(tmp_path_factory):
    """A 0.1 s 8 kHz clip, for the attack-argument property."""
    folder = tmp_path_factory.mktemp("short")
    write_wav(folder / "clip.wav", speech_like(0.1, 8000, seed=3))
    return folder


def _with_attack_examples(test):
    # every kind at 10**9 (a resample rate of 7.5 GiB on a 1 s clip),
    # and each bad template behind a bitrate that reaches the codec
    for kind in ATTACKS:
        test = example(kind=kind, value=10**9, template=None)(test)
    for template in BAD_ENCODE_TEMPLATES:
        test = example(kind="mp3", value=64, template=template)(test)
    return test


@_with_attack_examples
@given(kind=st.sampled_from(sorted(ATTACKS)), value=st.sampled_from(LISTED + (10**9,)),
       template=st.sampled_from((None,) + BAD_ENCODE_TEMPLATES))
def test_cli_attack_argument_never_escapes_as_a_traceback(short_clip, kind, value,
                                                          template):
    # an attack argument ends in success, a usage error (argparse's own
    # exit 1 included) or a missing codec, never in an uncaught exception
    argv = ["attack", kind, short_clip / "clip.wav", short_clip / "out.wav",
            f"--{ATTACKS[kind].flag}", value]
    if kind == "mp3" and template is not None:
        argv += ["--codec-encode", template]
    assert run_cli(argv) in (0, 1, 3)


def test_attack_unknown_kind_is_usage_error(workspace, capsys):
    status = run_cli(["attack", "echo", workspace / "host.wav",
                      workspace / "out.wav"])
    assert status == 1


def test_attack_mp3_without_codec(workspace, capsys, monkeypatch):
    monkeypatch.delenv("GBTMARK_CODEC_ENCODE", raising=False)
    monkeypatch.delenv("GBTMARK_CODEC_DECODE", raising=False)
    status = run_cli(["attack", "mp3", workspace / "host.wav",
                      workspace / "out.wav", "--bitrate", 32,
                      "--codec-encode", "no-such-encoder {input} {output} {bitrate}",
                      "--codec-decode", "no-such-decoder {input} {output}"])
    err = capsys.readouterr().err
    assert status == 3
    assert "not found" in err


def test_attack_mp3_decoder_rate_mismatch(workspace, tmp_path, capsys):
    codec = fake_codec(tmp_path, rate=16000)
    status = run_cli(["attack", "mp3", workspace / "host.wav", workspace / "mp3.wav",
                      "--bitrate", 64, "--codec-encode", codec.encode_template,
                      "--codec-decode", codec.decode_template])
    assert status == 3
    assert "decoder returned 16000 Hz audio" in capsys.readouterr().err
    assert not (workspace / "mp3.wav").exists()


def test_attack_mp3_with_codec_from_environment(workspace, monkeypatch, tmp_path):
    codec = fake_codec(tmp_path)
    monkeypatch.setenv("GBTMARK_CODEC_ENCODE", codec.encode_template)
    monkeypatch.setenv("GBTMARK_CODEC_DECODE", codec.decode_template)
    out = workspace / "mp3.wav"
    assert run_cli(["attack", "mp3", workspace / "host.wav", out,
                    "--bitrate", 64]) == 0
    assert len(read_wav(out)) == len(read_wav(workspace / "host.wav"))


@pytest.mark.parametrize("label", ["encode", "decode"])
def test_attack_mp3_empty_codec_flag_is_refused(workspace, monkeypatch, tmp_path,
                                                capsys, label):
    # a given template wins even when empty: neither the environment's
    # working codec nor the lame default stands in for it
    codec = fake_codec(tmp_path)
    monkeypatch.setenv("GBTMARK_CODEC_ENCODE", codec.encode_template)
    monkeypatch.setenv("GBTMARK_CODEC_DECODE", codec.decode_template)
    status = run_cli(["attack", "mp3", workspace / "host.wav", workspace / "mp3.wav",
                      "--bitrate", 64, f"--codec-{label}", ""])
    assert status == 1
    assert f"{label} template is missing placeholders" in capsys.readouterr().err
    assert not (workspace / "mp3.wav").exists()


def test_benchmark_small_corpus(workspace, tmp_path, capsys):
    corpus = tmp_path / "corpus"
    corpus.mkdir()
    for seed in (1, 2):
        write_wav(corpus / f"clip{seed}.wav", speech_like(2.0, 8000, seed=seed))
    csv_path = tmp_path / "bench.csv"

    status = run_cli(["benchmark", corpus, workspace / "wm.pbm", csv_path,
                      "--seed", 0, "--markdown"])
    out = capsys.readouterr().out
    assert status == 0
    assert "| Attack | Parameter |" in out

    lines = csv_path.read_text().splitlines()
    assert lines[0] == "# gbtmark benchmark"
    assert "seed=0" in lines[1]
    assert lines[2] == "file,attack,parameter,ber,psnr_embed"
    mean_none = next(line for line in lines if line.startswith("mean,none"))
    assert mean_none.split(",")[3] == "0.000000"
    # no codec configured: every mp3 row is skipped, suite still works
    mp3_rows = [line for line in lines if ",mp3," in line]
    assert mp3_rows and all("skipped" in row for row in mp3_rows)
    # crop rows are reported, not asserted against
    crop_rows = [line for line in lines if line.startswith("mean,crop")]
    assert len(crop_rows) == 2
    for row in crop_rows:
        float(row.split(",")[3])  # parses as a number

    # byte-identical rerun
    again = tmp_path / "bench2.csv"
    assert run_cli(["benchmark", corpus, workspace / "wm.pbm", again,
                    "--seed", 0]) == 0
    capsys.readouterr()
    assert again.read_bytes() == csv_path.read_bytes()

    # the header names every embedding setting, so other settings show
    other = tmp_path / "bench_w2.csv"
    assert run_cli(["benchmark", corpus, workspace / "wm.pbm", other,
                    "--seed", 0, "--w2", 0.5]) == 0
    header = other.read_text().splitlines()[1]
    for name in ("ws=", "frame_size=", "coeff_fraction=", "w1=", "w2="):
        assert f" {name}" in header
    assert " w2=0.5 " in header
    assert header != lines[1]


def test_benchmark_negative_seed(workspace, tmp_path, capsys):
    corpus = tmp_path / "corpus"
    corpus.mkdir()
    write_wav(corpus / "clip.wav", speech_like(2.0, 8000, seed=1))
    csv_path = tmp_path / "bench.csv"
    status = run_cli(["benchmark", corpus, workspace / "wm.pbm", csv_path,
                      "--seed", -1])
    assert status == 1
    assert "seed must be a non-negative integer" in capsys.readouterr().err
    assert not csv_path.exists()


def test_benchmark_writes_names_as_utf8(workspace, tmp_path, capsys):
    # a name UTF-8 can encode is written as it; one holding an undecodable
    # byte (a lone surrogate in Python) is refused before any file is read,
    # and no CSV is left behind
    for name, status in (("voix_é.wav", 0), (os.fsdecode(b"x\xff.wav"), 1)):
        corpus = tmp_path / f"corpus{status}"
        corpus.mkdir()
        write_wav(corpus / name, speech_like(2.0, 8000, seed=1))
        csv_path = tmp_path / f"bench{status}.csv"
        assert run_cli(["benchmark", corpus, workspace / "wm.pbm", csv_path]) == status
        err = capsys.readouterr().err
        if status == 0:
            rows = csv_path.read_bytes().decode("utf-8").splitlines()
            assert rows[3].startswith("voix_é.wav,none,,0.000000,")
        else:
            assert "cannot be written as UTF-8" in err
            assert not csv_path.exists()


def test_attack_help_states_the_limits_apply_enforces(capsys):
    # the rows of ATTACKS give the help and the error messages one text;
    # each kind's help shows its own option and rule
    for kind, wanted in (
            ("lowpass", "--cutoff CUTOFF cutoff in Hz, finite, > 0 and at most Nyquist "
                        "(half the signal's rate)"),
            ("highpass", "--cutoff CUTOFF cutoff in Hz, finite, > 0 and below Nyquist "
                         "(half the signal's rate)"),
            ("resample", "--rate RATE intermediate rate in Hz, an integer > 0, at most "
                         "4x the signal's rate, whose ratio to that rate reduces to "
                         "terms <= 65536")):
        assert run_cli(["attack", kind, "--help"]) == 0
        assert wanted in " ".join(capsys.readouterr().out.split())
    assert run_cli(["attack", "--help"]) == 0
    listed = capsys.readouterr().out.split()
    assert all(kind in listed for kind in ATTACKS)


# options a kind does not take: each other kind's option, --seed but on
# awgn and the codec templates but on mp3
STRAY_OPTIONS = [
    (kind, stray) for kind in ATTACKS for stray in (
        [CLI_PARAMETERS[other] for other in ATTACKS
         if ATTACKS[other].flag != ATTACKS[kind].flag]
        + ([("--seed", 4)] if kind != "awgn" else [])
        + ([("--codec-encode", "nonsense"), ("--codec-decode", "nonsense")]
           if kind != "mp3" else []))]


@pytest.mark.parametrize(("kind", "stray"), STRAY_OPTIONS)
def test_attack_refuses_another_kinds_option(kind, stray, workspace, capsys):
    out = workspace / "out.wav"
    status = run_cli(["attack", kind, workspace / "host.wav", out,
                      *CLI_PARAMETERS[kind], *stray])
    assert status == 1
    err = capsys.readouterr().err
    assert f"unrecognized arguments: {stray[0]}" in err
    # the kind's own parser refuses it, so the message names the kind
    assert f"usage: gbtmark attack {kind} " in err
    assert f"gbtmark attack {kind}: error: " in err
    assert not out.exists()


def test_parser_is_built_once():
    assert build_parser() is build_parser()


def test_attack_mp3_reads_the_codec_environment_per_call(workspace, monkeypatch,
                                                          tmp_path, capsys):
    # the parser is shared, so each call must still read its own template
    codec = fake_codec(tmp_path)
    monkeypatch.setenv("GBTMARK_CODEC_DECODE", codec.decode_template)
    argv = ["attack", "mp3", workspace / "host.wav", workspace / "mp3.wav",
            "--bitrate", 64]
    for encoder in ("no-such-encoder-1", "no-such-encoder-2"):
        monkeypatch.setenv("GBTMARK_CODEC_ENCODE", f"{encoder} {{input}} {{output}} "
                                                   f"{{bitrate}}")
        assert run_cli(argv) == 3
        assert f"encode command not found: {encoder!r}" in capsys.readouterr().err
    monkeypatch.setenv("GBTMARK_CODEC_ENCODE", codec.encode_template)
    assert run_cli(argv) == 0
    assert (workspace / "mp3.wav").exists()


def test_benchmark_empty_corpus(workspace, tmp_path, capsys):
    corpus = tmp_path / "empty"
    corpus.mkdir()
    status = run_cli(["benchmark", corpus, workspace / "wm.pbm",
                      tmp_path / "x.csv"])
    assert status == 1


def test_module_entry_point_usage_error():
    proc = subprocess.run([sys.executable, "-m", "gbtmark"],
                          capture_output=True, text=True)
    assert proc.returncode == 1


def test_custom_embedding_flags(workspace, capsys):
    marked = workspace / "m16.wav"
    key = workspace / "m16.key"
    status = run_cli(["embed", workspace / "host.wav", workspace / "wm.pbm",
                      marked, key, "--frame-size", 16, "--ws", 0.08,
                      "--coeff-fraction", 0.5, "--w2", 0.2])
    assert status == 0
    assert "payload: 500 bits/s" in capsys.readouterr().out
    out_pbm = workspace / "r16.pbm"
    assert run_cli(["extract", marked, key, out_pbm,
                    "--reference", workspace / "wm.pbm"]) == 0
    assert "ber: 0.000000" in capsys.readouterr().out
