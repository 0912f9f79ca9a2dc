import struct
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gbtmark import AttackSpec, AudioSignal, read_pbm, read_wav, write_pbm, write_wav
from gbtmark.attacks import ATTACKS
from gbtmark.cli import main
from gbtmark.synth import speech_like

from conftest import random_watermark
from test_attacks import fake_codec
from test_fileio import with_chunk_past_the_end, with_rate


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
    # a frame size whose plan would not fit in memory
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
    # a frame that far out is all zeros, so its bit reads 0, and extract
    # pads the signal only up to its first all-zero frame
    marked = workspace / "marked.wav"
    key = workspace / "marked.key"
    out_pbm = workspace / "out.pbm"
    run_cli(["embed", workspace / "host.wav", workspace / "wm.pbm", marked, key])
    lines = key.read_text().splitlines()
    lines[-1] = f"{2**50} {lines[-1].split()[1]}"
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


# each kind's option and one valid value for it, none a grid default
CLI_PARAMETERS = {"awgn": ("--snr", 15.0), "mp3": ("--bitrate", 32),
                  "lowpass": ("--cutoff", 3000.0), "highpass": ("--cutoff", 100.0),
                  "resample": ("--rate", 6000), "requantize": ("--bits", 8),
                  "amplitude_scale": ("--factor", 0.8), "crop": ("--fraction", 0.25)}


def test_attack_requires_its_parameter(workspace, capsys):
    status = run_cli(["attack", "lowpass", workspace / "host.wav",
                      workspace / "out.wav"])
    assert status == 1
    assert "--cutoff" in capsys.readouterr().err
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


def mutate(data, edit):
    """Apply one (kind, position, argument) edit; positions wrap around."""
    kind, at, arg = edit
    at %= len(data)
    if kind == "flip":
        return data[:at] + bytes([data[at] ^ arg]) + data[at + 1:]
    if kind == "delete":
        return data[:at] + data[at + arg:]
    if kind == "insert":
        return data[:at] + arg + data[at:]
    return data[:at]  # truncate


# most edits land in a header: the WAV's is 44 bytes, the PBM's and key's
# text lines come first
_POSITIONS = st.integers(0, 64) | st.integers(0, 2**20)
_EDITS = st.one_of(
    st.tuples(st.just("flip"), _POSITIONS, st.integers(1, 255)),
    st.tuples(st.just("delete"), _POSITIONS, st.integers(1, 8)),
    st.tuples(st.just("insert"), _POSITIONS,
              st.lists(st.sampled_from(b"0123456789 \t\n\r\x0b\x0c\x1c\x1f"),
                       min_size=1, max_size=4).map(bytes)),
    # a chunk header of odd size: RIFF pads such a chunk to an even length
    st.tuples(st.just("insert"), _POSITIONS,
              st.builds(lambda name, half: name + struct.pack("<I", 2 * half + 1),
                        st.sampled_from([b"LIST", b"fmt ", b"data"]),
                        st.integers(0, 2**31 - 1))),
    st.tuples(st.just("truncate"), _POSITIONS, st.none()),
)


# each CLI call takes a few ms; an edited key frame_size can build a
# 1024-sample plan, which takes far longer, so the examples are bounded
@settings(max_examples=150)
@example(target="marked.wav", edit=("insert", 36, b"LIST" + struct.pack("<I", 10**6)))
@example(target="marked.wav", edit=("flip", 27, 0x80))  # sample rate 2**31 + 8000
@given(target=st.sampled_from(["marked.wav", "wm.pbm", "marked.key"]), edit=_EDITS)
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


def test_attack_mp3_with_codec_from_environment(workspace, monkeypatch, tmp_path):
    codec = fake_codec(tmp_path)
    monkeypatch.setenv("GBTMARK_CODEC_ENCODE", codec.encode_template)
    monkeypatch.setenv("GBTMARK_CODEC_DECODE", codec.decode_template)
    out = workspace / "mp3.wav"
    assert run_cli(["attack", "mp3", workspace / "host.wav", out,
                    "--bitrate", 64]) == 0
    assert len(read_wav(out)) == len(read_wav(workspace / "host.wav"))


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
