"""End-to-end checks of the command line interface.

Every test drives ``evasionlab.cli.main`` in-process with an argv list, so
exit codes and printed output are observable without spawning subprocesses.
"""

import io
import os

import pytest

from evasionlab.cli import main
from evasionlab.dataset import read_dataset
from evasionlab.pcapio import write_pcap
from evasionlab.synth import EvasionLabel

from helpers import handshake_trace, make_packet


@pytest.fixture(autouse=True)
def _no_ambient_config(monkeypatch):
    monkeypatch.delenv("EVASIONLAB_CONFIG", raising=False)


def synth_args(out, **overrides):
    """A small, fast synth invocation; overrides are extra argv pairs."""
    argv = [
        "synth",
        "--flows-per-class", "3",
        "--min-packets", "4",
        "--max-packets", "6",
        "--out", str(out),
    ]
    for flag, value in overrides.items():
        argv.append("--" + flag.replace("_", "-"))
        if value is not None:
            argv.append(str(value))
    return argv


@pytest.fixture(scope="module")
def small_dataset(tmp_path_factory):
    path = tmp_path_factory.mktemp("cli") / "small.neds"
    assert main(synth_args(path)) == 0
    return path


# -- exit codes ------------------------------------------------------------


def test_help_exits_zero(capsys):
    assert main(["--help"]) == 0
    assert "synth" in capsys.readouterr().out


def test_subcommand_help_exits_zero(capsys):
    assert main(["train", "--help"]) == 0
    assert "--optimizer" in capsys.readouterr().out


def test_missing_subcommand_is_usage_error(capsys):
    assert main([]) == 1
    assert "error" in capsys.readouterr().err


def test_unknown_flag_is_usage_error(tmp_path, capsys):
    assert main(synth_args(tmp_path / "x.neds") + ["--bogus"]) == 1
    assert "bogus" in capsys.readouterr().err


def test_frame_out_of_range_is_usage_error(tmp_path, capsys):
    rc = main(synth_args(tmp_path / "x.neds", frame=2))
    assert rc == 1
    assert "frame" in capsys.readouterr().err


def test_min_packets_below_frame_floor_is_usage_error(tmp_path, capsys):
    rc = main(synth_args(tmp_path / "x.neds", min_packets=2))
    assert rc == 1
    assert "--min-packets" in capsys.readouterr().err


@pytest.mark.parametrize("flag, value, word", [
    ("ttl_floor", 300, "ttl_floor"),
    ("tos_values", "16,256", "tos_values"),
    ("chaff_rate", 1.5, "chaff_rate"),
])
def test_synth_params_out_of_range_are_usage_errors(tmp_path, capsys, flag, value, word):
    assert main(synth_args(tmp_path / "x.neds", **{flag: value})) == 1
    assert word in capsys.readouterr().err


def test_missing_input_file_is_data_error(tmp_path, capsys):
    rc = main(["extract", "--pcap", str(tmp_path / "absent.pcap"),
               "--label", "ip_frag", "--out", str(tmp_path / "o.neds")])
    assert rc == 2
    assert "data error" in capsys.readouterr().err


def test_garbage_capture_is_data_error(tmp_path, capsys):
    bad = tmp_path / "noise.pcap"
    bad.write_bytes(b"this is not a capture file at all")
    rc = main(["extract", "--pcap", str(bad),
               "--label", "ip_frag", "--out", str(tmp_path / "o.neds")])
    assert rc == 2
    assert "data error" in capsys.readouterr().err


# -- synth -----------------------------------------------------------------


def test_synth_writes_balanced_dataset(small_dataset, capsys):
    samples, class_count = read_dataset(small_dataset)
    assert class_count == 8
    assert {s.label for s in samples} == set(range(8))


def test_synth_reports_counts(tmp_path, capsys):
    path = tmp_path / "d.neds"
    assert main(synth_args(path)) == 0
    out = capsys.readouterr().out
    assert f"to {path}" in out
    for label in EvasionLabel:
        assert label.tag in out


def test_synth_same_seed_same_bytes(tmp_path):
    a, b = tmp_path / "a.neds", tmp_path / "b.neds"
    assert main(synth_args(a, seed=9)) == 0
    assert main(synth_args(b, seed=9)) == 0
    assert a.read_bytes() == b.read_bytes()


def test_synth_different_seed_different_bytes(tmp_path):
    a, b = tmp_path / "a.neds", tmp_path / "b.neds"
    assert main(synth_args(a, seed=9)) == 0
    assert main(synth_args(b, seed=10)) == 0
    assert a.read_bytes() != b.read_bytes()


def test_synth_include_clean_adds_ninth_class(tmp_path):
    path = tmp_path / "nine.neds"
    assert main(synth_args(path, include_clean=None)) == 0
    samples, class_count = read_dataset(path)
    assert class_count == 9
    assert {s.label for s in samples} == set(range(9))


def test_synth_csv_export(tmp_path):
    path = tmp_path / "d.neds"
    csv_path = tmp_path / "rows.csv"
    assert main(synth_args(path, csv=csv_path)) == 0
    lines = csv_path.read_text().splitlines()
    assert lines[0].startswith("sample_id,label,row_index")
    assert len(lines) > 1


def test_synth_emit_pcap_then_extract(tmp_path, capsys):
    pcap_dir = tmp_path / "caps"
    assert main(synth_args(tmp_path / "d.neds", emit_pcap=pcap_dir)) == 0
    frag_caps = sorted(pcap_dir.glob("ip_frag_*.pcap"))
    assert len(frag_caps) == 3
    out = tmp_path / "frag.neds"
    rc = main(["extract", "--pcap", str(frag_caps[0]),
               "--label", "ip_frag", "--out", str(out)])
    assert rc == 0
    samples, class_count = read_dataset(out)
    assert class_count == 8
    assert all(s.label == int(EvasionLabel.IP_FRAG) for s in samples)


def test_extract_accepts_clean_label_name(tmp_path):
    cap = tmp_path / "clean.pcap"
    trace = handshake_trace([b"A" * 32, b"B" * 32, b"C" * 32, b"D" * 32])
    buf = io.BytesIO()
    write_pcap(buf, trace.packets)
    cap.write_bytes(buf.getvalue())
    out = tmp_path / "clean.neds"
    rc = main(["extract", "--pcap", str(cap), "--label", "clean",
               "--out", str(out)])
    assert rc == 0
    samples, class_count = read_dataset(out)
    assert class_count == 9
    assert all(s.label == 8 for s in samples)


def test_extract_counts_too_short_flows(tmp_path, capsys):
    cap = tmp_path / "mixed.pcap"
    long_flow = handshake_trace([b"A" * 32] * 7)
    short_flow = [make_packet(5000, b"", syn=True, sport=40001),
                  make_packet(5001, b"B" * 32, ts=0.01, sport=40001)]
    buf = io.BytesIO()
    write_pcap(buf, long_flow.packets + short_flow)
    cap.write_bytes(buf.getvalue())
    rc = main(["extract", "--pcap", str(cap), "--label", "clean",
               "--out", str(tmp_path / "mixed.neds")])
    assert rc == 0
    assert "2 flows, 1 too short" in capsys.readouterr().out


# -- train and eval --------------------------------------------------------


def train_args(data, model_out, **overrides):
    argv = [
        "train",
        "--data", str(data),
        "--model-out", str(model_out),
        "--hidden", "8",
        "--layers", "1",
        "--epochs", "2",
        "--batch-size", "16",
    ]
    for flag, value in overrides.items():
        argv += ["--" + flag.replace("_", "-"), str(value)]
    return argv


def test_train_then_eval(small_dataset, tmp_path, capsys):
    model_path = tmp_path / "model.blsm"
    assert main(train_args(small_dataset, model_path)) == 0
    out = capsys.readouterr().out
    assert "checkpoint written" in out
    assert model_path.exists()

    rc = main(["eval", "--model", str(model_path),
               "--data", str(small_dataset)])
    assert rc == 0
    out = capsys.readouterr().out
    assert "confusion matrix" in out
    assert "overall accuracy" in out
    assert "micro-average auc" in out


def test_eval_writes_report_files(small_dataset, tmp_path):
    model_path = tmp_path / "model.blsm"
    assert main(train_args(small_dataset, model_path)) == 0
    conf_csv = tmp_path / "confusion.csv"
    roc_csv = tmp_path / "roc.csv"
    rc = main(["eval", "--model", str(model_path),
               "--data", str(small_dataset),
               "--confusion-csv", str(conf_csv),
               "--roc-csv", str(roc_csv)])
    assert rc == 0
    assert conf_csv.read_text().splitlines()[0].startswith("true_class,")
    roc_lines = roc_csv.read_text().splitlines()
    assert roc_lines[0] == "class,fpr,tpr"
    assert any(line.startswith("micro,") for line in roc_lines)


def test_train_loss_csv(small_dataset, tmp_path):
    model_path = tmp_path / "model.blsm"
    loss_csv = tmp_path / "loss.csv"
    rc = main(train_args(small_dataset, model_path, loss_csv=loss_csv))
    assert rc == 0
    lines = loss_csv.read_text().splitlines()
    assert lines[0] == "step,loss"
    assert len(lines) > 2


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_train_divergence_exit_code(small_dataset, tmp_path, capsys):
    rc = main(train_args(small_dataset, tmp_path / "m.blsm",
                         optimizer="gd", lr="1e308"))
    assert rc == 3
    assert "numeric failure" in capsys.readouterr().err


def test_eval_class_count_mismatch(small_dataset, tmp_path, capsys):
    nine = tmp_path / "nine.neds"
    assert main(synth_args(nine, include_clean=None)) == 0
    model_path = tmp_path / "model.blsm"
    assert main(train_args(small_dataset, model_path)) == 0
    rc = main(["eval", "--model", str(model_path), "--data", str(nine)])
    assert rc == 2
    assert "classes" in capsys.readouterr().err


def test_eval_bad_checkpoint_is_data_error(small_dataset, tmp_path, capsys):
    model_path = tmp_path / "model.blsm"
    assert main(train_args(small_dataset, model_path)) == 0
    raw = bytearray(model_path.read_bytes())
    raw[8] += 1  # hidden size no longer matches the parameter count
    model_path.write_bytes(bytes(raw))
    rc = main(["eval", "--model", str(model_path), "--data", str(small_dataset)])
    assert rc == 2
    assert "parameters" in capsys.readouterr().err


# -- configuration files ---------------------------------------------------


def test_config_file_applied(tmp_path):
    cfg = tmp_path / "synth.cfg"
    cfg.write_text("# fixed run\nseed = 31\nflows-per-class = 2\n")
    via_cfg = tmp_path / "cfg.neds"
    rc = main(["synth", "--config", str(cfg),
               "--min-packets", "4", "--max-packets", "6",
               "--out", str(via_cfg)])
    assert rc == 0
    direct = tmp_path / "direct.neds"
    assert main(synth_args(direct, seed=31, flows_per_class=2)) == 0
    assert via_cfg.read_bytes() == direct.read_bytes()


def test_config_unknown_key_is_usage_error(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("learning_rage = 0.1\n")
    rc = main(synth_args(tmp_path / "x.neds") + ["--config", str(cfg)])
    assert rc == 1
    assert "learning_rage" in capsys.readouterr().err


def test_config_malformed_line_is_usage_error(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("seed 31\n")
    rc = main(synth_args(tmp_path / "x.neds") + ["--config", str(cfg)])
    assert rc == 1
    assert "key=value" in capsys.readouterr().err


def test_explicit_flag_beats_config(tmp_path):
    cfg = tmp_path / "synth.cfg"
    cfg.write_text("seed = 31\n")
    mixed = tmp_path / "mixed.neds"
    rc = main(synth_args(mixed, seed=77) + ["--config", str(cfg)])
    assert rc == 0
    direct = tmp_path / "direct.neds"
    assert main(synth_args(direct, seed=77)) == 0
    assert mixed.read_bytes() == direct.read_bytes()


def test_config_from_environment(tmp_path, monkeypatch):
    cfg = tmp_path / "synth.cfg"
    cfg.write_text("seed = 31\nflows-per-class = 2\n")
    monkeypatch.setenv("EVASIONLAB_CONFIG", str(cfg))
    via_env = tmp_path / "env.neds"
    rc = main(["synth",
               "--min-packets", "4", "--max-packets", "6",
               "--out", str(via_env)])
    assert rc == 0
    monkeypatch.delenv("EVASIONLAB_CONFIG")
    direct = tmp_path / "direct.neds"
    assert main(synth_args(direct, seed=31, flows_per_class=2)) == 0
    assert via_env.read_bytes() == direct.read_bytes()


# -- diagnostics -----------------------------------------------------------


def test_gradcheck_reports_pass(capsys):
    assert main(["gradcheck", "--trials", "2"]) == 0
    out = capsys.readouterr().out
    assert out.count("PASS") == 3  # two trials plus the summary line
    assert "FAIL" not in out


@pytest.mark.parametrize("seed", range(40))
def test_gradcheck_passes_correct_gradients(seed, capsys):
    # central-difference round-off on entries near 1e-8 once read as a
    # FAIL here, at seeds 2, 4, 5 and 6 among others
    assert main(["gradcheck", "--seed", str(seed)]) == 0
    assert "FAIL" not in capsys.readouterr().out


def test_sweep_writes_csv(tmp_path, capsys):
    out = tmp_path / "sweep.csv"
    rc = main(["sweep",
               "--flows-per-class", "3",
               "--frames", "3",
               "--epochs", "1",
               "--hidden", "8",
               "--batch-sizes", "32",
               "--out", str(out)])
    assert rc == 0
    lines = out.read_text().splitlines()
    assert lines[0].startswith("optimizer,lr,dropout,batch_size,acc_L3")
    assert len(lines) == 2
    assert lines[1].startswith("adam,0.001,")


def test_bench_writes_csv(tmp_path, capsys):
    out = tmp_path / "bench.csv"
    rc = main(["bench",
               "--flows-per-class", "3",
               "--batch-sizes", "8,32",
               "--hidden", "8",
               "--out", str(out)])
    assert rc == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "batch_size,seconds_per_epoch"
    assert [row.split(",")[0] for row in lines[1:]] == ["8", "32"]
