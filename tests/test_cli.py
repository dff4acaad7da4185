"""Command-line interface: exit codes, outputs, fault injection, and the
checkpoint train -> infer round trip."""

import ctypes
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from hypothesis import given, settings, strategies as st

from mddcnet import verify
from mddcnet.cli import _build_parser, main
from mddcnet.io import read_ppm, write_ppm, load_checkpoint, save_checkpoint
from mddcnet.data import generate_scene


# an FFN kind deleted earlier, which the CLI must keep rejecting
DELETED_FFN_KIND = "residual" "_ca"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# -- verify ---------------------------------------------------------------------

def test_verify_filtered_subset_passes(capsys):
    code, out, _ = run(capsys, "verify", "--filter", "eval.", "--seed", "0")
    assert code == 0
    assert "PASS" in out and "FAIL" not in out
    assert "eval.nms_matches_bruteforce" in out


def run_module(*argv):
    """``python -m mddcnet`` in a subprocess, importing from this checkout."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    return subprocess.run([sys.executable, "-m", "mddcnet", *argv],
                          env=env, capture_output=True, text=True, timeout=300)


def test_python_m_runs_verify_from_a_checkout():
    proc = run_module("verify", "--filter", "msddc.")
    assert proc.returncode == 0, proc.stderr
    assert "msddc.zero_offset_matches_dilated" in proc.stdout


def test_verify_json_prints_one_object_per_check():
    proc = run_module("verify", "--json", "--filter", "msddc.")
    assert proc.returncode == 0, proc.stderr
    records = [json.loads(line) for line in proc.stdout.splitlines()]
    assert len(records) == 6
    for r in records:
        assert set(r) == {"name", "passed", "seconds", "detail"}
        assert r["name"].startswith("msddc.") and r["passed"] is True
        assert isinstance(r["seconds"], float) and isinstance(r["detail"], str)


def test_verify_json_failure_exits_1(capsys, monkeypatch):
    def fail(rng):
        raise verify.VerifyFailure("injected")
    monkeypatch.setitem(verify.CHECKS, "eval.injected_failure", fail)
    code, out, _ = run(capsys, "verify", "--json", "--filter", "eval.injected")
    rec = json.loads(out)
    assert code == 1
    assert (rec["name"], rec["passed"], rec["detail"]) == ("eval.injected_failure", False,
                                                           "injected")


def test_verify_empty_filter_is_usage_error(capsys):
    code, out, err = run(capsys, "verify", "--filter", "no-such-check")
    assert code == 2 and not out
    assert "usage error: no checks match" in err


def test_verify_reports_failure_by_name(capsys, monkeypatch):
    # fault injection: a live defect in the deformable conv (random instead
    # of zero offset init) must be caught and named by the check suite
    import mddcnet.msddc as msddc
    orig = msddc.Msddc.__init__

    def broken(self, cin, cout, cb, dilations, rng):
        orig(self, cin, cout, cb, dilations, rng)
        self.offset_conv.weight.data = rng.standard_normal(
            self.offset_conv.weight.shape)

    monkeypatch.setattr(msddc.Msddc, "__init__", broken)
    code, out, _ = run(capsys, "verify", "--filter", "msddc.", "--seed", "0")
    assert code == 1
    assert "FAIL" in out
    assert "msddc.fresh_module_matches_dilated" in out.split("failing:")[1]


def test_verify_reports_unexpected_exception_by_name(capsys, monkeypatch):
    # a check that crashes (rather than failing an assertion) is reported as
    # a named failure, and the checks after it still run
    def crashing(rng):
        raise TypeError("only 0-dimensional arrays can be converted")

    monkeypatch.setitem(verify.CHECKS, "eval.crashing", crashing)
    code, out, _ = run(capsys, "verify", "--filter", "eval.", "--seed", "0")
    assert code == 1
    assert "FAIL" in out
    assert "TypeError: only 0-dimensional arrays" in out
    assert "eval.crashing" in out.split("failing:")[1]
    assert "PASS  eval.map_empty_cases" in out


def test_verify_seed_env_fallback(capsys, monkeypatch):
    monkeypatch.setenv("MDDC_TEST_SEED", "17")
    assert verify.default_seed() == 17
    code, _, _ = run(capsys, "verify", "--filter", "eval.map_empty")
    assert code == 0


@pytest.mark.parametrize("worst, code", [(2e-4, 1), (1e-4, 0)])
def test_verify_grad_exit_code_and_fail_lines(capsys, monkeypatch, worst, code):
    # the gradient checks fail above 1e-4 relative error, and only there
    monkeypatch.setattr(verify, "grad_check",
                        lambda fn, params, h, stencil: {"w": worst})
    got, out, _ = run(capsys, "verify", "--filter", "grad.head", "--seed", "0")
    assert got == code
    status = out.splitlines()[0].split()[:2]
    assert status == ["FAIL" if code else "PASS", "grad.head"]
    assert f"max rel err {worst:.3e}" in out


# -- report ----------------------------------------------------------------------

@pytest.mark.parametrize("variant", ["n", "t", "b"])
def test_report_budget_table(capsys, variant):
    # the counts depend on shapes alone, so report takes no seed
    code, out, _ = run(capsys, "report", "--variant", variant)
    assert code == 0
    for sec in ("stem", "stage1", "neck", "head", "total", "delta"):
        assert sec in out
    # every printed delta within the +/-25% band
    for token in out.splitlines()[-1].replace("delta", "").split("%"):
        token = token.strip()
        if token:
            assert abs(float(token)) <= 25.0


def test_report_unknown_variant_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["report", "--variant", "xxl"])
    assert exc.value.code == 2       # argparse rejects bad choices with 2


def test_removed_ffn_kind_is_rejected(capsys, tmp_path):
    removed = [("ffn", DELETED_FFN_KIND), ("ffn", "ca"), ("ffn", "gated_ca"),
               ("neck_attn", "mlca")]
    for key, kind in removed:
        with pytest.raises(SystemExit) as exc:
            main(["report", "--" + key.replace("_", "-"), kind])
        assert exc.value.code == 2
        assert "usage:" in capsys.readouterr().err
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"{key} = {kind}\n")
        code, out, err = run(capsys, "report", "--config", str(cfg))
        assert code == 2 and "usage error" in err and kind in err
        assert not out


def test_bad_stage_kinds_is_usage_error(capsys):
    code, _, err = run(capsys, "report", "--stage-kinds", "msddc,mamba")
    assert code == 2 and "usage error" in err


# -- train / infer ---------------------------------------------------------------

@pytest.mark.parametrize("precision", ["f32", "f64"])
def test_train_zero_epochs_writes_checkpoint(capsys, tmp_path, precision):
    out = tmp_path / "run"
    code, stdout, _ = run(capsys, "train", "--epochs", "0", "--seed", "3",
                          "--precision", precision, "--out", str(out))
    assert code == 0
    state = load_checkpoint(out / "checkpoint.bin")
    assert any(k.startswith("head.") for k in state)
    # every entry, BatchNorm running statistics included, has the precision
    assert any(k.endswith(".running_var") for k in state)
    want = {"f32": np.float32, "f64": np.float64}[precision]
    assert {k for k, v in state.items() if v.dtype != want} == set()
    assert (out / "metrics.jsonl").exists()


def test_train_one_epoch_then_infer_roundtrip(capsys, tmp_path):
    out = tmp_path / "run"
    code, _, _ = run(capsys, "train", "--epochs", "1", "--seed", "0",
                     "--train-scenes", "8", "--val-scenes", "4",
                     "--out", str(out))
    assert code == 0
    lines = (out / "metrics.jsonl").read_text().splitlines()
    assert len(lines) == 1 and "loss_total" in json.loads(lines[0])

    scene = generate_scene(42)
    img_path = tmp_path / "scene.ppm"
    write_ppm(img_path, scene.image)
    code, stdout, _ = run(capsys, "infer", str(img_path),
                          "--checkpoint", str(out / "checkpoint.bin"),
                          "--seed", "0", "--score-threshold", "0.9",
                          "--out", str(tmp_path / "inf"))
    assert code == 0
    det_path = tmp_path / "inf" / "detections.jsonl"
    assert det_path.exists()
    for line in det_path.read_text().splitlines():
        d = json.loads(line)
        assert set(d) == {"class_id", "class_name", "score", "box"}
    ann = read_ppm(tmp_path / "inf" / "annotated.ppm")
    assert ann.shape == scene.image.shape


def test_infer_missing_image_is_io_error(capsys, tmp_path):
    code, _, err = run(capsys, "infer", str(tmp_path / "nope.ppm"),
                       "--out", str(tmp_path / "o"))
    assert code == 3 and "i/o error" in err


@pytest.mark.parametrize("header", [b"P6\nabc 4\n255\n", b"P6\n4", b"P6\n0 4\n255\n"])
def test_infer_malformed_ppm_header_is_io_error(capsys, tmp_path, header):
    img = tmp_path / "bad.ppm"
    img.write_bytes(header)
    code, _, err = run(capsys, "infer", str(img), "--out", str(tmp_path / "o"))
    assert code == 3 and "i/o error" in err


def test_infer_corrupt_checkpoint_is_io_error(capsys, tmp_path):
    img = tmp_path / "img.ppm"
    write_ppm(img, generate_scene(1).image)
    bad = tmp_path / "bad.bin"
    bad.write_bytes(b"garbage that is long enough to parse")
    code, _, err = run(capsys, "infer", str(img), "--checkpoint", str(bad),
                       "--out", str(tmp_path / "o"))
    assert code == 3 and "i/o error" in err


@pytest.fixture(scope="module")
def toy_checkpoint(tmp_path_factory):
    """The initialized n-toy state dict and a PPM to run inference on."""
    root = tmp_path_factory.mktemp("toy")
    assert main(["train", "--epochs", "0", "--seed", "0", "--out", str(root)]) == 0
    write_ppm(root / "img.ppm", generate_scene(1).image)
    return root, load_checkpoint(root / "checkpoint.bin")


@pytest.mark.parametrize("case, flags, key", [
    ("other variant", ["--variant", "n"], "stem.pos_embed"),
    ("other ffn", ["--ffn", "vanilla"], "stage1.0.ffn."),
    ("missing key", [], "stem.pos_embed"),
])
def test_infer_checkpoint_model_mismatch_is_io_error(capsys, tmp_path, toy_checkpoint,
                                                     case, flags, key):
    root, state = toy_checkpoint
    ckpt = root / "checkpoint.bin"
    if case == "missing key":
        ckpt = tmp_path / "partial.bin"
        save_checkpoint(ckpt, {k: v for k, v in state.items() if k != key})
    code, _, err = run(capsys, "infer", str(root / "img.ppm"), "--checkpoint", str(ckpt),
                       *flags, "--out", str(tmp_path / "o"))
    assert code == 3 and "i/o error" in err and key in err
    assert "Traceback" not in err


def test_infer_letterboxes_non_square_images(capsys, tmp_path):
    img = np.clip(np.random.default_rng(0).random((3, 32, 80)), 0, 1)
    path = tmp_path / "wide.ppm"
    write_ppm(path, img)
    code, stdout, _ = run(capsys, "infer", str(path), "--seed", "0",
                          "--out", str(tmp_path / "o"))
    assert code == 0
    ann = read_ppm(tmp_path / "o" / "annotated.ppm")
    assert ann.shape == (3, 32, 80)       # detections mapped back to source


# -- options ---------------------------------------------------------------------

SHARED = {"--seed", "--threads", "--config"}
MODEL = {"--variant", "--stage-kinds", "--dilations", "--ffn", "--neck-attn"}
RUN = {"--precision", "--out"}
# the options each subcommand reads; it rejects any other
OPTIONS = {
    "verify": SHARED | {"--filter", "--json"},
    "report": {"--config"} | MODEL,
    "train": SHARED | MODEL | RUN | {"--epochs", "--batch", "--lr", "--input-size",
                                     "--train-scenes", "--val-scenes",
                                     "--early-stop-map"},
    "infer": SHARED | MODEL | RUN | {"--checkpoint", "--input-size",
                                     "--score-threshold"},
}


def test_each_subcommand_accepts_the_options_it_reads():
    _, commands = _build_parser()
    assert {name: {s for a in p._actions for s in a.option_strings
                   if s not in ("-h", "--help")}
            for name, p in commands.items()} == OPTIONS


@pytest.mark.parametrize("argv", [["verify", "--precision", "f32"],
                                  ["verify", "--variant", "b"],
                                  ["report", "--precision", "f32"],
                                  ["report", "--seed", "1"],
                                  ["report", "--threads", "1"],
                                  ["verify", "--out", "x"]])
def test_option_a_subcommand_does_not_read_is_rejected(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "usage:" in err and argv[1] in err


def test_deleted_bench_subcommand_is_an_invalid_choice(capsys):
    # the scan-scaling check lives in acceptance gate C5 alone
    with pytest.raises(SystemExit) as exc:
        main(["bench"])
    assert exc.value.code == 2
    assert "invalid choice: 'bench'" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["train", "--batch", "0"],
    ["train", "--epochs", "-1"],
    ["train", "--input-size", "0"],
    ["train", "--input-size", "30"],
    ["train", "--train-scenes", "0"],
    ["train", "--dilations", "2,1"],
    ["train", "--dilations", "0"],
    ["infer", "--input-size", "0"],
    ["infer", "--input-size", "30"],
])
def test_bad_numeric_flag_is_usage_error(capsys, tmp_path, argv):
    command, flag, value = argv
    # a run the flag fails to stop ends at once: no epochs, a real image
    before = ["--epochs", "0"] if command == "train" else [str(tmp_path / "img.ppm")]
    write_ppm(tmp_path / "img.ppm", generate_scene(1).image)
    code, out, err = run(capsys, command, *before, "--out", str(tmp_path / "o"),
                         flag, value)
    assert code == 2 and err.startswith("usage error:")
    assert flag[2:].replace("-", "_") in err and "Traceback" not in err


# -- config file -----------------------------------------------------------------

def test_config_file_supplies_defaults(capsys, tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("# comment\nepochs = 0\nseed = 5\n")
    out = tmp_path / "o"
    code, _, _ = run(capsys, "train", "--config", str(cfg), "--out", str(out))
    assert code == 0
    assert (out / "checkpoint.bin").exists()


def test_config_file_unknown_key_is_usage_error(capsys, tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("bogus = 1\n")
    code, _, err = run(capsys, "train", "--config", str(cfg))
    assert code == 2 and "unknown option" in err


def test_config_file_bad_syntax_is_usage_error(capsys, tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("just some words\n")
    code, _, err = run(capsys, "train", "--config", str(cfg))
    assert code == 2


def test_config_file_not_utf8_is_usage_error(capsys, tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_bytes(b"seed = \xff\xfe\n")
    code, out, err = run(capsys, "verify", "--config", str(cfg))
    assert code == 2 and not out
    assert err.startswith("usage error:") and str(cfg) in err
    assert "Traceback" not in err


def test_config_key_the_subcommand_does_not_read_is_usage_error(capsys, tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("precision = f32\n")
    code, out, err = run(capsys, "verify", "--config", str(cfg))
    assert code == 2 and "unknown option 'precision'" in err and not out


@settings(max_examples=150, deadline=None, database=None, derandomize=True)
@given(command=st.sampled_from(sorted(OPTIONS)),
       raw=st.one_of(st.binary(max_size=80),
                     st.lists(st.tuples(st.sampled_from(sorted(
                         {o[2:].replace("-", "_") for v in OPTIONS.values() for o in v}
                         | {"help", "bogus"})), st.binary(max_size=12)), max_size=4)
                     .map(lambda kv: b"".join(k.encode() + b" = " + v + b"\n"
                                               for k, v in kv))))
def test_any_config_file_parses_or_is_usage_error(tmp_path_factory, command, raw):
    # only parsing runs: the subcommand and the BLAS thread pinning are spies
    path = tmp_path_factory.getbasetemp() / "fuzz.cfg"
    path.write_bytes(raw)
    argv = [command, *(["img.ppm"] if command == "infer" else []), "--config", str(path)]
    with pytest.MonkeyPatch.context() as mp:
        _spy_on(mp, command)
        mp.setattr("mddcnet.cli.set_blas_threads", lambda n: True)
        assert main(argv) in (0, 2, 3)


def _spy_on(monkeypatch, command):
    """Replace a subcommand with one that records its arguments."""
    seen = {}

    def spy(args):
        seen.update(vars(args))
        return 0
    monkeypatch.setattr(f"mddcnet.cli.cmd_{command}", spy)
    return seen


def test_explicit_flag_beats_config_file(capsys, tmp_path, monkeypatch):
    seen = _spy_on(monkeypatch, "train")
    cfg = tmp_path / "run.cfg"
    cfg.write_text("seed = 5\nprecision = f32\n")
    code, _, _ = run(capsys, "train", "--seed", "9", "--config", str(cfg))
    assert code == 0
    assert seen["seed"] == 9 and seen["precision"] == "f32"


def test_config_file_beats_builtin_default(capsys, tmp_path, monkeypatch):
    seen = _spy_on(monkeypatch, "report")
    cfg = tmp_path / "run.cfg"
    cfg.write_text("dilations = 1,2\nffn = vanilla\n")
    code, _, _ = run(capsys, "report", "--config", str(cfg))
    assert code == 0
    assert seen["dilations"] == "1,2" and seen["ffn"] == "vanilla"


@pytest.mark.parametrize("line", ["seed = five", "precision = f16",
                                  f"ffn = {DELETED_FFN_KIND}", "variant = xxl",
                                  "json = maybe"])
def test_config_file_bad_value_is_usage_error(capsys, tmp_path, line):
    # on the first subcommand that reads the key
    key = line.split()[0]
    command = next(c for c, opts in OPTIONS.items() if f"--{key}" in opts)
    cfg = tmp_path / "run.cfg"
    cfg.write_text(line + "\n")
    code, out, err = run(capsys, command, "--config", str(cfg))
    assert code == 2 and "usage error" in err and key in err
    assert not out


@pytest.mark.parametrize("value", ["false", "true"])
def test_config_file_switch_takes_true_or_false(capsys, tmp_path, value):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"json = {value}\n")
    code, out, _ = run(capsys, "verify", "--filter", "eval.nms", "--seed", "0",
                       "--config", str(cfg))
    assert code == 0 and out
    lines = out.splitlines()
    if value == "true":
        assert all(json.loads(line)["passed"] for line in lines)
    else:
        assert lines[0].startswith("PASS") and "checks passed" in lines[-1]


# -- BLAS threads ----------------------------------------------------------------

def test_threads_flag_pins_blas_and_is_read_back(capsys):
    from mddcnet.cli import _openblas_function, set_blas_threads
    blas_threads = _openblas_function(("scipy_openblas_get_num_threads64_",
                                       "scipy_openblas_get_num_threads"))
    if blas_threads is None:
        pytest.skip("numpy's BLAS is not an OpenBLAS with thread control")
    blas_threads.argtypes, blas_threads.restype = [], ctypes.c_int
    before = blas_threads()
    try:
        code, _, err = run(capsys, "verify", "--filter", "ssm.zoh", "--threads", "2")
        assert code == 0 and "warning" not in err
        assert blas_threads() == 2
        set_blas_threads(1)
        code, _, _ = run(capsys, "verify", "--filter", "ssm.zoh")
        assert code == 0 and blas_threads() == 1     # no flag: BLAS left alone
        code, out, err = run(capsys, "verify", "--threads", "0")
        assert code == 2 and "--threads" in err
    finally:
        set_blas_threads(before)
