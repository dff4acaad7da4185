"""Command-line entry point: verification (gradient checks included), budget
reports, toy training and inference.

Exit codes: 0 success, 1 verification failure, 2 usage error, 3 I/O error.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import sys
from pathlib import Path

import numpy as np

from . import io as mio
from .data import CLASS_NAMES
from .eval import decode_predictions
from .ffn_attn import FFN_KINDS, NECK_ATTENTION_KINDS
from .model import (BUDGET_TARGETS, MddcNet, VARIANT_NAMES, check_input_size,
                    count_params, estimate_flops, variant_config)
from .tensor import Tensor, bilinear_resize, no_grad
from .train import TrainConfig, train_loop
from .verify import default_seed, run_checks

__all__ = ["main"]

_PRECISIONS = {"f32": np.float32, "f64": np.float64}


class UsageError(ValueError):
    pass


def _parse_config_file(path) -> dict[str, str]:
    """Plain key=value lines; '#' starts a comment."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise UsageError(f"config file {path} is not UTF-8 text: {exc.reason} "
                         f"at byte {exc.start}") from exc
    out = {}
    for lineno, line in enumerate(text.splitlines(), 1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise UsageError(f"{path}:{lineno}: expected key=value, got {line!r}")
        key, val = line.split("=", 1)
        out[key.strip().replace("-", "_")] = val.strip()
    return out


def _csv_tuple(text: str) -> tuple[str, ...]:
    return tuple(s.strip() for s in text.split(",") if s.strip())


def _build_variant(args):
    overrides = {}
    if args.stage_kinds:
        kinds = _csv_tuple(args.stage_kinds)
        if len(kinds) != 4:
            raise UsageError("--stage-kinds needs 4 comma-separated entries")
        overrides["stage_kinds"] = kinds
    if args.dilations:
        try:
            overrides["dilations"] = tuple(int(d) for d in _csv_tuple(args.dilations))
        except ValueError as exc:
            raise UsageError(f"--dilations must be integers: {exc}") from exc
    if args.ffn:
        overrides["ffn_kind"] = args.ffn
    if args.neck_attn:
        overrides["neck_attention"] = args.neck_attn
    try:
        return variant_config(args.variant, **overrides)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc


def _out_dir(args) -> Path:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


# -- subcommands ---------------------------------------------------------------

def cmd_verify(args) -> int:
    results = run_checks(args.filter, args.seed)
    if not results:
        raise UsageError(f"no checks match filter {args.filter!r}")
    failed = [r for r in results if not r.passed]
    if args.json:
        for r in results:
            print(json.dumps({"name": r.name, "passed": r.passed,
                              "seconds": round(r.seconds, 6), "detail": r.detail}))
        return 1 if failed else 0
    width = max(len(r.name) for r in results)
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        print(f"{status}  {r.name:<{width}}  {r.seconds:6.2f}s  {r.detail}")
    print(f"{len(results) - len(failed)}/{len(results)} checks passed")
    if failed:
        print("failing:", ", ".join(r.name for r in failed))
        return 1
    return 0


def cmd_report(args) -> int:
    cfg = _build_variant(args)
    params = count_params(MddcNet(cfg, np.random.default_rng(0)))  # shapes only
    flops = estimate_flops(cfg, input_size=640)
    print(f"variant {cfg.name}: dims {cfg.embed_dims}, depths {cfg.depths}, "
          f"stages {cfg.stage_kinds}")
    print(f"{'section':<10}{'params':>12}{'flops@640':>16}")
    for sec in ("stem", "stage1", "stage2", "stage3", "stage4", "neck", "head"):
        print(f"{sec:<10}{params[sec]:>12,}{flops[sec]:>16,}")
    print(f"{'total':<10}{params['total']:>12,}{flops['total']:>16,}")
    target = BUDGET_TARGETS.get(cfg.name)
    if target:
        tp, tf = target
        dp = 100.0 * (params["total"] - tp) / tp
        df = 100.0 * (flops["total"] - tf) / tf
        print(f"targets   {tp:>12,.0f}{tf:>16,.0f}")
        print(f"delta     {dp:>+11.1f}%{df:>+15.1f}%")
    else:
        print("targets   (none published for this variant)")
    return 0


def cmd_train(args) -> int:
    cfg = _build_variant(args)
    try:
        tcfg = TrainConfig(epochs=args.epochs, batch=args.batch, lr=args.lr,
                           seed=args.seed, input_size=args.input_size,
                           train_scenes=args.train_scenes,
                           val_scenes=args.val_scenes,
                           early_stop_map=args.early_stop_map)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc
    dtype = _PRECISIONS[args.precision]
    model = MddcNet(cfg, np.random.default_rng(args.seed)).astype(dtype)
    out = _out_dir(args)
    log_path = out / "metrics.jsonl"
    ckpt_path = out / "checkpoint.bin"
    if args.epochs > 0:
        history = train_loop(model, tcfg, log_path=log_path, verbose=True)
        if history and "map50" in history[-1]:
            print(f"final mAP@50 {history[-1]['map50']:.4f}")
    else:
        log_path.write_text("")
        print("0 epochs requested: writing the initialized checkpoint")
    mio.save_checkpoint(ckpt_path, model.state_dict())
    print(f"checkpoint: {ckpt_path}")
    print(f"metrics:    {log_path}")
    return 0


def _letterbox(img: np.ndarray, size: int, dtype):
    """Aspect-preserving bilinear resize onto a gray size x size canvas.

    Returns (canvas, scale, pad_x, pad_y) for mapping boxes back.
    """
    _, h, w = img.shape
    scale = min(size / h, size / w)
    nh, nw = max(int(round(h * scale)), 1), max(int(round(w * scale)), 1)
    with no_grad():
        x = Tensor(img[None].astype(dtype, copy=False))
        resized = bilinear_resize(x, nh, nw).data[0]
    canvas = np.full((3, size, size), 0.5, dtype=dtype)
    py, px = (size - nh) // 2, (size - nw) // 2
    canvas[:, py:py + nh, px:px + nw] = resized
    return canvas, scale, px, py


def _draw_box(img: np.ndarray, box, color):
    _, h, w = img.shape
    x1 = int(np.clip(round(box[0]), 0, w - 1))
    y1 = int(np.clip(round(box[1]), 0, h - 1))
    x2 = int(np.clip(round(box[2]), 0, w - 1))
    y2 = int(np.clip(round(box[3]), 0, h - 1))
    for c in range(3):
        img[c, y1, x1:x2 + 1] = color[c]
        img[c, y2, x1:x2 + 1] = color[c]
        img[c, y1:y2 + 1, x1] = color[c]
        img[c, y1:y2 + 1, x2] = color[c]


_BOX_COLORS = ((1.0, 0.2, 0.2), (0.2, 1.0, 0.2), (0.3, 0.5, 1.0))


def cmd_infer(args) -> int:
    cfg = _build_variant(args)
    try:
        size = check_input_size(args.input_size)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc
    dtype = _PRECISIONS[args.precision]
    model = MddcNet(cfg, np.random.default_rng(args.seed)).astype(dtype)
    if args.checkpoint:
        state = mio.load_checkpoint(args.checkpoint)
        try:
            model.load_state_dict({k: np.asarray(v) for k, v in state.items()})
        except (KeyError, ValueError) as exc:
            raise mio.CheckpointError(f"{args.checkpoint} does not match the model "
                                      f"the flags build: {exc.args[0]}") from exc
    model.eval()
    img = mio.read_ppm(args.image)
    canvas, scale, px, py = _letterbox(img, size, dtype)
    with no_grad():
        preds = model(Tensor(canvas[None]))
    dets = decode_predictions(preds, cfg.strides,
                              score_threshold=args.score_threshold)[0]
    out = _out_dir(args)
    det_path = out / "detections.jsonl"
    annotated = img.copy()
    with det_path.open("w") as f:
        for d in dets:
            box = [(d.box[0] - px) / scale, (d.box[1] - py) / scale,
                   (d.box[2] - px) / scale, (d.box[3] - py) / scale]
            f.write(json.dumps({"class_id": d.class_id,
                                "class_name": CLASS_NAMES[d.class_id],
                                "score": round(d.score, 6),
                                "box": [round(v, 3) for v in box]}) + "\n")
            _draw_box(annotated, box, _BOX_COLORS[d.class_id % len(_BOX_COLORS)])
    ann_path = out / "annotated.ppm"
    mio.write_ppm(ann_path, annotated)
    print(f"{len(dets)} detections above score {args.score_threshold}")
    print(f"detections: {det_path}")
    print(f"annotated:  {ann_path}")
    return 0


# -- BLAS threads ----------------------------------------------------------------

def _openblas_function(names: tuple[str, ...]):
    """The first of ``names`` exported by the OpenBLAS bundled with numpy."""
    root = Path(np.__file__).parent
    for lib in sorted([*(root.parent / "numpy.libs").glob("*openblas*"),
                       *(root / ".dylibs").glob("*openblas*")]):
        dll = ctypes.CDLL(str(lib))
        for name in names:
            fn = getattr(dll, name, None)
            if fn is not None:
                return fn
    return None


def set_blas_threads(n: int) -> bool:
    """Pin numpy's OpenBLAS to ``n`` threads; False if it cannot be found."""
    fn = _openblas_function(("scipy_openblas_set_num_threads64_",
                             "scipy_openblas_set_num_threads"))
    if fn is None:
        return False
    fn.argtypes, fn.restype = [ctypes.c_int], None
    fn(n)
    return True


# -- argument plumbing ---------------------------------------------------------

def _build_parser() -> tuple[argparse.ArgumentParser, dict]:
    """The top-level parser and its subcommand parsers by name. Each
    subcommand accepts only the options it reads."""
    config = argparse.ArgumentParser(add_help=False)
    config.add_argument("--config", default=None,
                        help="key=value file supplying flag defaults")
    shared = argparse.ArgumentParser(add_help=False, parents=[config])
    shared.add_argument("--seed", type=int, default=None)
    shared.add_argument("--threads", type=int, default=None,
                        help="pin numpy's OpenBLAS to this many threads "
                             "(default: leave BLAS as it is)")

    model = argparse.ArgumentParser(add_help=False)
    model.add_argument("--variant", default="n-toy", choices=VARIANT_NAMES)
    model.add_argument("--stage-kinds", default=None,
                       help="4 comma-separated mixers, e.g. msddc,msddc,mamba,mamba")
    model.add_argument("--dilations", default=None,
                       help="comma-separated branch dilations, e.g. 1,2,4")
    model.add_argument("--ffn", default=None, choices=FFN_KINDS)
    model.add_argument("--neck-attn", default=None, choices=NECK_ATTENTION_KINDS)

    run = argparse.ArgumentParser(add_help=False)
    run.add_argument("--precision", default="f64", choices=_PRECISIONS)
    run.add_argument("--out", default="out")

    parser = argparse.ArgumentParser(
        prog="mddcnet",
        description="hybrid deformable-conv / state-space detector toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("verify", parents=[shared],
                       help="run the named property checks, gradient checks included")
    p.add_argument("--filter", default=None,
                   help="only run checks whose name contains this substring")
    p.add_argument("--json", action="store_true",
                   help="print one JSON object per check: name, passed, seconds, detail")
    p.set_defaults(fn=cmd_verify)

    p = sub.add_parser("report", parents=[config, model],
                       help="per-section parameter/FLOP budget vs targets")
    p.set_defaults(fn=cmd_report)

    p = sub.add_parser("train", parents=[shared, model, run],
                       help="train on the synthetic shape benchmark")
    p.add_argument("--epochs", type=int, default=30)
    p.add_argument("--batch", type=int, default=8)
    p.add_argument("--lr", type=float, default=0.01)
    p.add_argument("--input-size", type=int, default=64)
    p.add_argument("--train-scenes", type=int, default=800)
    p.add_argument("--val-scenes", type=int, default=200)
    p.add_argument("--early-stop-map", type=float, default=None)
    p.set_defaults(fn=cmd_train)

    p = sub.add_parser("infer", parents=[shared, model, run],
                       help="detect objects in a PPM (P6) image")
    p.add_argument("image")
    p.add_argument("--checkpoint", default=None)
    p.add_argument("--input-size", type=int, default=64)
    p.add_argument("--score-threshold", type=float, default=0.25)
    p.set_defaults(fn=cmd_infer)

    return parser, sub.choices


def _install_config_defaults(command: argparse.ArgumentParser, path) -> None:
    """Make the values of a --config file the defaults of the subcommand's
    options, so that flags given on the command line still win. Each value
    is checked against its option's type and choices; a switch takes
    ``true`` or ``false``."""
    options = {a.dest: a for a in command._actions
               if a.option_strings and a.dest != "help"}
    defaults = {}
    for key, val in _parse_config_file(path).items():
        if key not in options:
            raise UsageError(f"config file sets unknown option {key!r}")
        action = options[key]
        if action.nargs == 0:               # a switch such as --json
            if val not in ("true", "false"):
                raise UsageError(f"config value {key}={val!r}: a switch takes "
                                 f"true or false")
            defaults[key] = val == "true"
            continue
        try:
            defaults[key] = action.type(val) if action.type else val
        except ValueError as exc:
            raise UsageError(f"config value {key}={val!r}: {exc}") from exc
        if action.choices is not None and defaults[key] not in action.choices:
            raise UsageError(f"config value {key}={val!r}: choose from "
                             f"{', '.join(map(str, action.choices))}")
    command.set_defaults(**defaults)


def main(argv=None) -> int:
    parser, commands = _build_parser()
    args = parser.parse_args(argv)
    try:
        if args.config:
            _install_config_defaults(commands[args.command], args.config)
            args = parser.parse_args(argv)
        if "seed" in args and args.seed is None:
            args.seed = default_seed()
        if getattr(args, "threads", None) is not None:
            if args.threads < 1:
                raise UsageError(f"--threads must be at least 1, got {args.threads}")
            if not set_blas_threads(args.threads):
                print("warning: numpy's BLAS exposes no OpenBLAS thread control; "
                      "--threads ignored", file=sys.stderr)
        return args.fn(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except (OSError, mio.CheckpointError) as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
