"""Acceptance gate: one test per published criterion, one printed verdict
line each.

Tolerances are pinned here, not inherited from library defaults:

  C1  oracle equivalences             <= 1e-10 (double)
  C2  block gradient checks           <= 1e-4  (double, finite differences)
  C3  identity at initialization      bit-exact
  C4  parameter/FLOP budgets          within +/-25% of published totals
  C5  sequential scan cost            time(2L)/time(L) in [1.6, 2.6]
                                      (median of 15 interleaved rounds)
  C6  toy learning                    val mAP@50 >= MAP50_TARGET (5-seed mean)
                                      and single-batch overfit >= 90% loss cut
  C7  directional ablations           full model >= each ablation (5-seed mean)
  C8  determinism                     bit-identical repeat runs (threads=1)

C6b and C7 train real models (one 30-epoch toy run took 7.1 min of one
core on a 2-core VM) and are skipped while MAP50_TARGET is None: no target
has been locked from a 5-seed calibration yet. C6a, the 200-step
single-batch overfit, is the costliest test that runs: 52-59 % of Tier-1
in three runs on the same VM (24-26 s of 40-48 s).
"""

import os
import time

import numpy as np
import pytest

from mddcnet.tensor import Tensor, no_grad
from mddcnet.cli import set_blas_threads
from mddcnet.model import (BUDGET_TARGETS, VARIANT_NAMES, MddcNet,
                           count_params, estimate_flops, variant_config)
from mddcnet.ssm import MambaBlock, MambaBlockConfig, selective_scan
from mddcnet.ffn_attn import FFN_KINDS, NECK_ATTENTION_KINDS
from mddcnet.data import generate_split
from mddcnet.train import (TrainConfig, train_loop, detection_loss,
                           assign_targets, stack_targets, Sgd, cosine_lr)
from mddcnet.verify import CHECKS, TOL_GRAD

# locked thresholds (see module docstring)
ORACLE_TOL = 1e-10
GRAD_TOL = 1e-4
BUDGET_BAND = 0.25
SCALING_BAND = (1.6, 2.6)
SCALING_ROUNDS = 15
MAP50_TARGET = None          # None until locked from a 5-seed calibration
OVERFIT_CUT = 0.90
ABLATION_SEEDS = (0, 1, 2, 3, 4)

_ORACLE_CHECKS = (
    "msddc.zero_offset_matches_dilated",
    "ssm.par_matches_seq",
    "ssm.frozen_scan_matches_conv",
    "ssm.mamba_block_matches_composition",
    "model.neck_zero_init_fpn",
    "eval.nms_matches_bruteforce",
    "eval.map_matches_bruteforce",
)

_GRAD_BLOCKS = ("msddc", "mamba", "ce_ffn", "spatial_attention", "mlca",
                "scale_calibration", "csca", "head", "loss")

_IDENTITY_CHECKS = (
    "ssm.mamba_identity_at_init",
    "ffn.identity_at_init",
    "attn.csca_identity_at_init",
)


def _verdict(name: str, passed: bool, detail: str):
    print(f"\n{'PASS' if passed else 'FAIL'} {name}: {detail}")
    assert passed, f"{name}: {detail}"


def _run_registered(names):
    """Run the named verify checks at rng 0: (details, failures)."""
    details, fails = [], []
    for name in names:
        try:
            details.append(f"{name}: {CHECKS[name](np.random.default_rng(0))}")
        except Exception as exc:            # noqa: BLE001 - verdict reporting
            fails.append(f"{name}: {exc}")
    return details, fails


# -- C1: oracle equivalences ---------------------------------------------------

def test_c1_oracle_equivalences():
    _, fails = _run_registered(_ORACLE_CHECKS)
    _verdict("C1 oracle-equivalences", not fails,
             "; ".join(fails) if fails else
             f"{len(_ORACLE_CHECKS)} oracles hold at {ORACLE_TOL:g}")


# -- C2: gradient checks ---------------------------------------------------------

def test_c2_gradient_checks():
    details, fails = _run_registered(f"grad.{block}" for block in _GRAD_BLOCKS)
    if TOL_GRAD > GRAD_TOL:
        fails.append(f"verify's bound {TOL_GRAD:g} is looser than {GRAD_TOL:g}")
    _verdict("C2 gradient-checks", not fails,
             "; ".join(fails) if fails else
             f"{len(_GRAD_BLOCKS)} blocks hold at {GRAD_TOL:g} ({'; '.join(details)})")


# -- C3: identity at init --------------------------------------------------------

def test_c3_identity_at_init():
    # the registered checks compare with ==, so the tolerance stays bit-exact
    details, fails = _run_registered(_IDENTITY_CHECKS)
    _verdict("C3 identity-at-init", not fails,
             "; ".join(fails) if fails else "; ".join(details))


# -- C4: budget ------------------------------------------------------------------

def test_c4_budget():
    rows, ok = [], True
    for name, (tp, tf) in BUDGET_TARGETS.items():
        cfg = variant_config(name)
        p = count_params(MddcNet(cfg, np.random.default_rng(0)))["total"]
        f = estimate_flops(cfg)["total"]
        dp, df = (p - tp) / tp, (f - tf) / tf
        ok &= abs(dp) <= BUDGET_BAND and abs(df) <= BUDGET_BAND
        rows.append(f"{name}: params {dp:+.1%}, flops {df:+.1%}")
    _verdict("C4 budget", ok,
             f"within +/-{BUDGET_BAND:.0%} ({'; '.join(rows)})")


# -- C5: linear scan scaling -----------------------------------------------------

def _scan_inputs(block: MambaBlock, u: Tensor) -> tuple:
    """Arguments of ``selective_scan`` in ``block`` for the scan input ``u``."""
    delta = block.dt_up(block.dt_down(u)).softplus()
    return (u, delta, -block.A_log.exp(), block.proj_B(u), block.proj_C(u),
            block.D_skip)


def _scan_ratios(block: MambaBlock, lengths, rounds: int,
                 rng: np.random.Generator) -> dict:
    """For each L whose double 2L is also timed, the median over rounds of
    that round's time(2L)/time(L) of ``selective_scan`` under no_grad, with
    inputs from the scan parameters of ``block`` and batch 1.

    Every round times each length once, so a slow spell of the machine
    falls on neighbouring lengths alike.
    """
    inputs = {}
    with no_grad():
        for length in lengths:
            u = Tensor(rng.standard_normal((1, length, block.cfg.d_inner)))
            inputs[length] = _scan_inputs(block, u)
            selective_scan(*inputs[length])                 # warm up
        times = {length: [] for length in lengths}
        for _ in range(rounds):
            for length in lengths:
                t0 = time.perf_counter()
                selective_scan(*inputs[length])
                times[length].append(time.perf_counter() - t0)
    return {length: float(np.median(np.divide(times[2 * length], times[length])))
            for length in lengths if 2 * length in times}


def test_c5_scan_scaling():
    cfg = MambaBlockConfig(d_model=32, d_state=16)   # D_inner = 64
    block = MambaBlock(cfg, np.random.default_rng(0))
    ratios = _scan_ratios(block, (1024, 2048, 4096, 8192), SCALING_ROUNDS,
                          np.random.default_rng(1))
    ok = all(SCALING_BAND[0] <= r <= SCALING_BAND[1] for r in ratios.values())
    _verdict("C5 scan-scaling", ok,
             "time(2L)/time(L) = "
             + ", ".join(f"{r:.2f}" for r in ratios.values())
             + f" (median of {SCALING_ROUNDS} rounds, "
             f"band [{SCALING_BAND[0]}, {SCALING_BAND[1]}])")


# -- C6: toy learning ------------------------------------------------------------

def test_c6_overfit_single_batch():
    model = MddcNet(variant_config("n-toy"), np.random.default_rng(0))
    scenes = generate_split(77_000, 8)
    images = np.stack([s.image for s in scenes])
    targets = stack_targets([assign_targets(s.annotations, 64)
                             for s in scenes])
    opt = Sgd(model.parameters())
    first = last = None
    for step in range(200):
        losses = detection_loss(model(Tensor(images)), targets)
        val = float(losses["total"].data)
        first = val if first is None else first
        last = val
        model.zero_grad()
        losses["total"].backward()
        opt.step(cosine_lr(step, 200, 0.01, 1e-4))
    cut = 1.0 - last / first
    _verdict("C6a overfit", cut >= OVERFIT_CUT,
             f"single-batch loss cut {cut:.1%} in 200 steps "
             f"(need >= {OVERFIT_CUT:.0%})")


def test_c6_toy_map():
    if MAP50_TARGET is None:
        pytest.skip("mAP target not yet locked")
    maps = []
    for seed in ABLATION_SEEDS:
        model = MddcNet(variant_config("n-toy"), np.random.default_rng(seed))
        hist = train_loop(model, TrainConfig(seed=seed,
                                             early_stop_map=MAP50_TARGET))
        maps.append(max(h.get("map50", 0.0) for h in hist))
    mean = float(np.mean(maps))
    _verdict("C6b toy-map", mean >= MAP50_TARGET,
             f"5-seed mean mAP@50 {mean:.3f} "
             f"(seeds: {', '.join(f'{m:.3f}' for m in maps)}; "
             f"target {MAP50_TARGET})")


# -- C7: directional ablations ---------------------------------------------------

_ABLATIONS = {
    "full": {},
    "vanilla_ffn": {"ffn_kind": "vanilla"},
    "concat_neck": {"neck_attention": "concat"},
    "all_mamba": {"stage_kinds": ("mamba",) * 4},
    "all_msddc": {"stage_kinds": ("msddc",) * 4},
}


def test_c7_arms_cover_every_block_kind():
    # a kind that is neither a preset default nor a C7 arm gets no number
    unmeasured = []
    for field, kinds in (("ffn_kind", FFN_KINDS),
                         ("neck_attention", NECK_ATTENTION_KINDS)):
        covered = {getattr(variant_config(v), field) for v in VARIANT_NAMES}
        covered |= {ov[field] for ov in _ABLATIONS.values() if field in ov}
        unmeasured += [f"{field}={k}" for k in kinds if k not in covered]
    assert not unmeasured, (f"set by no preset and measured by no C7 arm: "
                            f"{', '.join(unmeasured)}")


def _train_one(job):
    name, overrides, seed = job
    model = MddcNet(variant_config("n-toy", **overrides),
                    np.random.default_rng(seed))
    hist = train_loop(model, TrainConfig(seed=seed))
    return name, seed, max(h.get("map50", 0.0) for h in hist)


def test_c7_ablations():
    if MAP50_TARGET is None:
        pytest.skip("recipe not yet calibrated")
    import multiprocessing as mp
    jobs = [(name, ov, seed) for name, ov in _ABLATIONS.items()
            for seed in ABLATION_SEEDS]
    # one BLAS thread per worker: C8's determinism holds only at threads=1
    with mp.get_context("spawn").Pool(min(4, os.cpu_count() or 1),
                                      initializer=set_blas_threads,
                                      initargs=(1,)) as pool:
        results = pool.map(_train_one, jobs)
    means = {name: float(np.mean([m for n, _, m in results if n == name]))
             for name in _ABLATIONS}
    full = means.pop("full")
    worse = [f"{n} {m:.3f}" for n, m in means.items() if m > full]
    _verdict("C7 ablations", not worse,
             f"full {full:.3f} >= " + ", ".join(f"{n} {m:.3f}"
                                                for n, m in means.items())
             if not worse else
             f"full {full:.3f} beaten by: {', '.join(worse)}")


# -- C8: determinism -------------------------------------------------------------

def test_c8_determinism():
    def run_once():
        model = MddcNet(variant_config("n-toy"), np.random.default_rng(0))
        cfg = TrainConfig(epochs=1, train_scenes=16, val_scenes=8,
                          eval_every=1, seed=0)
        hist = train_loop(model, cfg)
        state = model.state_dict()
        return hist, state

    h1, s1 = run_once()
    h2, s2 = run_once()
    # wall-clock entries differ by construction; all numerics must not
    strip = [{k: v for k, v in rec.items() if k != "wall"} for rec in h1]
    same_hist = strip == [{k: v for k, v in rec.items() if k != "wall"}
                          for rec in h2]
    same_state = all(np.array_equal(s1[k], s2[k]) for k in s1)
    _verdict("C8 determinism", same_hist and same_state,
             "repeat run is bit-identical (params and metrics)"
             if same_hist and same_state else
             f"mismatch: hist={same_hist}, params={same_state}")
