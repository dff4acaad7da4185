"""The benchmark's workloads: set-up, one closed-loop training step, and the
correctness gates each step must pass.

A workload object is built once per process. ``prepare`` runs the untimed,
once-per-run checks; ``setup`` is the timed, repeatable set-up; ``op`` runs
one training step and returns whether its outputs passed the gates.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass

import numpy as np

from mddcnet.data import generate_split
from mddcnet.model import MddcNet, count_params, estimate_flops, variant_config
from mddcnet.tensor import Tensor, no_grad
from mddcnet.train import (TrainConfig, Sgd, assign_targets, augment_scene,
                           cosine_lr, detection_loss, stack_targets)

# The weights are the seeded initialisation and are the same for every
# --seed; the seed selects the scenes only.
MODEL_SEED = 0
ORACLE_TOL = 1e-10
# 96 is the smallest image side whose scan lengths (144, 36, 9) are not
# powers of two.
PROBE_SIZE = 96


def scene_base(seed: int) -> int:
    """First scene seed of a workload; different seeds draw disjoint scenes."""
    return 1_000 + 100_000 * seed


def _digest(values) -> str:
    h = hashlib.sha256()
    for v in values:
        h.update(np.ascontiguousarray(v).tobytes())
    return h.hexdigest()[:16]


@dataclass(frozen=True)
class TrainSpec:
    """A training job that restarts from the same weights every ``episode``
    steps, so every episode must repeat the first one bit for bit."""

    variant: str
    batch: int
    size: int
    episode: int            # steps per episode (one cosine lr cycle)
    loss_window: int        # final steps of an episode averaged by loss_last


class TrainWorkload:
    def __init__(self, spec: TrainSpec, seed: int):
        self.spec, self.seed = spec, seed
        self.cfg = variant_config(spec.variant)
        self.tcfg = TrainConfig()
        self.images_per_op = spec.batch
        self.period = spec.episode
        self.failures: list[str] = []
        self.ref_losses: list[float] = []
        self.ref_norms: list[float] = []
        self.oracle_diff = math.nan
        self.step = 0

    def prepare(self):
        """The no_grad forward must equal the grad-mode (taped) forward, on
        an eval-mode model and a probe scene outside the training scenes.
        This guards any future inference-only fast path."""
        model = MddcNet(self.cfg, np.random.default_rng(MODEL_SEED))
        model.eval()
        x = Tensor(generate_split(scene_base(self.seed) - 1, 1,
                                  PROBE_SIZE)[0].image[None])
        with no_grad():
            fast = model(x)
        taped = model(x)
        self.oracle_diff = max(float(np.max(np.abs(a.data - b.data)))
                               for la, lb in zip(fast, taped)
                               for a, b in zip(la, lb))
        if not self.oracle_diff <= ORACLE_TOL:
            self.failures.append(f"oracle: no_grad forward differs from the "
                                 f"grad-mode forward by {self.oracle_diff:.3g}")

    def release(self):
        self.model = self.opt = self.init_state = None

    def setup(self):
        spec = self.spec
        self.model = MddcNet(self.cfg, np.random.default_rng(MODEL_SEED))
        self.init_state = {k: v.copy() for k, v in self.model.state_dict().items()}
        self.scenes = generate_split(scene_base(self.seed),
                                     spec.episode * spec.batch, spec.size)
        self.model.train()
        self._restart()

    def _restart(self):
        self.model.load_state_dict({k: v.copy() for k, v in self.init_state.items()})
        self.opt = Sgd(self.model.parameters(), self.tcfg.momentum,
                       self.tcfg.clip_norm)
        self.rng = np.random.default_rng([self.seed, 1])

    @property
    def first_cycle_done(self) -> bool:
        return len(self.ref_losses) == self.period

    def op(self, tr) -> bool:
        spec, tcfg, model = self.spec, self.tcfg, self.model
        k = self.step % spec.episode
        if k == 0 and self.step:
            self._restart()
        strides = model.cfg.strides
        chunk = self.scenes[k * spec.batch:(k + 1) * spec.batch]
        with tr.operation(model.parameters()):
            with tr.span("train.data"):
                views = [augment_scene(s.image, s.annotations, self.rng,
                                       spec.size, tcfg.translate_max)
                         for s in chunk]
                x = Tensor(np.stack([v[0] for v in views]))
                targets = stack_targets([assign_targets(v[1], spec.size, strides)
                                         for v in views])
            preds = model(x)
            with tr.span("train.loss"):
                losses = detection_loss(preds, targets, strides)
            with tr.span("train.opt"):
                model.zero_grad()
            with tr.span("tensor.backward"):
                losses["total"].backward()
            with tr.span("train.opt"):
                norm = self.opt.step(cosine_lr(k, spec.episode, tcfg.lr,
                                               tcfg.lr_final))
        loss = float(losses["total"].data)
        self.step += 1
        if len(self.ref_losses) < spec.episode:
            self.ref_losses.append(loss)
            self.ref_norms.append(norm)
        return self._gate(k, loss, norm)

    def _gate(self, k: int, loss: float, norm: float) -> bool:
        if not (math.isfinite(loss) and math.isfinite(norm)):
            self.failures.append(f"step {self.step}: loss {loss} grad norm {norm}")
            return False
        if (loss, norm) != (self.ref_losses[k], self.ref_norms[k]):
            self.failures.append(f"step {self.step}: loss {loss!r} differs from "
                                 f"the first episode's {self.ref_losses[k]!r}")
            return False
        return True

    def loss_last(self) -> float:
        return float(np.mean(self.ref_losses[-self.spec.loss_window:]))

    def report(self) -> list[str]:
        return [f"oracle no_grad vs grad-mode forward at {PROBE_SIZE}px: "
                f"max |diff| {self.oracle_diff:.3g} (limit {ORACLE_TOL:g})",
                f"loss_digest {_digest(self.ref_losses)} "
                f"(sha256 of the {len(self.ref_losses)} per-step losses of an episode)"]

    def layer_metrics(self) -> dict[str, float]:
        return {"model.flops": estimate_flops(self.cfg, self.spec.size)["total"],
                "model.params": count_params(self.model)["total"]}


WORKLOADS = {
    "train-toy": TrainSpec("n-toy", batch=8, size=64, episode=12, loss_window=4),
    "train-n128": TrainSpec("n", batch=2, size=128, episode=6, loss_window=3),
}
