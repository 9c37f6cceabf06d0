"""Nine first-order update rules over flat float64 parameter vectors.

Conventions, fixed across the module:

- epsilon sits inside the square root for Adagrad, RMSProp and Adadelta
  (sqrt(acc + eps)); Adam keeps its usual sqrt(v_hat) + eps denominator.
- l2_weight_decay adds lambda*theta to the gradient before any rule runs.
- Adadelta takes no learning rate; its step size is the ratio of the two
  running averages.
- FTRL is the proximal variant with z/n accumulators. Coordinates whose
  squared-gradient accumulator is still zero are left untouched, so a
  zero gradient never moves freshly initialized parameters.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import KindMismatchError, NonFiniteGradientError

GD = "gd"
MOMENTUM = "momentum"
ADAGRAD = "adagrad"
ADADELTA = "adadelta"
RMSPROP = "rmsprop"
ADAM = "adam"
FTRL = "ftrl"
PROXIMAL_GD = "proximal_gd"
PROXIMAL_ADAGRAD = "proximal_adagrad"

KINDS = (
    GD,
    MOMENTUM,
    ADAGRAD,
    ADADELTA,
    RMSPROP,
    ADAM,
    FTRL,
    PROXIMAL_GD,
    PROXIMAL_ADAGRAD,
)


@dataclass(frozen=True)
class OptimizerConfig:
    kind: str = ADAM
    lr: float = 1e-3
    momentum: float = 0.9
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    rho: float = 0.9
    l1: float = 0.0
    l2_shrink: float = 0.0
    l2_weight_decay: float = 0.0
    ftrl_beta: float = 1.0

    def __post_init__(self) -> None:
        if self.kind not in KINDS:
            raise ValueError(f"unknown optimizer kind {self.kind!r}")
        if self.lr <= 0:
            raise ValueError("lr must be positive")
        for name in ("eps", "l1", "l2_shrink", "l2_weight_decay"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be >= 0")
        for name in ("beta1", "beta2", "rho", "momentum"):
            v = getattr(self, name)
            if not 0.0 <= v < 1.0:
                raise ValueError(f"{name} must lie in [0, 1)")


_SLOTS = {
    GD: (),
    MOMENTUM: ("v",),
    ADAGRAD: ("a",),
    ADADELTA: ("eg", "ed"),
    RMSPROP: ("eg",),
    ADAM: ("m", "v", "update"),  # update: the last step taken, reused as scratch
    FTRL: ("z", "n"),
    PROXIMAL_GD: (),
    PROXIMAL_ADAGRAD: ("a",),
}


@dataclass
class OptimizerState:
    kind: str
    t: int = 0
    slots: dict[str, np.ndarray] = field(default_factory=dict)


def make_state(config: OptimizerConfig, n_params: int) -> OptimizerState:
    slots = {name: np.zeros(n_params) for name in _SLOTS[config.kind]}
    return OptimizerState(kind=config.kind, slots=slots)


def _shrink(theta_half: np.ndarray, step: np.ndarray | float, l1: float, l2: float):
    """Soft-threshold then shrink: the closed-form proximal map of
    step*(l1*|x| + l2/2*x^2)."""
    return np.sign(theta_half) * np.maximum(np.abs(theta_half) - step * l1, 0.0) / (
        1.0 + step * l2
    )


def optimizer_step(
    theta: np.ndarray,
    grads: np.ndarray,
    state: OptimizerState,
    config: OptimizerConfig,
) -> np.ndarray:
    """One update. Mutates ``state``, returns the new parameter vector."""
    if state.kind != config.kind:
        raise KindMismatchError(
            f"state built for {state.kind!r}, config says {config.kind!r}"
        )
    if not np.isfinite(grads).all():
        bad = int(np.count_nonzero(~np.isfinite(grads)))
        raise NonFiniteGradientError(f"{bad} non-finite gradient entries")
    g = np.asarray(grads, dtype=np.float64)
    theta = np.asarray(theta, dtype=np.float64)
    if config.l2_weight_decay > 0.0:
        g = g + config.l2_weight_decay * theta
    lr = config.lr
    s = state.slots
    state.t += 1

    if config.kind == GD:
        return theta - lr * g

    if config.kind == MOMENTUM:
        s["v"][:] = config.momentum * s["v"] + g
        return theta - lr * s["v"]

    if config.kind == ADAGRAD:
        s["a"][:] = s["a"] + g * g
        return theta - lr * g / np.sqrt(s["a"] + config.eps)

    if config.kind == ADADELTA:
        s["eg"][:] = config.rho * s["eg"] + (1.0 - config.rho) * g * g
        delta = -np.sqrt(s["ed"] + config.eps) / np.sqrt(s["eg"] + config.eps) * g
        s["ed"][:] = config.rho * s["ed"] + (1.0 - config.rho) * delta * delta
        return theta + delta

    if config.kind == RMSPROP:
        s["eg"][:] = config.rho * s["eg"] + (1.0 - config.rho) * g * g
        return theta - lr * g / np.sqrt(s["eg"] + config.eps)

    if config.kind == ADAM:
        # lr * m_hat / (sqrt(v_hat) + eps), rewritten with the bias corrections
        # folded into two scalars and built in place in s["update"]
        m, v, update = s["m"], s["v"], s["update"]
        root_c2 = np.sqrt(1.0 - config.beta2 ** state.t)
        m *= config.beta1
        np.multiply(g, 1.0 - config.beta1, out=update)
        m += update
        v *= config.beta2
        np.multiply(g, g, out=update)
        update *= 1.0 - config.beta2
        v += update
        np.sqrt(v, out=update)
        update += config.eps * root_c2
        np.divide(m, update, out=update)
        update *= lr * root_c2 / (1.0 - config.beta1 ** state.t)
        return theta - update

    if config.kind == FTRL:
        n_old = s["n"]
        n_new = n_old + g * g
        sigma = (np.sqrt(n_new) - np.sqrt(n_old)) / lr
        z_new = s["z"] + g - sigma * theta
        active = n_new > 0.0
        s["z"][:] = z_new
        s["n"][:] = n_new
        z, n = z_new, n_new
        denom = (config.ftrl_beta + np.sqrt(n)) / lr + config.l2_shrink
        with np.errstate(invalid="ignore", divide="ignore"):
            proposed = np.where(
                np.abs(z) <= config.l1,
                0.0,
                -(z - np.sign(z) * config.l1) / denom,
            )
        return np.where(active, proposed, theta)

    if config.kind == PROXIMAL_GD:
        half = theta - lr * g
        return _shrink(half, lr, config.l1, config.l2_shrink)

    if config.kind == PROXIMAL_ADAGRAD:
        s["a"][:] = s["a"] + g * g
        step = lr / np.sqrt(s["a"] + config.eps)
        half = theta - step * g
        return _shrink(half, step, config.l1, config.l2_shrink)

    raise KindMismatchError(f"unhandled kind {config.kind!r}")


class Optimizer:
    """Owns a state and applies optimizer_step; one instance per training run."""

    def __init__(self, config: OptimizerConfig, n_params: int):
        self.config = config
        self.state = make_state(config, n_params)

    def step(self, theta: np.ndarray, grads: np.ndarray) -> np.ndarray:
        return optimizer_step(theta, grads, self.state, self.config)


def quadratic_convergence_probe(
    config: OptimizerConfig,
    dim: int = 10,
    seed: int = 0,
    tol: float = 1e-3,
    cap: int = 100_000,
) -> int:
    """Iterations until ||theta - theta*|| < tol on f = 0.5*||theta - theta*||^2.

    Returns cap when the tolerance was never reached.
    """
    rng = np.random.default_rng(seed)
    target = rng.standard_normal(dim)
    theta = np.zeros(dim)
    opt = Optimizer(config, dim)
    for it in range(1, cap + 1):
        g = theta - target
        theta = opt.step(theta, g)
        if float(np.linalg.norm(theta - target)) < tol:
            return it
    return cap


__all__ = [
    "OptimizerConfig",
    "OptimizerState",
    "Optimizer",
    "make_state",
    "optimizer_step",
    "quadratic_convergence_probe",
    "KINDS",
    "GD",
    "MOMENTUM",
    "ADAGRAD",
    "ADADELTA",
    "RMSPROP",
    "ADAM",
    "FTRL",
    "PROXIMAL_GD",
    "PROXIMAL_ADAGRAD",
]
