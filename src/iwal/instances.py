"""Synthetic distributions with enumerable or samplable structure.

Discrete instances carry a finite atom support with per-atom label
distributions, so true losses are exact sums; they back the estimator,
concentration, and survivor-consistency checks. The sphere instance is
generative: uniform directions labeled by their first coordinate's sign,
with label noise.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .hypotheses import LinearPredictor, TablePredictor
from .losses import LossFunction

_MASS_TOL = 1e-12


@dataclass
class DiscreteInstance:
    """Finitely supported distribution over (x, y).

    points: (n, d) atom locations, masses: (n,) probabilities,
    label_values: (m,) the label alphabet, label_probs: (n, m) per-atom
    conditional label probabilities.
    """

    points: np.ndarray
    masses: np.ndarray
    label_values: np.ndarray
    label_probs: np.ndarray
    best: Optional[object] = None

    def __post_init__(self):
        self.points = np.atleast_2d(np.asarray(self.points, dtype=float))
        self.masses = np.asarray(self.masses, dtype=float)
        self.label_values = np.asarray(self.label_values, dtype=float)
        self.label_probs = np.atleast_2d(np.asarray(self.label_probs, dtype=float))
        if abs(self.masses.sum() - 1.0) > _MASS_TOL:
            raise ValueError("atom masses must sum to 1")
        if np.any(self.masses < 0):
            raise ValueError("atom masses must be nonnegative")
        if np.any(self.label_probs < -_MASS_TOL) or np.any(self.label_probs > 1 + _MASS_TOL):
            raise ValueError("conditional label probabilities must lie in [0, 1]")
        if np.any(np.abs(self.label_probs.sum(axis=1) - 1.0) > 1e-9):
            raise ValueError("conditional label probabilities must sum to 1")

    @classmethod
    def binary(cls, points, masses, p_plus, **kwargs) -> "DiscreteInstance":
        """Convenience constructor for labels in {-1, +1}."""
        p_plus = np.asarray(p_plus, dtype=float)
        probs = np.stack([1.0 - p_plus, p_plus], axis=1)
        return cls(points, masses, np.array([-1.0, 1.0]), probs, **kwargs)

    @property
    def dim(self) -> int:
        return self.points.shape[1]

    def label_support(self) -> tuple:
        used = np.any(self.label_probs > 0, axis=0)
        return tuple(float(v) for v in self.label_values[used])

    def sample(self, rng: np.random.Generator, size: int):
        """Draw (X, y) of the given size."""
        atom_idx = rng.choice(len(self.masses), size=size, p=self.masses)
        X = self.points[atom_idx]
        cum = np.cumsum(self.label_probs, axis=1)[atom_idx]
        u = rng.random(size)
        label_idx = np.minimum((u[:, None] > cum).sum(axis=1),
                               len(self.label_values) - 1)
        y = self.label_values[label_idx]
        return X, y.astype(float)

    def exact_loss(self, predictor, loss: LossFunction) -> float:
        """True normalized loss of the predictor, by enumeration of the atoms
        and of the labels they take."""
        used = np.any(self.label_probs > 0, axis=0)
        z = loss.checked_predictions(predictor.predict_many(self.points))
        values = loss.unchecked_values(z, loss.label_column(self.label_values[used]))
        return float(self.masses @ (self.label_probs[:, used] * values.T).sum(axis=1))

    def exact_best(self, predictors, loss: LossFunction):
        """(index, predictor, loss) of the exact minimizer over the predictors."""
        losses = [self.exact_loss(h, loss) for h in predictors]
        idx = int(np.argmin(losses))
        return idx, predictors[idx], losses[idx]


@dataclass
class HardQueryInstance:
    """A heavy obvious atom plus light noisy atoms forcing many queries.

    Construction: atom 0 gets mass 1 - beta and is always labeled +1; each of
    the remaining atoms gets mass beta/(n-1) and is labeled +1 with
    probability 1/2 + gamma * b_i for hidden signs b_i, where
    beta = 2 * (eta + 2 * eps) and gamma = 2 * eps / beta. The best
    achievable error is exactly beta * (1/2 - gamma) = eta.
    """

    instance: DiscreteInstance
    beta: float
    gamma: float
    bits: np.ndarray
    optimal_error: float


def check_lower_bound(num_atoms: int, eta: float, eps: float) -> None:
    """ValueError unless 2 * eps <= eta <= 1/4 and there are two atoms or more."""
    if num_atoms < 2:
        raise ValueError("need at least 2 atoms")
    if not (0 < eps and 2 * eps <= eta <= 0.25):
        raise ValueError("parameters must satisfy 0 < 2*eps <= eta <= 1/4")


def lower_bound_instance(num_atoms: int, eta: float, eps: float,
                         rng: np.random.Generator) -> HardQueryInstance:
    """Build the hard distribution for the query lower bound; its arguments
    must pass `check_lower_bound`."""
    check_lower_bound(num_atoms, eta, eps)
    beta = 2.0 * (eta + 2.0 * eps)
    gamma = 2.0 * eps / beta
    bits = np.where(rng.random(num_atoms - 1) < 0.5, -1.0, 1.0)
    points = np.eye(num_atoms)
    masses = np.full(num_atoms, beta / (num_atoms - 1))
    masses[0] = 1.0 - beta
    p_plus = np.concatenate([[1.0], 0.5 + gamma * bits])
    table = {tuple(points[0]): 1.0}
    for i in range(1, num_atoms):
        table[tuple(points[i])] = float(bits[i - 1])
    best = TablePredictor(table)
    inst = DiscreteInstance.binary(points, masses, p_plus, best=best)
    return HardQueryInstance(inst, beta, gamma, bits, beta * (0.5 - gamma))


def point_mass_instance(beta: float, dim: int = 2,
                        binary_labels: bool = False) -> DiscreteInstance:
    """Origin mass 1 - beta always labeled +1, plus a light far atom.

    With binary_labels=False the far atom at (1, 0, ..., 0) is labeled -1
    half the time and 0 otherwise (the squared-loss showcase where every
    linear predictor agrees at the origin). With binary_labels=True the far
    atom flips a fair -1/+1 coin, giving a plain binary classification
    stream.
    """
    if not 0.0 < beta < 1.0:
        raise ValueError("beta must lie in (0, 1)")
    if dim < 1:
        raise ValueError("dimension must be at least 1")
    points = np.zeros((2, dim))
    points[1, 0] = 1.0
    masses = np.array([1.0 - beta, beta])
    if binary_labels:
        return DiscreteInstance.binary(points, masses, p_plus=np.array([1.0, 0.5]))
    label_values = np.array([-1.0, 0.0, 1.0])
    label_probs = np.array([
        [0.0, 0.0, 1.0],
        [0.5, 0.5, 0.0],
    ])
    return DiscreteInstance(points, masses, label_values, label_probs)


@dataclass
class SphereInstance:
    """Uniform directions on the unit sphere, labeled by the first axis.

    Labels are sign(x_1) with independent flips at the noise rate.
    """

    dim: int
    noise: float = 0.0

    def __post_init__(self):
        if self.dim < 2:
            raise ValueError("dimension must be at least 2")
        if not 0.0 <= self.noise < 0.5:
            raise ValueError("noise rate must lie in [0, 0.5)")

    def label_support(self) -> tuple:
        return (-1.0, 1.0)

    def sample(self, rng: np.random.Generator, size: int):
        X = rng.normal(size=(size, self.dim))
        X /= np.linalg.norm(X, axis=1, keepdims=True)
        y = np.where(X[:, 0] >= 0, 1.0, -1.0)
        flips = rng.random(size) < self.noise
        y[flips] = -y[flips]
        return X, y

    def linear_reference(self, scale: float = 1.0,
                         range_bound: float = 1.0) -> LinearPredictor:
        return LinearPredictor(scale * np.eye(self.dim)[0], range_bound)
