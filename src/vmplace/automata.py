"""Per-VM learning automata over the server action set, linear reward with optional penalty."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "Automaton",
    "AutomatonBank",
    "init_bank",
    "reward",
    "penalize",
    "sample_assignments",
    "update_from_population",
]

_SIMPLEX_TOL = 1e-9
_RENORM_TOL = 1e-12


@dataclass(frozen=True)
class Automaton:
    """Action-probability vector over the m candidate servers."""

    probs: np.ndarray

    def __post_init__(self) -> None:
        probs = np.asarray(self.probs, dtype=np.float64)
        object.__setattr__(self, "probs", probs)
        if probs.ndim != 1 or probs.size == 0:
            raise ValueError("probs must be a non-empty 1-D vector")
        if probs.min() < 0.0:
            raise ValueError("probabilities must be non-negative")
        if abs(probs.sum() - 1.0) > _SIMPLEX_TOL:
            raise ValueError("probabilities must sum to 1")
        probs.flags.writeable = False

    @property
    def m(self) -> int:
        return self.probs.size


@dataclass(frozen=True)
class AutomatonBank:
    """One automaton per VM, stored as the rows of an (n, m) probability matrix.

    All automata share the same m-server action set.
    """

    probs: np.ndarray
    reward_a: float = 0.5
    penalty_b: float = 0.05

    def __post_init__(self) -> None:
        probs = np.asarray(self.probs, dtype=np.float64)
        object.__setattr__(self, "probs", probs)
        if probs.ndim != 2 or probs.size == 0:
            raise ValueError("probs must be a non-empty (n, m) matrix")
        if probs.min() < 0.0:
            raise ValueError("probabilities must be non-negative")
        if np.abs(probs.sum(axis=1) - 1.0).max() > _SIMPLEX_TOL:
            raise ValueError("every row of probabilities must sum to 1")
        probs.flags.writeable = False
        _check_factors(self.reward_a, self.penalty_b)

    @property
    def n(self) -> int:
        return self.probs.shape[0]

    @property
    def m(self) -> int:
        return self.probs.shape[1]

    @property
    def automata(self) -> tuple[Automaton, ...]:
        """The rows as one-automaton objects."""
        return tuple(Automaton(row) for row in self.probs)


def _check_factors(reward_a: float, penalty_b: float) -> None:
    """Raise ValueError unless ``reward_a`` lies in (0, 1) and ``penalty_b`` in [0, 1)."""
    if not 0.0 < reward_a < 1.0:
        raise ValueError("reward_a must lie in (0, 1)")
    if not 0.0 <= penalty_b < 1.0:
        raise ValueError("penalty_b must lie in [0, 1)")


def init_bank(
    n: int, m: int, reward_a: float = AutomatonBank.reward_a, penalty_b: float = AutomatonBank.penalty_b
) -> AutomatonBank:
    """Bank of n automata, each uniform over m actions."""
    if n < 1 or m < 1:
        raise ValueError("need n >= 1 automata and m >= 1 actions")
    return AutomatonBank(np.full((n, m), 1.0 / m), reward_a, penalty_b)


def _renormalized(q: np.ndarray) -> Automaton:
    total = q.sum()
    if abs(total - 1.0) > _RENORM_TOL:
        q = q / total
    return Automaton(q)


def _renormalized_rows(q: np.ndarray) -> np.ndarray:
    """Row-wise ``_renormalized``, in place: rows whose sum drifted are divided by it."""
    total = q.sum(axis=1, keepdims=True)
    return np.divide(q, total, out=q, where=np.abs(total - 1.0) > _RENORM_TOL)


def _check_action(action: int, m: int) -> int:
    i = int(action) - 1
    if not 0 <= i < m:
        raise IndexError(f"action {action} out of range 1..{m}")
    return i


def reward(auto: Automaton, action: int, a: float) -> Automaton:
    """Shift probability mass toward ``action`` (1-based): p_i += a(1 - p_i), rest scaled by 1 - a."""
    if not 0.0 <= a <= 1.0:
        raise ValueError("reward factor must lie in [0, 1]")
    i = _check_action(action, auto.m)
    q = auto.probs * (1.0 - a)
    q[i] += a
    return _renormalized(q)


def penalize(auto: Automaton, action: int, b: float) -> Automaton:
    """Shift mass away from ``action`` (1-based): p_i scaled by 1 - b, rest gain b/(m-1) each."""
    if not 0.0 <= b <= 1.0:
        raise ValueError("penalty factor must lie in [0, 1]")
    i = _check_action(action, auto.m)
    if auto.m == 1:
        return auto
    q = auto.probs * (1.0 - b) + b / (auto.m - 1)
    q[i] = (1.0 - b) * auto.probs[i]
    return _renormalized(q)


def sample_assignments(bank: AutomatonBank, k: int, rng: np.random.Generator) -> np.ndarray:
    """k placements drawn from the bank as a (k, n) array of 0-based server indices."""
    # a C-ordered (m, n) copy: counting over the leading axis of the (m, k, n)
    # comparison then reads contiguous rows, about half the old (k, n, m) cost
    cum = np.cumsum(bank.probs, axis=1).T.copy()
    u = rng.random((k, bank.n))
    idx = (cum[:, None, :] <= u).sum(axis=0)
    if idx.max(initial=0) == bank.m:  # a draw at or above a row total that rounded below 1: take its last positive action
        idx = np.minimum(idx, bank.m - 1 - np.argmax(bank.probs[:, ::-1] > 0, axis=1))
    return idx


def _checked_row(row, bank: AutomatonBank) -> np.ndarray:
    row = np.asarray(row)
    if row.shape != (bank.n,):
        raise ValueError("placement length must match bank size")
    if row.min() < 0 or row.max() >= bank.m:
        raise IndexError(f"server index out of range 0..{bank.m - 1}")
    return row


def update_from_population(bank: AutomatonBank, best_row, worst_row) -> AutomatonBank:
    """Reward each VM's server in ``best_row``, then penalize its server in ``worst_row``.

    Rows hold 0-based server indices, one per VM, as ``sample_assignments``
    returns them.  Row by row this is ``reward`` then ``penalize``, bit for bit.
    """
    best = _checked_row(best_row, bank)
    worst = _checked_row(worst_row, bank)
    a, b, vms = bank.reward_a, bank.penalty_b, np.arange(bank.n)
    q = bank.probs * (1.0 - a)
    q[vms, best] += a
    p = _renormalized_rows(q)
    if bank.m > 1:
        q = p * (1.0 - b) + b / (bank.m - 1)
        q[vms, worst] = (1.0 - b) * p[vms, worst]
        p = _renormalized_rows(q)
    return AutomatonBank(p, a, b)
