"""Sensor subsets and sensor-channel attack models.

Attacks act on the output rows of a recorded trajectory and never touch
the input channel. Sensors are 1-based. Three attack shapes are modeled:
additive data injection from an onset time, per-channel time delays, and
replay of constant recorded values.
"""

import json
from dataclasses import dataclass
from itertools import combinations
from typing import Callable, Optional, Union

import numpy as np

from .datamat import Trajectory
from .linalg import as_matrix


class AttackBudgetError(ValueError):
    """A scenario touches more sensors than the configured budget allows."""


@dataclass(frozen=True)
class SensorSubset:
    """A sorted set of sensor indices with its 1-based lexicographic id."""

    id: int
    indices: tuple[int, ...]

    def __post_init__(self):
        idx = tuple(int(i) for i in self.indices)
        if not idx:
            raise ValueError("a sensor subset cannot be empty")
        if any(i < 1 for i in idx) or list(idx) != sorted(set(idx)):
            raise ValueError(f"subset indices must be strictly increasing and >= 1, got {idx}")
        object.__setattr__(self, "indices", idx)

    @property
    def size(self) -> int:
        return len(self.indices)


def enumerate_subsets(n_sensors: int, max_attacked: int) -> list[SensorSubset]:
    """All cardinality-(N - M) sensor subsets in lexicographic order, ids 1-based."""
    size = n_sensors - max_attacked
    if not 0 < size <= n_sensors:
        raise ValueError(
            f"need 0 < N - M <= N, got N={n_sensors}, M={max_attacked}")
    combos = combinations(range(1, n_sensors + 1), size)
    return [SensorSubset(j + 1, combo) for j, combo in enumerate(combos)]


@dataclass(frozen=True)
class InjectionAttack:
    """Additive corruption on selected sensors from an onset time.

    signal(sensor, k) gives the value added to that sensor at absolute
    time k; nothing is added before the onset.
    """

    targets: tuple[int, ...]
    onset: int
    signal: Callable[[int, int], float]
    seed: Optional[int] = None

    def attacked_sensors(self) -> tuple[int, ...]:
        return tuple(sorted(self.targets))


@dataclass(frozen=True)
class DelayAttack:
    """Per-sensor nonnegative integer delays; entry i-1 delays sensor i."""

    delays: tuple[int, ...]

    def __post_init__(self):
        if any(d < 0 for d in self.delays):
            raise ValueError(f"delays must be nonnegative, got {self.delays}")

    def attacked_sensors(self) -> tuple[int, ...]:
        return tuple(i + 1 for i, d in enumerate(self.delays) if d > 0)


@dataclass(frozen=True)
class ReplayAttack:
    """Constant replayed values on selected sensors, held for all time."""

    constants: dict

    def attacked_sensors(self) -> tuple[int, ...]:
        return tuple(sorted(int(i) for i in self.constants))


AttackScenario = Union[InjectionAttack, DelayAttack, ReplayAttack]


def seeded_injection_signal(seed: int, onset: int, low: float = 0.25,
                            high: float = 1.25) -> Callable[[int, int], float]:
    """Deterministic per-(sensor, k) injection values, zero at the onset step.

    Magnitudes are uniform in [low, high] with a random sign; each value is
    derived from (seed, sensor, k) alone, so evaluation order never matters.
    """

    def signal(sensor: int, k: int) -> float:
        if k == onset:
            return 0.0
        rng = np.random.default_rng([seed, sensor, k])
        magnitude = rng.uniform(low, high)
        sign = 1.0 if rng.uniform() < 0.5 else -1.0
        return sign * magnitude

    return signal


def apply_attack(traj: Trajectory, scenario: AttackScenario,
                 prehistory: Optional[np.ndarray] = None,
                 max_attacked: Optional[int] = None) -> Trajectory:
    """Return the trajectory an operator would receive under the scenario.

    Injection adds signal(i, k) to targeted rows for k >= onset (absolute
    time, honoring traj.start_index). Delay shifts row i right by its
    delay, filling from `prehistory` (p x max-delay, newest sample last)
    or zeros, which is exact for a run started at equilibrium. Replay
    overwrites rows with their constants. The input record is carried
    over unchanged.
    """
    attacked = scenario.attacked_sensors()
    if any(not 1 <= i <= traj.output_dim for i in attacked):
        raise ValueError(f"attacked sensors {attacked} out of range 1..{traj.output_dim}")
    if max_attacked is not None and len(attacked) > max_attacked:
        raise AttackBudgetError(
            f"scenario touches {len(attacked)} sensors, budget allows {max_attacked}")
    y = np.array(traj.y, dtype=float)
    if isinstance(scenario, InjectionAttack):
        if not traj.start_index <= scenario.onset < traj.start_index + traj.length:
            raise ValueError(
                f"onset {scenario.onset} outside recorded window "
                f"[{traj.start_index}, {traj.start_index + traj.length - 1}]")
        for col in range(traj.length):
            k = traj.start_index + col
            if k < scenario.onset:
                continue
            for sensor in scenario.targets:
                y[sensor - 1, col] += scenario.signal(sensor, k)
    elif isinstance(scenario, DelayAttack):
        if len(scenario.delays) != traj.output_dim:
            raise ValueError(
                f"need one delay per sensor ({traj.output_dim}), got {len(scenario.delays)}")
        max_delay = max(scenario.delays, default=0)
        if prehistory is None:
            pre = np.zeros((traj.output_dim, max_delay))
        else:
            pre = as_matrix(prehistory, "prehistory") if max_delay else np.zeros((traj.output_dim, 0))
            if max_delay and (pre.shape[0] != traj.output_dim or pre.shape[1] < max_delay):
                raise ValueError(
                    f"prehistory must be {traj.output_dim} x >= {max_delay}, got {pre.shape}")
        for sensor, delay in enumerate(scenario.delays, start=1):
            if delay == 0:
                continue
            row = traj.y[sensor - 1, :]
            shifted = np.empty_like(row)
            shifted[delay:] = row[: traj.length - delay]
            shifted[:delay] = pre[sensor - 1, pre.shape[1] - delay:]
            y[sensor - 1, :] = shifted
    elif isinstance(scenario, ReplayAttack):
        for sensor, value in scenario.constants.items():
            y[int(sensor) - 1, :] = float(value)
    else:
        raise TypeError(f"unknown attack scenario {type(scenario).__name__}")
    return Trajectory(traj.u, y, traj.start_index)


def save_scenario(scenario: AttackScenario, path) -> None:
    """Write a scenario file. Injection scenarios must carry a seed so the
    signal can be rebuilt on load."""
    if isinstance(scenario, InjectionAttack):
        if scenario.seed is None:
            raise ValueError("only seeded injection scenarios can be saved")
        payload = {"type": "injection", "targets": list(scenario.targets),
                   "onset": scenario.onset, "seed": scenario.seed}
    elif isinstance(scenario, DelayAttack):
        payload = {"type": "delay", "tau": list(scenario.delays)}
    elif isinstance(scenario, ReplayAttack):
        payload = {"type": "replay",
                   "constants": {str(k): float(v) for k, v in scenario.constants.items()}}
    else:
        raise TypeError(f"unknown attack scenario {type(scenario).__name__}")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def load_scenario(path) -> AttackScenario:
    """Read a scenario file written by save_scenario."""
    with open(path, "r", encoding="utf-8") as fh:
        payload = json.load(fh)
    kind = payload.get("type")
    if kind == "injection":
        seed = int(payload["seed"])
        onset = int(payload["onset"])
        return InjectionAttack(tuple(int(t) for t in payload["targets"]), onset,
                               seeded_injection_signal(seed, onset), seed)
    if kind == "delay":
        return DelayAttack(tuple(int(d) for d in payload["tau"]))
    if kind == "replay":
        return ReplayAttack({int(k): float(v) for k, v in payload["constants"].items()})
    raise ValueError(f"unknown scenario type {kind!r}")
