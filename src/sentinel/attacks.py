"""Sensor subsets and sensor-channel attack models.

Attacks act on the output rows of a recorded trajectory and never touch
the input channel. Sensors are 1-based. Three attack shapes are modeled:
additive data injection from an onset time, per-channel time delays, and
replay of constant recorded values.
"""

import sys
from dataclasses import dataclass
from itertools import combinations
from typing import Callable, Optional, Union

import numpy as np

from .datamat import Trajectory, read_json_object, write_json
from .linalg import as_integer

# magnitude range of seeded injection values
INJECTION_LOW = 0.25
INJECTION_HIGH = 1.25


class AttackBudgetError(ValueError):
    """A scenario touches more sensors than the configured budget allows."""


def enumerate_subsets(n_sensors: int, max_attacked: int) -> tuple[tuple[int, ...], ...]:
    """All cardinality-(N - M) sensor subsets in lexicographic order, each a
    sorted tuple of 1-based sensor indices; a subset's id is its 1-based
    position."""
    size = n_sensors - max_attacked
    if not 0 < size <= n_sensors:
        raise ValueError(
            f"need 0 < N - M <= N, got N={n_sensors}, M={max_attacked}")
    return tuple(combinations(range(1, n_sensors + 1), size))


@dataclass(frozen=True)
class InjectionAttack:
    """Additive corruption on selected sensors from an onset time.

    signal(sensor, k) gives the value added to that sensor at absolute
    time k; nothing is added before the onset. A sensor may be targeted
    only once.
    """

    targets: tuple[int, ...]
    onset: int
    signal: Callable[[int, int], float]
    seed: Optional[int] = None

    def __post_init__(self):
        if len(set(self.targets)) != len(self.targets):
            raise ValueError(f"injection targets must be distinct, got {self.targets}")

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


def seeded_injection_signal(seed: int, onset: int) -> Callable[[int, int], float]:
    """Deterministic per-(sensor, k) injection values, zero at the onset step.

    Magnitudes are uniform in [INJECTION_LOW, INJECTION_HIGH] with a random
    sign; each value is derived from (seed, sensor, k) alone, so evaluation
    order never matters.
    """

    def signal(sensor: int, k: int) -> float:
        if k == onset:
            return 0.0
        rng = np.random.default_rng([seed, sensor, k])
        magnitude = rng.uniform(INJECTION_LOW, INJECTION_HIGH)
        sign = 1.0 if rng.uniform() < 0.5 else -1.0
        return sign * magnitude

    return signal


def apply_attack(traj: Trajectory, scenario: AttackScenario,
                 max_attacked: Optional[int] = None) -> Trajectory:
    """Return the trajectory an operator would receive under the scenario.

    Injection adds signal(i, k) to targeted rows for k >= onset (absolute
    time, honoring traj.start_index). Delay shifts row i right by its
    delay, filling with zeros, which is exact for a run started at
    equilibrium. Replay overwrites rows with their constants. The input
    record is carried over unchanged.
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
        for k in range(scenario.onset, traj.start_index + traj.length):
            for sensor in scenario.targets:
                y[sensor - 1, k - traj.start_index] += scenario.signal(sensor, k)
    elif isinstance(scenario, DelayAttack):
        if len(scenario.delays) != traj.output_dim:
            raise ValueError(
                f"need one delay per sensor ({traj.output_dim}), got {len(scenario.delays)}")
        for sensor, delay in enumerate(scenario.delays, start=1):
            if delay > traj.length:
                raise ValueError(f"sensor {sensor}: delay {delay} exceeds the "
                                 f"{traj.length}-sample record")
            y[sensor - 1, :delay] = 0.0
            y[sensor - 1, delay:] = traj.y[sensor - 1, : traj.length - delay]
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
    write_json(payload, path)


def _sensor_key(key: str) -> int:
    """The sensor number a replay constants key names, else TypeError."""
    if not key.isdecimal():
        raise TypeError(f"{key!r} is not an integer")
    return int(key)


def _replay_constant(key: str, value) -> float:
    """A replay constant: a finite JSON number (an int or a float that a float
    holds, not a bool or a string), else ValueError naming its key."""
    if (isinstance(value, bool) or not isinstance(value, (int, float))
            or not abs(value) <= sys.float_info.max):
        raise ValueError(f"replay scenario constant {key!r} is {value!r}; it must be a finite "
                         "number")
    return float(value)


def load_scenario(path) -> AttackScenario:
    """Read a scenario file written by save_scenario. A missing or mistyped field
    (a string, bool or fraction where an integer belongs too) raises ValueError
    naming the type, as does a replay constant that is not a finite number."""
    payload = read_json_object(path, "scenario")
    kind = payload.get("type")
    try:
        if kind == "injection":
            seed = as_integer(payload["seed"])
            onset = as_integer(payload["onset"])
            return InjectionAttack(tuple(as_integer(t) for t in payload["targets"]), onset,
                                   seeded_injection_signal(seed, onset), seed)
        if kind == "delay":
            return DelayAttack(tuple(as_integer(d) for d in payload["tau"]))
        if kind == "replay":
            # JSON object keys are strings, so the sensor numbers are read as decimals
            constants = payload["constants"]
            return ReplayAttack({_sensor_key(k): _replay_constant(k, v)
                                 for k, v in constants.items()})
    except KeyError as exc:
        raise ValueError(f"{kind} scenario has no field {exc}") from exc
    except (TypeError, AttributeError) as exc:
        raise ValueError(f"{kind} scenario has a field of the wrong type: {exc}") from exc
    raise ValueError(f"unknown scenario type {kind!r}")
