"""Problem instances: parsing, time-window tightening and dataset construction.

Index convention: location 0 is the origin depot, 1..n are pickups,
n+1..2n the matching deliveries, and 2n+1 the destination depot.
Service time is embedded at the arc tail: T[i, j] = dist(i, j) + service[i].
All times are minutes (floats); comparisons use EPS.
"""
from __future__ import annotations

import dataclasses
import functools
import json
import math
from dataclasses import dataclass

import numpy as np

EPS = 1e-6

#: parameter values used by the benchmark experiments; anything else needs
#: unchecked=True
LARGE_FRACTIONS = (0.0, 1.0 / 6.0, 1.0 / 3.0)
PICKUP_WIDTHS = (15.0, 30.0)
RIDE_FACTORS = (1.5, 1.75, 2.0)
FLEET_MULTIPLIERS = (3, 4, 5)
VARIANTS = ("darpsv-set2", "darp", "pdptw")


class InstanceError(ValueError):
    """Malformed instance data (parse or structural failure)."""


class InfeasibleCustomerError(ValueError):
    """A customer's windows/ride limit admit no feasible visit."""

    def __init__(self, customer: int, detail: str):
        self.customer = customer
        super().__init__(f"customer {customer} is infeasible: {detail}")


@dataclass(frozen=True)
class DatasetParams:
    """Parameter point of the benchmark grid."""

    r_l: float = 1.0 / 3.0
    p_tw: float = 15.0
    p_de: float = 1.5
    fleet_multiplier: int = 4
    variant: str = "darpsv-set2"
    unchecked: bool = False

    def __post_init__(self):
        if self.variant not in VARIANTS:
            raise InstanceError(f"unknown variant {self.variant!r}")
        if self.unchecked:
            return
        if not any(abs(self.r_l - v) < EPS for v in LARGE_FRACTIONS):
            raise InstanceError(f"R_L={self.r_l} outside {LARGE_FRACTIONS}")
        if self.p_tw not in PICKUP_WIDTHS:
            raise InstanceError(f"P_TW={self.p_tw} outside {PICKUP_WIDTHS}")
        if self.p_de not in RIDE_FACTORS:
            raise InstanceError(f"P_De={self.p_de} outside {RIDE_FACTORS}")
        if self.fleet_multiplier not in FLEET_MULTIPLIERS:
            raise InstanceError(
                f"fleet multiplier {self.fleet_multiplier} outside {FLEET_MULTIPLIERS}"
            )


def _cast(to, **kwargs):
    """An Instance field that __post_init__ converts with to."""
    return dataclasses.field(metadata={"cast": to}, **kwargs)


def _whole(value):
    """value as an int, or an int array for a sequence (an int array is not
    copied).  A number that is not integral (2.5, NaN) is an InstanceError
    where int() would truncate it; an integral float such as 3.0 passes."""
    given = np.asarray(value)
    if given.dtype.kind != "i":
        given = given.astype(float)
        bad = given[~(np.isfinite(given) & (given == np.rint(given)))]
        if bad.size:
            raise InstanceError(f"{bad[0]:g} is not an integer")
    whole = given.astype(int, copy=False)
    return whole if whole.ndim else int(whole)


_floats = functools.partial(np.asarray, dtype=float)


@dataclass(eq=False)
class Instance:
    """DARP-SV instance; treat it as immutable and derive copies with replace.

    Attributes
    ----------
    n : customer count; locations number 2n+2.
    vehicles : fleet size |V|.
    capacity : vehicle capacity Q.
    demand : signed load change q_i per location (length 2n+2).
    earliest/latest : window bounds per location.
    service : service duration per location.
    ride : per-customer ride limit R_i, indexed 1..n (position 0 unused).
    travel_time/travel_cost : dense (2n+2)^2 matrices T and C.
    meta : provenance such as dataset parameters; saved only if non-empty.

    Equality and hashing are by identity (eq=False).
    """

    name: str = _cast(str)
    n: int = _cast(_whole)
    vehicles: int = _cast(_whole)
    capacity: int = _cast(_whole)
    xy: np.ndarray = _cast(_floats)
    service: np.ndarray = _cast(_floats)
    demand: np.ndarray = _cast(_whole)
    earliest: np.ndarray = _cast(_floats)
    latest: np.ndarray = _cast(_floats)
    ride: np.ndarray = _cast(_floats)
    travel_time: np.ndarray = _cast(_floats)
    travel_cost: np.ndarray = _cast(_floats)
    meta: dict = _cast(lambda m: dict(m or {}), default=None)

    def __post_init__(self):
        for f in dataclasses.fields(self):
            try:
                value = f.metadata["cast"](getattr(self, f.name))
            except InstanceError as exc:
                raise InstanceError(f"{f.name}: {exc}") from None
            setattr(self, f.name, value)
        self._validate()
        # a window inverted within EPS becomes the point e: HiGHS rejects
        # inverted bounds, and a grid on it would hold only l < e
        self.latest = np.maximum(self.latest, self.earliest)
        # vehicles_required per location, read for every network arc
        self._required = [max(1, math.ceil(abs(q) / self.capacity))
                          for q in self.demand.tolist()]

    # -- structure ---------------------------------------------------------

    @property
    def num_locations(self) -> int:
        return 2 * self.n + 2

    @property
    def origin(self) -> int:
        return 0

    @property
    def destination(self) -> int:
        return 2 * self.n + 1

    @property
    def pickups(self) -> range:
        return range(1, self.n + 1)

    @property
    def deliveries(self) -> range:
        return range(self.n + 1, 2 * self.n + 1)

    def is_pickup(self, i: int) -> bool:
        return 1 <= i <= self.n

    def is_delivery(self, i: int) -> bool:
        return self.n < i <= 2 * self.n

    def is_large(self, customer: int) -> bool:
        return self.demand[customer] > self.capacity

    @property
    def large_pickups(self) -> tuple:
        return tuple(i for i in self.pickups if self.is_large(i))

    @property
    def small_pickups(self) -> tuple:
        return tuple(i for i in self.pickups if not self.is_large(i))

    def vehicles_required(self, loc: int) -> int:
        """Number of synchronized vehicles that serve location loc: a
        customer needs ceil(q / Q) at its pickup and its delivery, a depot
        counts one."""
        return self._required[loc]

    def arc_cap(self, i: int, j: int) -> int:
        """Most vehicles that traverse location arc i -> j together: the
        smaller requirement of its ends, a depot end taking the other's."""
        required = self._required
        if i == self.origin:
            return required[j]
        if j == self.destination:
            return required[i]
        return min(required[i], required[j])

    def _validate(self):
        m = self.num_locations
        if self.capacity <= 0:
            raise InstanceError(f"vehicle capacity must be positive, "
                                f"got {self.capacity}")
        if self.vehicles < 0:
            raise InstanceError(f"fleet size must be nonnegative, "
                                f"got {self.vehicles}")
        if self.travel_time.shape != (m, m) or self.travel_cost.shape != (m, m):
            raise InstanceError("travel matrices must be (2n+2) square")
        if len(self.earliest) != m or len(self.latest) != m:
            raise InstanceError("window arrays must have 2n+2 entries")
        if len(self.ride) != self.n + 1:
            raise InstanceError("ride array must have n+1 entries")
        for name in ("xy", "service", "earliest", "latest", "ride",
                     "travel_time", "travel_cost"):
            if not np.isfinite(getattr(self, name)).all():
                raise InstanceError(f"{name} must hold finite numbers")
        if self.demand[0] != 0 or self.demand[self.destination] != 0:
            raise InstanceError("depot load change must be zero")
        for i in self.pickups:
            if self.demand[i] <= 0:
                raise InstanceError(f"pickup {i} must have positive demand")
            if self.demand[i + self.n] != -self.demand[i]:
                raise InstanceError(f"delivery {i + self.n} must negate pickup {i}")
        if np.any(self.earliest > self.latest + EPS):
            bad = int(np.argmax(self.earliest > self.latest + EPS))
            raise InstanceError(f"window collapsed at location {bad}")
        if np.any(self.travel_time < -EPS) or np.any(self.travel_cost < -EPS):
            raise InstanceError("travel matrices must be nonnegative")

    # -- construction helpers ---------------------------------------------

    def replace(self, **changes) -> "Instance":
        """A validated copy with the given fields changed."""
        return dataclasses.replace(self, **changes)

    def __repr__(self):
        return (f"Instance({self.name!r}, n={self.n}, |V|={self.vehicles}, "
                f"Q={self.capacity}, large={len(self.large_pickups)})")


def _euclid(xy: np.ndarray) -> np.ndarray:
    diff = xy[:, None, :] - xy[None, :, :]
    return np.sqrt((diff ** 2).sum(axis=-1))


def from_rows(name, vehicles, capacity, ride_limit, rows) -> Instance:
    """Build an instance from classic rows ``id x y service load e l``
    (depots included) and a global ride limit; T embeds service at the
    tail, C is the raw distance."""
    m = len(rows)
    if m % 2 != 0 or m < 2:
        raise InstanceError(f"expected 2n+2 location rows, got {m}")
    n = (m - 2) // 2
    _, x, y, service, demand, earliest, latest = (
        np.array(column) for column in zip(*rows))
    xy = np.column_stack((x, y))
    dist = _euclid(xy)
    travel_time = dist + service[:, None]
    # ride limit compares departure times, so the delivery's own service
    # counts against it
    ride = np.zeros(n + 1)
    ride[1:] = ride_limit + service[n + 1:2 * n + 1]
    return Instance(name, n, vehicles, capacity, xy, service, demand,
                    earliest, latest, ride, travel_time, dist)


def parse_cordeau(text: str, name: str = "instance") -> Instance:
    """Parse a classic benchmark file.

    Header: ``vehicles customers route_duration capacity ride_limit``
    followed by one line per location: ``id x y service load e l``.
    The origin depot comes first; the destination depot is either a
    duplicated final row or synthesized as a copy of the origin.  Some
    distributions put the node count (2n) in the header instead of n;
    both are accepted.
    """
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines:
        raise InstanceError("empty instance file")
    header = lines[0].split()
    if len(header) < 5:
        raise InstanceError(f"line 1: header needs 5 fields, got {len(header)}")
    try:
        vehicles = int(header[0])
        count = int(header[1])
        capacity = _whole(float(header[3]))
        ride_limit = float(header[4])
    except ValueError as exc:
        raise InstanceError(f"line 1: bad header value ({exc})") from exc

    rows = []
    for lineno, ln in enumerate(lines[1:], start=2):
        parts = ln.split()
        if len(parts) != 7:
            raise InstanceError(f"line {lineno}: expected 7 fields, got {len(parts)}")
        try:
            row = [float(p) for p in parts]
            row[0], row[4] = _whole(row[0]), _whole(row[4])  # id, load
        except ValueError as exc:
            raise InstanceError(f"line {lineno}: bad value ({exc})") from exc
        rows.append(row)

    for n in (count, count // 2 if count % 2 == 0 else -1):
        if n >= 0 and len(rows) in (2 * n + 1, 2 * n + 2):
            break
    else:
        raise InstanceError(
            f"{len(rows)} location rows inconsistent with header count {count}")
    if len(rows) == 2 * n + 1:  # synthesize the destination depot
        rows.append([2 * n + 1] + rows[0][1:])
    return from_rows(name, vehicles, capacity, ride_limit, rows)


def tighten_windows(inst: Instance) -> Instance:
    """One forward-backward propagation pass over each customer's windows.

    Ride limits below the direct travel time are rejected first; with that
    precheck a single pass is a fixed point.
    """
    n = inst.n
    e = inst.earliest.copy()
    l = inst.latest.copy()
    T = inst.travel_time
    dest = inst.destination
    for i in range(1, n + 1):
        d = i + n
        if T[i, d] > inst.ride[i] + EPS:
            raise InfeasibleCustomerError(
                i, f"direct time {T[i, d]:.3f} exceeds ride limit {inst.ride[i]:.3f}")
        e[i] = max(e[i], e[d] - inst.ride[i], e[0] + T[0, i])
        l[d] = min(l[d], l[i] + inst.ride[i], l[dest] - T[d, dest])
        l[i] = min(l[i], l[d] - T[i, d])
        e[d] = max(e[d], e[i] + T[i, d])
        if e[i] > l[i] + EPS or e[d] > l[d] + EPS:
            raise InfeasibleCustomerError(
                i, f"window collapsed (pickup [{e[i]:.2f},{l[i]:.2f}], "
                   f"delivery [{e[d]:.2f},{l[d]:.2f}])")
    return inst.replace(earliest=e, latest=l)


def designate_large(inst: Instance, r_l: float) -> Instance:
    """Mark every k-th customer (k = round(1/R_L)) as large with q = 2Q.

    The deterministic index rule keeps dataset construction reproducible.
    """
    if not 0.0 <= r_l <= 1.0:  # NaN fails too
        raise InstanceError(f"large-customer fraction must lie in [0, 1], "
                            f"got {r_l}")
    if r_l <= EPS:
        return inst
    k = round(1.0 / r_l)
    demand = inst.demand.copy()
    for i in range(1, inst.n + 1):
        if i % k == 0:
            demand[i] = 2 * inst.capacity
            demand[i + inst.n] = -2 * inst.capacity
    return inst.replace(demand=demand)


def build_dataset1(inst: Instance, r_l: float = 1.0 / 3.0,
                   fleet_multiplier: int = 3) -> Instance:
    """First benchmark set: original windows, large customers designated,
    fleet scaled."""
    out = designate_large(inst, r_l)
    return out.replace(vehicles=inst.vehicles * fleet_multiplier,
                       name=f"{inst.name}-set1")


def build_dataset2(inst: Instance, params: DatasetParams) -> Instance:
    """Second benchmark set: pickups compressed into one hour, windows and
    ride limits rebuilt from direct travel times, horizon shifted by 30
    minutes.  Expects a tightened instance."""
    n = inst.n
    T = inst.travel_time
    e = inst.earliest.copy()
    l = inst.latest.copy()
    ride = inst.ride.copy()
    for i in range(1, n + 1):
        d = i + n
        e[i] = math.fmod(e[i], 60.0)
        l[i] = e[i] + params.p_tw
        e[d] = e[i] + T[i, d]
        l[d] = e[i] + params.p_de * T[i, d]
        if params.variant == "pdptw":
            ride[i] = 100.0 * T[i, d]
        else:
            ride[i] = params.p_de * T[i, d]
    e[1:2 * n + 1] += 30.0
    l[1:2 * n + 1] += 30.0
    sentinel = 10.0 * float(l[1:2 * n + 1].max()) if n else 10.0 * 60.0
    e[0] = 0.0
    # departing after the last latest pickup start is pointless; keeping the
    # origin window tight keeps the big-M rows on depot arcs small
    l[0] = float(l[1:n + 1].max()) if n else sentinel
    e[inst.destination] = 0.0
    l[inst.destination] = sentinel

    out = inst.replace(earliest=e, latest=l, ride=ride,
                       vehicles=inst.vehicles * params.fleet_multiplier,
                       name=f"{inst.name}-set2")
    if params.variant == "darpsv-set2":
        out = designate_large(out, params.r_l)
        if not out.large_pickups:
            import warnings
            warnings.warn(f"R_L={params.r_l} designates no large customers")
    return out


# -- serialization ----------------------------------------------------------

def to_json(inst: Instance) -> str:
    """Lossless JSON dump (round-trips through from_json); an empty meta is
    left out."""
    payload = {}
    for f in dataclasses.fields(inst):
        value = getattr(inst, f.name)
        if isinstance(value, np.ndarray):
            value = value.tolist()
        if value != {}:
            payload[f.name] = value
    return json.dumps(payload, indent=1)


def from_json(text: str) -> Instance:
    try:  # JSONDecodeError is a ValueError; missing keys raise TypeError
        return Instance(**json.loads(text))
    except (TypeError, ValueError) as exc:
        raise InstanceError(f"malformed JSON instance ({exc})") from exc


def load_instance(path: str) -> Instance:
    """Read an instance file, dispatching on extension (.json or text)."""
    with open(path) as fh:
        text = fh.read()
    name = path.rsplit("/", 1)[-1].rsplit(".", 1)[0]
    if path.endswith(".json"):
        return from_json(text)
    return parse_cordeau(text, name=name)


def random_instance(seed: int, n: int = 3, vehicles: int = 2, capacity: int = 2,
                    large_share: float = 0.3, horizon: float = 200.0,
                    window: float = 40.0) -> Instance:
    """Small random instance for randomized cross-checks and demos.

    Feasibility is not guaranteed; infeasible draws are legitimate inputs
    for solver-agreement checks.
    """
    rng = np.random.default_rng(seed)
    m = 2 * n + 2
    xy = rng.uniform(0.0, 15.0, size=(m, 2))
    xy[m - 1] = xy[0]
    service = np.zeros(m)
    service[1:2 * n + 1] = rng.integers(1, 4, size=2 * n)
    demand = np.zeros(m, dtype=int)
    for i in range(1, n + 1):
        q = 2 * capacity if rng.random() < large_share else int(rng.integers(1, capacity + 1))
        demand[i] = q
        demand[i + n] = -q
    dist = _euclid(xy)
    T = dist + service[:, None]
    earliest = np.zeros(m)
    latest = np.full(m, horizon)
    ride = np.zeros(n + 1)
    for i in range(1, n + 1):
        d = i + n
        start = rng.uniform(0.0, horizon * 0.4)
        earliest[i] = start
        latest[i] = start + rng.uniform(5.0, window)
        gap = rng.uniform(1.2, 2.5) * T[i, d]
        earliest[d] = earliest[i] + T[i, d]
        latest[d] = latest[i] + gap
        ride[i] = gap + rng.uniform(0.0, window)
    latest[0] = latest[m - 1] = horizon * 10
    return Instance(f"rand-{seed}", n, vehicles, capacity, xy, service, demand,
                    earliest, latest, ride, T, dist)
