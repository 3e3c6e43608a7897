import sys
from pathlib import Path

import numpy as np
import pytest

from darpsv.instance import Instance, random_instance

# the benchmark's instance recipe, read from perfbench/ as
# tools/fingerprint.py reads it
sys.path.append(str(Path(__file__).resolve().parents[1] / "perfbench"))
from suites import synthetic_base  # noqa: E402,F401


def make_instance(n, T, earliest, latest, ride, demand, capacity=2, vehicles=2,
                  name="test", xy=None, service=None):
    """Instance with an explicit travel matrix (cost = time)."""
    m = 2 * n + 2
    T = np.asarray(T, dtype=float)
    xy = np.zeros((m, 2)) if xy is None else np.asarray(xy, dtype=float)
    service = np.zeros(m) if service is None else np.asarray(service, dtype=float)
    return Instance(name, n, vehicles, capacity, xy, service,
                    np.asarray(demand, dtype=int), np.asarray(earliest, dtype=float),
                    np.asarray(latest, dtype=float), np.asarray(ride, dtype=float),
                    T, T.copy())


def integerized(seed, n=3, **kw):
    """A random instance with travel times, windows and ride limits
    rounded to whole minutes (times up, window starts down)."""
    inst = random_instance(seed, n=n, **kw)
    T = np.ceil(inst.travel_time)
    np.fill_diagonal(T, 0.0)
    return inst.replace(travel_time=T, travel_cost=T.copy(),
                        earliest=np.floor(inst.earliest),
                        latest=np.ceil(inst.latest), ride=np.ceil(inst.ride))


def loc_of_node(net, nid):
    """Location of a time-space event network node."""
    return net.enet.events[net.nodes[nid].place].loc


def two_customer_matrix(fill=300.0, depot_out=100.0, depot_in=100.0):
    m = 6
    T = np.full((m, m), fill)
    np.fill_diagonal(T, 0.0)
    for j in (1, 2, 3, 4):
        T[0][j] = depot_out
        T[j][5] = depot_in
    T[0][5] = 0.0
    return T


@pytest.fixture
def single_customer():
    """One small customer; the only route is depot-p1-d1-depot."""
    T = np.array([
        [0.0, 4.0, 9.0, 9.0],
        [9.0, 0.0, 5.0, 9.0],
        [9.0, 9.0, 0.0, 3.0],
        [9.0, 9.0, 9.0, 0.0],
    ])
    return make_instance(1, T, [0, 0, 0, 0], [100, 50, 60, 200], [0, 30],
                         [0, 1, -1, 0], capacity=1, vehicles=1)


@pytest.fixture
def ride_regression():
    """Route (p1,p2,d1,d2) with continuous times 600/624/626/650 and both
    ride limits 26: feasible in continuous time, infeasible on a 10-minute
    event grid."""
    T = two_customer_matrix(fill=200.0, depot_out=50.0, depot_in=10.0)

    def sym(i, j, v):
        T[i][j] = v
        T[j][i] = v

    sym(1, 2, 24)
    sym(2, 3, 2)
    sym(3, 4, 24)
    sym(1, 3, 26)
    sym(2, 4, 26)
    return make_instance(
        2, T,
        earliest=[0, 600, 600, 600, 650, 0],
        latest=[2000, 600, 650, 650, 650, 2000],
        ride=[0, 26, 26], demand=[0, 1, 1, -1, -1, 0],
        capacity=2, vehicles=1, name="ride-regression")


@pytest.fixture
def subtour_regression():
    """Fragment (p1,p2,d1,d2) at times 600/606/607/608 plus the node arc
    (d2,p1) of length 1: a closed cycle at 10-minute rounding, gone at 5."""
    T = two_customer_matrix()
    T[1][2] = 6.0
    T[2][3] = 1.0
    T[3][4] = 1.0
    T[4][1] = 1.0
    return make_instance(
        2, T,
        earliest=[0, 600, 600, 600, 600, 0],
        latest=[5000, 610, 620, 620, 620, 5000],
        ride=[0, 30, 30], demand=[0, 1, 1, -1, -1, 0],
        capacity=2, vehicles=1, name="subtour-regression")


CORDEAU_SAMPLE = """\
2 3 480 3 30
0   0.0   0.0   0  0    0  480
1   2.0   1.0   3  1    0  480
2  -1.5   3.0   3  1  100  115
3   4.0  -2.0   3  1    0  480
4   3.0   2.5   3 -1  130  145
5  -2.0  -1.0   3 -1    0  480
6   1.0   4.0   3 -1  210  225
7   0.0   0.0   0  0    0  480
"""
