"""Seeded instance suites of the solver benchmark.

Every workload is a list of Cordeau-style instances built with the same
recipe: ``synthetic_base`` -> ``tighten_windows`` -> ``build_dataset2`` ->
``tighten_windows``.  The instance seeds of a workload are fixed, so its
reference outcomes are recorded once; the run seed (``--seed``) sets the
order in which the instances are solved.

The instance seeds are chosen so that one pass over a workload takes 4-9 s
on a 2-vCPU VM and a run repeats it several times: its times are means
over passes, not single solves.  Longer instances at the same size made a
run one pass of one to four solves, and the slowest solve of such a pass
spread by a quarter between runs of the same code.

The run seed does not renumber customers.  An isomorphic relabelling keeps
every optimum, but HiGHS then takes another branch-and-bound path: one
sync-n24-q3 DDD solve (instance seed 2) moved between 1.4 and 7.2 s, and the
peak memory of a darp-n24-q6-ddd run between 95 and 141 MB, both wider than
the benchmark's bounds.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from darpsv.instance import (DatasetParams, Instance, build_dataset2,
                             tighten_windows)

EBF = "ebf"
DDD = "tsfrag+ddd"


@dataclass(frozen=True)
class Workload:
    name: str
    n: int
    capacity: int
    vehicles: int  # fleet of the base instance, before the multiplier
    params: DatasetParams
    instance_seeds: tuple
    methods: tuple


WORKLOADS = {
    w.name: w for w in (
        Workload("darp-n20-q6-ebf", 20, 6, 3,
                 DatasetParams(p_de=2.0, p_tw=30, variant="darp",
                               fleet_multiplier=3),
                 (0,), (EBF,)),
        Workload("darp-n24-q6-ddd", 24, 6, 3,
                 DatasetParams(p_de=2.0, p_tw=30, variant="darp",
                               fleet_multiplier=3),
                 (4, 5), (DDD,)),
        Workload("sync-n24-q3", 24, 3, 3,
                 DatasetParams(p_de=2.0, p_tw=30, variant="darpsv-set2",
                               fleet_multiplier=4),
                 (0, 1, 3, 4, 5), (EBF, DDD)),
    )
}


def synthetic_base(seed, n=6, vehicles=2, capacity=3):
    """Cordeau-style base: planar coordinates, unit demands, service 3,
    ride limit 30, 8-hour horizon, half the customers with a 15-minute
    pickup window and half with a 15-minute delivery window."""
    rng = np.random.default_rng(seed)
    m = 2 * n + 2
    xy = rng.uniform(-10.0, 10.0, size=(m, 2))
    xy[0] = xy[-1] = (0.0, 0.0)
    service = np.full(m, 3.0)
    service[0] = service[-1] = 0.0
    demand = np.zeros(m, dtype=int)
    demand[1:n + 1] = 1
    demand[n + 1:2 * n + 1] = -1
    earliest = np.zeros(m)
    latest = np.full(m, 480.0)
    for i in range(1, n + 1):
        lo = rng.uniform(60.0, 420.0)
        if rng.random() < 0.5:
            earliest[i], latest[i] = lo, lo + 15.0
        else:
            earliest[i + n], latest[i + n] = lo, lo + 15.0
    dist = np.sqrt(((xy[:, None, :] - xy[None, :, :]) ** 2).sum(-1))
    ride = np.zeros(n + 1)
    ride[1:] = 30.0 + service[n + 1:2 * n + 1]
    return Instance(f"synth-{seed}", n, vehicles, capacity, xy, service,
                    demand, earliest, latest, ride, dist + service[:, None],
                    dist)


def build_instance(workload: Workload, instance_seed: int) -> Instance:
    base = tighten_windows(synthetic_base(instance_seed, n=workload.n,
                                          vehicles=workload.vehicles,
                                          capacity=workload.capacity))
    return tighten_windows(build_dataset2(base, workload.params))


def build_suite(workload: Workload, seed: int):
    """[(instance seed, instance)] in the run seed's solve order."""
    seeds = workload.instance_seeds
    order = np.random.default_rng(seed).permutation(len(seeds))
    return [(seeds[k], build_instance(workload, seeds[k])) for k in order]


def warmup_instance() -> Instance:
    """A 4-customer instance with one large customer: solves in
    milliseconds and touches every code path of the suites."""
    tiny = Workload("warmup", 4, 3, 2,
                    DatasetParams(p_de=2.0, p_tw=30, variant="darpsv-set2",
                                  fleet_multiplier=4), (0,), ())
    return build_instance(tiny, 0)
