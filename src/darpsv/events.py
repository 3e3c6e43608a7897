"""Event-based network: nodes are (location, onboard-set) states, arcs are
feasible transitions.  Capacity, pairing and precedence are implicit in the
state space; time-window reachability filters prune states that cannot
occur in any feasible schedule.

`enumerate_events` builds one of two networks.

The paper network (the default) filters arcs one pair at a time
(e_i + T_ij <= l_j) and keeps the states on some path from the origin
depot to the destination depot.  The builder never generates a state that
cannot reach the destination through its location graph: from (loc, S)
every customer still on board must be delivered before the vehicle
returns, so the transitive closure of that graph must lead from loc to
each of their delivery locations and to the destination.  The test is
necessary for co-reachability, so it removes only states that the
co-reachability pass would discard; the network is the same as without it.
`darpsv net dump-events` prints this network.

The time-feasible network (timed=True, what EBF, TSEF and TSEF+DDD solve)
also drops a state (loc, S) served no earlier than e_loc when

    e_loc > D(loc, R) + EPS,   R = S plus loc's own customer at a pickup,

where D is the completion deadline of `fragments` over the shortest-path
closure T*, with base case D(loc, {}) = min(l_loc, l_dest - T*[loc, dest]):
the latest time at loc from which some order delivers every customer in R
within the windows and still reaches the destination depot in time.  A
schedule that serves the state delivers all of R afterwards and then
returns; whatever else it visits, waits for or detours through, no path of
arcs beats T*, and ride limits only add constraints.  So a dropped state
occurs in no feasible schedule, and the timed network keeps every route
of the paper network that has a schedule: the optimum is the same.  D
implies the closure test only when T obeys the triangle inequality, so the
timed build runs both.  The test prunes during generation, and the paths
the search finds run through live states only; the result equals the
paper network with the dead states removed and the states off every
origin-destination path trimmed again.
"""
from __future__ import annotations

from collections import deque
from dataclasses import dataclass

import numpy as np

from .fragments import completion_deadline, shortest_times
from .graph import reachable
from .instance import EPS, Instance


@dataclass(frozen=True)
class Event:
    loc: int
    # sorted ids of the customers on board both before and after serving
    # loc: a pickup's own customer is not among them
    onboard: tuple

    def label(self) -> str:
        if not self.onboard:
            return f"({self.loc})"
        return f"({self.loc},{{{','.join(map(str, self.onboard))}}})"


@dataclass(frozen=True)
class EventArc:
    tail: int
    head: int
    loc_arc: tuple
    cost: float
    cap: int  # inst.arc_cap of loc_arc


class EventNetwork:
    def __init__(self, inst, events, arcs, origin_id, dest_id, kind="paper"):
        self.inst = inst
        self.kind = kind  # "paper" or "timed": which network was built
        self.events = events
        self.arcs = arcs
        self.origin_id = origin_id
        self.dest_id = dest_id
        self.out_arcs = [[] for _ in events]
        self.in_arcs = [[] for _ in events]
        self.by_loc_arc = {}
        for aid, arc in enumerate(arcs):
            self.out_arcs[arc.tail].append(aid)
            self.in_arcs[arc.head].append(aid)
            self.by_loc_arc.setdefault(arc.loc_arc, []).append(aid)

    @property
    def num_events(self):
        return len(self.events)

    @property
    def num_arcs(self):
        return len(self.arcs)

    def stats(self):
        return {"V_E": self.num_events, "A_E": self.num_arcs,
                "event_network": self.kind}


def _successors(inst: Instance, ev: Event):
    """Feasible successor events under the transition rules."""
    n, Q = inst.n, inst.capacity
    out = []
    if ev.loc == inst.origin:
        raise ValueError("depot successors are handled by the builder")
    if inst.is_pickup(ev.loc):
        onboard = set(ev.onboard) | {ev.loc}
    else:
        onboard = set(ev.onboard)
    load = sum(int(inst.demand[c]) for c in onboard)
    for c in sorted(onboard):  # deliver someone on board
        out.append(Event(c + n, tuple(sorted(onboard - {c}))))
    if load <= Q:  # pick someone else up
        for j in inst.pickups:
            if j in onboard or j == ev.loc:
                continue
            if inst.is_delivery(ev.loc) and j == ev.loc - n:
                continue  # returning to the customer just served only feeds subtours
            if inst.is_large(j):
                if not onboard and inst.is_delivery(ev.loc):
                    # empty vehicle moving from a delivery to a large pickup
                    out.append(Event(j, ()))
                continue
            if load + int(inst.demand[j]) <= Q:
                out.append(Event(j, tuple(sorted(onboard))))
    return out


def _location_closure(inst: Instance):
    """R[i][j]: some path of location arcs with e_a + T_ab <= l_b leads from
    i to j (R[i][i] always holds).  No arc enters the origin or leaves the
    destination, since no event path does."""
    e, l, T = inst.earliest, inst.latest, inst.travel_time
    R = e[:, None] + T <= l[None, :] + EPS
    R[:, inst.origin] = False
    R[inst.destination, :] = False
    np.fill_diagonal(R, True)
    for k in range(len(R)):  # Warshall
        R |= R[:, k, None] & R[None, k, :]
    return R.tolist()


def enumerate_events(inst: Instance, timed=False) -> EventNetwork:
    """Build the paper's event network, or with timed=True the
    time-feasible one (module docstring).

    Forward search from the origin depot generates only capacity-feasible
    states; arcs with e_i + T_ij > l_j are dropped, and events that cannot
    reach the destination depot are removed afterwards.

    A successor (loc, S) is generated only if the location closure leads
    from loc to the destination and to the delivery of every customer
    still to be delivered (S, plus loc's own customer at a pickup).  Any
    path from the state to the destination runs along such arcs through
    those deliveries, so a state failing the test is not co-reachable.
    Every forward path to a co-reachable state runs through co-reachable
    states only, so the prune leaves the kept network unchanged; it is
    necessary but not sufficient, hence the co-reachability pass.  With
    timed=True a successor must also pass e_loc <= D(loc, R) + EPS.
    """
    e, l, T = inst.earliest, inst.latest, inst.travel_time
    n, dest_loc = inst.n, inst.destination
    origin = Event(inst.origin, ())
    dest = Event(dest_loc, ())
    reach = _location_closure(inst)
    if timed:
        Ts = shortest_times(T)
        deadline = completion_deadline(
            inst, Ts, np.minimum(l, l[dest_loc] - Ts[:, dest_loc]))

    def tw_ok(i, j):
        return e[i] + T[i, j] <= l[j] + EPS

    def alive(ev):
        row = reach[ev.loc]
        if not row[dest_loc]:
            return False
        pickup = inst.is_pickup(ev.loc)
        if pickup and not row[ev.loc + n]:
            return False
        if not all(row[c + n] for c in ev.onboard):
            return False
        if not timed:
            return True
        due = frozenset(ev.onboard + (ev.loc,) if pickup else ev.onboard)
        return e[ev.loc] <= deadline(ev.loc, due) + EPS

    adjacency = {origin: [], dest: []}
    queue = deque()
    for i in inst.pickups:
        ev = Event(i, ())
        if tw_ok(inst.origin, i) and alive(ev):
            adjacency[origin].append(ev)
            if ev not in adjacency:
                adjacency[ev] = None
                queue.append(ev)
    while queue:
        ev = queue.popleft()
        succ = []
        for nxt in _successors(inst, ev):
            if not tw_ok(ev.loc, nxt.loc) or not alive(nxt):
                continue
            succ.append(nxt)
            if nxt not in adjacency:
                adjacency[nxt] = None
                queue.append(nxt)
        if inst.is_delivery(ev.loc) and not ev.onboard and tw_ok(ev.loc, dest_loc):
            succ.append(dest)
        adjacency[ev] = succ

    # keep only events co-reachable to the destination
    reverse = {}
    for ev, succ in adjacency.items():
        for nxt in succ or ():
            reverse.setdefault(nxt, []).append(ev)
    keep = reachable(dest, lambda ev: reverse.get(ev, ()))
    keep.add(origin)

    events = sorted((ev for ev in adjacency if ev in keep),
                    key=lambda ev: (ev.loc, ev.onboard))
    index = {ev: k for k, ev in enumerate(events)}
    arcs = []
    for ev in events:
        for nxt in adjacency.get(ev) or ():
            if nxt in keep:
                arcs.append(EventArc(index[ev], index[nxt], (ev.loc, nxt.loc),
                                     float(inst.travel_cost[ev.loc, nxt.loc]),
                                     inst.arc_cap(ev.loc, nxt.loc)))
    arcs.sort(key=lambda a: (a.tail, a.head))
    return EventNetwork(inst, events, arcs, index[origin], index[dest],
                        "timed" if timed else "paper")


def dump_events(net: EventNetwork) -> str:
    """Deterministic text listing for golden tests."""
    lines = [f"events {net.num_events} arcs {net.num_arcs}"]
    for ev in net.events:
        lines.append(ev.label())
    for arc in net.arcs:
        lines.append(f"{net.events[arc.tail].label()} -> "
                     f"{net.events[arc.head].label()} cost={arc.cost:.6f} U={arc.cap}")
    return "\n".join(lines) + "\n"
