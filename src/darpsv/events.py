"""Event-based network: nodes are (location, onboard-set) states, arcs are
feasible transitions.  Capacity, pairing and precedence are implicit in the
state space; time-window reachability filters prune states that cannot
occur in any feasible schedule.

`enumerate_events` builds one of two networks, by one search.  Each
state v carries a label E(v), and an arc u -> v is kept when the step rule
of `fragments.earliest_service` passes:

    max(E(u) + T_uv, e_v) <= limit(v) + EPS.

States are generated from the origin depot, E(origin) = e_origin, through
kept arcs only, and popped from a heap in label order.  A state with no
kept arc into it is never generated.  The builder also never generates a
state that cannot reach the destination through its location graph: from
(loc, S) every customer still on board must be delivered before the
vehicle returns, so the transitive closure of that graph must lead from
loc to each of their delivery locations and to the destination.  The test
is necessary for co-reachability, so it removes only states that the
final co-reachability pass would discard.  Events and arcs are sorted at
the end, so their numbering does not depend on the order of generation.

The paper network (the default) labels each state by its window's
opening, E(v) = e_v, with limit(v) = l_v: the step rule is then the
pairwise test e_u + T_uv <= l_v.  It keeps the states on some path from
the origin depot to the destination depot.  `darpsv net dump-events`
prints this network.

The time-feasible network (timed=True, what EBF, TSEF and TSEF+DDD solve)
labels each state by its earliest service,

    E(v) = max(e_v, min over kept arcs u -> v of E(u) + T_uv),

and limits it by its completion deadline, limit(v) = D(loc, R) with R the
customers on board plus loc's own at a pickup (l_dest at the destination
depot).  D is the completion deadline of `fragments` over the
shortest-path closure T*, with base case D(loc, {}) = min(l_loc, l_dest -
T*[loc, dest]): the latest time at loc from which some order delivers
every customer in R within the windows and still reaches the destination
depot in time; it is never later than l_loc.  T >= 0, and the max with e
keeps the labels monotone along arcs, so a state's label is final when it
is popped, as in Dijkstra's algorithm, and E(v) is the earliest time any
path of kept arcs serves v.

The timed network keeps every route of the paper network that has a
schedule, so the optimum is the same.  A schedule serves its k-th state at
some t_k >= e, with t_{k+1} >= t_k + T; by induction E(v_k) <= t_k.  The
vehicle then delivers all of R and returns, and whatever else it visits,
waits for or detours through, no path of arcs beats T*, so t_k <= D.
Ride limits only add constraints.  D implies the closure test only when T
obeys the triangle inequality, so the timed build runs both.
"""
from __future__ import annotations

import heapq
from dataclasses import dataclass

import numpy as np

from .fragments import completion_deadline, earliest_service, shortest_times
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

    States are generated from the origin depot in the order of their
    labels, from a heap, and only through arcs that pass the step rule;
    events that cannot reach the destination depot are removed afterwards.

    A successor (loc, S) is generated only if the location closure leads
    from loc to the destination and to the delivery of every customer
    still to be delivered (S, plus loc's own customer at a pickup).  Any
    path from the state to the destination runs along such arcs through
    those deliveries, so a state failing the test is not co-reachable.
    Every forward path to a co-reachable state runs through co-reachable
    states only, so the prune leaves the kept network unchanged; it is
    necessary but not sufficient, hence the co-reachability pass.
    """
    n, dest_loc = inst.n, inst.destination
    origin = Event(inst.origin, ())
    dest = Event(dest_loc, ())
    reach = _location_closure(inst)
    if timed:
        Ts = shortest_times(inst.travel_time)
        deadline = completion_deadline(inst, Ts, np.minimum(
            inst.latest, inst.latest[dest_loc] - Ts[:, dest_loc]))
    # plain lists: the search reads one entry at a time
    e, l = inst.earliest.tolist(), inst.latest.tolist()
    T = inst.travel_time.tolist()

    def limit(ev):
        """Latest service at ev that the step rule allows, or None when
        the location closure drops ev."""
        row = reach[ev.loc]
        if not row[dest_loc]:
            return None
        pickup = inst.is_pickup(ev.loc)
        if pickup and not row[ev.loc + n]:
            return None
        if not all(row[c + n] for c in ev.onboard):
            return None
        if not timed or ev == dest:
            return l[ev.loc]
        due = frozenset(ev.onboard + (ev.loc,) if pickup else ev.onboard)
        return deadline(ev.loc, due)

    limits = {}
    label = {origin: e[inst.origin]}
    heap = [(label[origin], origin.loc, origin.onboard)]
    adjacency = {dest: []}  # the destination is never expanded
    while heap:
        ready, loc, onboard = heapq.heappop(heap)
        ev = Event(loc, onboard)
        if ev in adjacency:
            continue  # settled at a lower label
        if ev == origin:
            candidates = [Event(i, ()) for i in inst.pickups]
        else:
            candidates = _successors(inst, ev)
            if inst.is_delivery(loc) and not onboard:
                candidates.append(dest)
        succ = []
        for nxt in candidates:
            if nxt not in limits:
                limits[nxt] = limit(nxt)
            if limits[nxt] is None:
                continue
            t = earliest_service(ready, T[loc][nxt.loc], e[nxt.loc], limits[nxt])
            if t is None:
                continue
            succ.append(nxt)
            if not timed:
                t = e[nxt.loc]  # the paper network's label: E(v) = e_v
            if t < label.get(nxt, np.inf):
                label[nxt] = t
                heapq.heappush(heap, (t, nxt.loc, nxt.onboard))
        adjacency[ev] = succ

    # keep only events co-reachable to the destination
    reverse = {}
    for ev, succ in adjacency.items():
        for nxt in succ:
            reverse.setdefault(nxt, []).append(ev)
    keep = reachable(dest, lambda ev: reverse.get(ev, ()))
    keep.add(origin)

    events = sorted((ev for ev in adjacency if ev in keep),
                    key=lambda ev: (ev.loc, ev.onboard))
    index = {ev: k for k, ev in enumerate(events)}
    arcs = []
    for ev in events:
        for nxt in adjacency[ev]:
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
