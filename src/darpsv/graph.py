"""Graph routines shared by every network: reachability and flow
decomposition.

An element is anything with .tail and .head node ids (an event arc, a
time-space arc or a fragment copy); networks list element ids per node in
the order a decomposition should try them.
"""
from __future__ import annotations


def reachable(start, step):
    """Every node reachable from start, where step(u) yields u's
    neighbours (depth-first)."""
    seen = {start}
    stack = [start]
    while stack:
        for v in step(stack.pop()):
            if v not in seen:
                seen.add(v)
                stack.append(v)
    return seen


def decompose_flow(elements, out, flow, source, sink):
    """Split an integer flow into source->sink walks plus residual cycles.

    flow[e] is the number of units on element e; out[u] lists the element
    ids leaving node u, tried in that order.  Walks are peeled off first,
    one unit each, always taking the first element with flow left.  What
    remains is a circulation: each cycle is traced from the lowest element
    id with flow left, and the part of the trace that led into the cycle
    gets its flow back, since it belongs to other cycles (flow
    decomposition theorem; Ahuja, Magnanti & Orlin, Network Flows, 1993).
    Returns (walks, cycles) as lists of element-id lists.
    """
    flow = list(flow)

    def trace(eid, seen):
        # seen is None for a walk to the sink, else {node: position}
        path = []
        while True:
            path.append(eid)
            flow[eid] -= 1
            head = elements[eid].head
            if seen is None:
                if head == sink:
                    return path
            elif head in seen:
                for e in path[:seen[head]]:
                    flow[e] += 1
                return path[seen[head]:]
            else:
                seen[head] = len(path)
            for eid in out[head]:  # a loop: next() on a generator is slower
                if flow[eid] > 0:
                    break
            else:
                raise ValueError(f"flow is not conserved at node {head}")

    walks = []
    while True:
        first = next((e for e in out[source] if flow[e] > 0), None)
        if first is None:
            break
        walks.append(trace(first, None))
    cycles = []
    for e0 in range(len(elements)):
        while flow[e0] > 0:
            cycles.append(trace(e0, {elements[e0].tail: 0}))
    return walks, cycles
