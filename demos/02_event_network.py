"""The event-based network.

An event is a (location, onboard-set) state; arcs are the transitions a
vehicle can make. Capacity, pairing and precedence are built into the
state space, so the MILP over this graph needs no explicit rows for them.
Time-window reachability pruning keeps the graph small; the solvers use
the time-feasible variant, which labels each state with its earliest
service time and drops the arcs that reach a state too late to finish the
trip (enumerate_events(inst, timed=True)).
"""
import darpsv
from darpsv.events import dump_events

inst = darpsv.tighten_windows(
    darpsv.random_instance(seed=3, n=3, vehicles=2, capacity=2,
                           large_share=0.34))
net = darpsv.enumerate_events(inst)
print(inst)
print(f"|V_E| = {net.num_events} events, |A_E| = {net.num_arcs} arcs")
timed = darpsv.enumerate_events(inst, timed=True)
print(f"time-feasible network (what EBF and TSEF solve): "
      f"|V_E| = {timed.num_events}, |A_E| = {timed.num_arcs}\n")

print("events at each location (location, onboard set):")
for ev in net.events:
    print(f"  {ev.label()}")

large = inst.large_pickups
if large:
    i = large[0]
    print(f"\nlarge pickup {i}: an empty vehicle must arrive, and the only "
          f"way out is its delivery {i + inst.n}:")
    (eid,) = [k for k, ev in enumerate(net.events) if ev.loc == i]
    for a in net.out_arcs[eid]:
        arc = net.arcs[a]
        print(f"  {net.events[arc.tail].label()} -> "
              f"{net.events[arc.head].label()}  cap U = {arc.cap}")

print("\nfirst lines of the deterministic dump (golden-test format):")
print("\n".join(dump_events(net).splitlines()[:6]))
