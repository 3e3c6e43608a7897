import dataclasses
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from darpsv.instance import (DatasetParams, InfeasibleCustomerError,
                             InstanceError, build_dataset1, build_dataset2,
                             designate_large, from_json, parse_cordeau,
                             random_instance, tighten_windows, to_json)

from conftest import CORDEAU_SAMPLE, make_instance


def test_parse_header_and_matrices():
    inst = parse_cordeau(CORDEAU_SAMPLE, name="sample")
    assert inst.vehicles == 2 and inst.n == 3 and inst.capacity == 3
    # service embedded at the tail, cost is the raw distance
    d01 = math.hypot(2.0, 1.0)
    assert inst.travel_cost[0, 1] == pytest.approx(d01)
    assert inst.travel_time[0, 1] == pytest.approx(d01)  # depot service 0
    assert inst.travel_time[1, 2] == pytest.approx(
        math.hypot(3.5, 2.0) + 3.0)
    # ride limit embeds the delivery's service
    assert inst.ride[1] == pytest.approx(30.0 + 3.0)


def test_parse_synthesizes_destination_depot():
    text = "\n".join(CORDEAU_SAMPLE.splitlines()[:-1]) + "\n"
    inst = parse_cordeau(text)
    assert inst.num_locations == 8
    assert np.allclose(inst.xy[7], inst.xy[0])


def test_parse_node_count_header_variant():
    lines = CORDEAU_SAMPLE.splitlines()
    lines[0] = "2 6 480 3 30"  # 2n instead of n
    inst = parse_cordeau("\n".join(lines))
    assert inst.n == 3


def test_parse_errors_carry_line_numbers():
    bad = CORDEAU_SAMPLE.replace("1   2.0   1.0   3  1    0  480",
                                 "1   2.0   oops  3  1    0  480")
    with pytest.raises(InstanceError, match="line 3"):
        parse_cordeau(bad)
    inf_load = CORDEAU_SAMPLE.replace("1   2.0   1.0   3  1    0  480",
                                      "1   2.0   1.0   3  inf  0  480")
    with pytest.raises(InstanceError, match="line 3"):  # OverflowError
        parse_cordeau(inf_load)
    with pytest.raises(InstanceError, match="inconsistent"):
        parse_cordeau(CORDEAU_SAMPLE + "8 0 0 0 0 0 480\n")


def test_parse_degenerate_no_customers():
    inst = parse_cordeau("1 0 480 3 30\n0 1.0 2.0 0 0 0 480\n")
    assert inst.n == 0 and inst.num_locations == 2
    assert not list(inst.pickups)


def test_zero_distance_locations():
    text = ("1 1 480 3 30\n"
            "0 1.0 1.0 0 0 0 480\n"
            "1 1.0 1.0 5 1 0 480\n"
            "2 1.0 1.0 2 -1 0 480\n"
            "3 1.0 1.0 0 0 0 480\n")
    inst = parse_cordeau(text)
    assert inst.travel_cost[1, 2] == 0.0
    assert inst.travel_time[1, 2] == 5.0  # service of the tail only


def test_tighten_formula_single_customer():
    inst = parse_cordeau(CORDEAU_SAMPLE)
    out = tighten_windows(inst)
    T = inst.travel_time
    for i in inst.pickups:
        d = i + inst.n
        assert out.earliest[i] == pytest.approx(
            max(inst.earliest[i], inst.earliest[d] - inst.ride[i],
                inst.earliest[0] + T[0, i]))
        assert out.latest[d] == pytest.approx(
            min(inst.latest[d], inst.latest[i] + inst.ride[i],
                inst.latest[inst.destination] - T[d, inst.destination]))
        assert out.latest[i] == pytest.approx(min(inst.latest[i],
                                                  out.latest[d] - T[i, d]))
        assert out.earliest[d] == pytest.approx(max(inst.earliest[d],
                                                    out.earliest[i] + T[i, d]))


def test_tighten_infeasible_customer_named():
    text = ("1 1 480 3 5\n"
            "0 0.0 0.0 0 0 0 480\n"
            "1 0.0 0.0 0 1 0 100\n"
            "2 50.0 0.0 0 -1 0 480\n"
            "3 0.0 0.0 0 0 0 480\n")
    with pytest.raises(InfeasibleCustomerError, match="customer 1"):
        tighten_windows(parse_cordeau(text))


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10_000))
def test_tighten_idempotent_and_never_widens(seed):
    inst = random_instance(seed, n=3)
    try:
        once = tighten_windows(inst)
    except InfeasibleCustomerError:
        return
    twice = tighten_windows(once)
    assert np.allclose(once.earliest, twice.earliest)
    assert np.allclose(once.latest, twice.latest)
    assert np.all(once.earliest >= inst.earliest - 1e-9)
    assert np.all(once.latest <= inst.latest + 1e-9)


def test_arc_cap():
    # customer 1 is small, customer 2 needs two vehicles (q = 4, Q = 2)
    T = np.ones((6, 6))
    np.fill_diagonal(T, 0.0)
    inst = make_instance(2, T, [0.0] * 6, [1000.0] * 6, [0, 100, 100],
                         [0, 1, 4, -1, -4, 0], capacity=2)
    assert inst.arc_cap(1, 3) == 1
    assert inst.arc_cap(2, 4) == 2
    assert inst.arc_cap(4, 1) == 1  # the smaller requirement of the two
    # a depot end takes the other end's requirement
    assert inst.arc_cap(0, 2) == 2
    assert inst.arc_cap(4, 5) == 2
    assert inst.arc_cap(0, 1) == inst.arc_cap(3, 5) == 1
    assert inst.arc_cap(2, 2) == 2  # waiting at a large pickup


def test_zero_capacity_is_malformed():
    text = CORDEAU_SAMPLE.splitlines()
    header = text[0].split()
    header[3] = "0"
    with pytest.raises(InstanceError, match="capacity"):
        parse_cordeau("\n".join([" ".join(header)] + text[1:]))


def _sample_json(**changes):
    payload = json.loads(to_json(parse_cordeau(CORDEAU_SAMPLE)))
    return json.dumps(dict(payload, **changes))


@pytest.mark.parametrize("field, value, shown", [
    ("capacity", 2.5, "2.5"), ("vehicles", 1.9, "1.9"),
    ("n", 3.5, "3.5"), ("capacity", float("nan"), "nan"),
    ("demand", [0, 1.5, 1, 1, -1.5, -1, -1, 0], "1.5")],
    ids=["capacity-2.5", "vehicles-1.9", "n-3.5", "capacity-nan", "demand-1.5"])
def test_a_fractional_integer_field_is_an_instance_error(field, value, shown):
    # int() would truncate these: a capacity of 2.5 became 2
    with pytest.raises(InstanceError, match=f"{field}: {shown} is not an"):
        from_json(_sample_json(**{field: value}))


def test_integral_floats_pass_as_integers():
    inst = from_json(_sample_json(capacity=3.0, vehicles=2.0, n=3.0))
    assert (inst.capacity, inst.vehicles, inst.n) == (3, 2, 3)
    assert all(type(v) is int for v in (inst.capacity, inst.vehicles, inst.n))
    header = CORDEAU_SAMPLE.replace("2 3 480 3 30", "2 3 480 3.0 30")
    assert parse_cordeau(header).capacity == 3


@pytest.mark.parametrize("old, new, line", [
    ("2 3 480 3 30", "2 3 480 2.5 30", "line 1"),
    ("1   2.0   1.0   3  1    0  480", "1   2.0   1.0   3  1.5  0  480",
     "line 3")], ids=["header-capacity", "row-load"])
def test_classic_integer_fields_are_not_truncated(old, new, line):
    with pytest.raises(InstanceError, match=f"{line}.*not an integer"):
        parse_cordeau(CORDEAU_SAMPLE.replace(old, new))


def test_designate_large_every_third():
    inst = parse_cordeau(CORDEAU_SAMPLE)
    out = designate_large(inst, 1.0 / 3.0)
    assert out.large_pickups == (3,)
    assert out.demand[3] == 2 * out.capacity
    assert out.demand[3 + out.n] == -2 * out.capacity
    assert designate_large(inst, 0.0).large_pickups == ()


def test_dataset1_scales_fleet():
    inst = parse_cordeau(CORDEAU_SAMPLE)
    out = build_dataset1(inst, 1.0 / 3.0, 3)
    assert out.vehicles == 6 and out.large_pickups == (3,)


def test_dataset2_window_formulas():
    inst = tighten_windows(parse_cordeau(CORDEAU_SAMPLE))
    params = DatasetParams(r_l=0.0, p_tw=15.0, p_de=1.5, fleet_multiplier=4,
                           variant="darp")
    out = build_dataset2(inst, params)
    assert out.vehicles == inst.vehicles * 4
    for i in out.pickups:
        d = i + out.n
        direct = out.travel_time[i, d]
        assert out.latest[i] - out.earliest[i] == pytest.approx(15.0)
        assert out.latest[d] - out.earliest[d] == pytest.approx(0.5 * direct)
        assert out.earliest[d] == pytest.approx(out.earliest[i] + direct)
        assert out.ride[i] == pytest.approx(1.5 * direct)
        # pickups mapped into one hour, then shifted by 30
        assert 30.0 - 1e-9 <= out.earliest[i] <= 90.0 + 1e-9
    assert out.latest[out.destination] >= 10.0 * 60.0 - 1e-9


def test_dataset2_pdptw_ride_factor():
    inst = tighten_windows(parse_cordeau(CORDEAU_SAMPLE))
    params = DatasetParams(r_l=0.0, p_tw=15.0, p_de=2.0, fleet_multiplier=4,
                           variant="pdptw")
    out = build_dataset2(inst, params)
    for i in out.pickups:
        assert out.ride[i] == pytest.approx(100.0 * out.travel_time[i, i + out.n])


def test_dataset2_direct_formula_example():
    # e_i=10, T=20, P_De=1.5: delivery window [30, 40] before the +30 shift
    inst = tighten_windows(parse_cordeau(CORDEAU_SAMPLE))
    i = 1
    d = i + inst.n
    T = inst.travel_time.copy()
    T[i, d] = 20.0
    e = inst.earliest.copy()
    e[i] = 10.0
    shaped = inst.replace(travel_time=T, earliest=e)
    out = build_dataset2(shaped, DatasetParams(r_l=0.0, variant="darp",
                                               p_de=1.5, p_tw=15.0,
                                               fleet_multiplier=4))
    assert out.earliest[d] == pytest.approx(30.0 + 30.0)
    assert out.latest[d] == pytest.approx(40.0 + 30.0)


def test_dataset2_large_customers_need_exactly_two_vehicles():
    inst = tighten_windows(parse_cordeau(CORDEAU_SAMPLE))
    out = build_dataset2(inst, DatasetParams(r_l=1.0 / 3.0, p_tw=15.0,
                                             p_de=1.5, fleet_multiplier=4))
    assert out.large_pickups
    for i in out.large_pickups:
        assert math.ceil(out.demand[i] / out.capacity) == 2


def test_dataset_params_guardrails():
    with pytest.raises(InstanceError):
        DatasetParams(p_tw=12.0)
    with pytest.raises(InstanceError):
        DatasetParams(p_de=3.0)
    DatasetParams(p_tw=12.0, unchecked=True)  # explicit override allowed


@pytest.mark.parametrize("kw", [dict(variant="darpsv-set1"),
                                dict(variant="bogus", unchecked=True)])
def test_dataset_params_check_the_variant_even_unchecked(kw):
    # darpsv-set1 was built as set 2 under another name, and an unchecked
    # unknown variant as darp
    with pytest.raises(InstanceError, match="unknown variant"):
        DatasetParams(**kw)


def _tight_sample():
    return tighten_windows(parse_cordeau(CORDEAU_SAMPLE))


ROUND_TRIP = {
    "sample": _tight_sample,
    "set1": lambda: build_dataset1(_tight_sample()),
    "set2": lambda: build_dataset2(_tight_sample(), DatasetParams()),
    "random": lambda: random_instance(7, n=4),
}


@pytest.mark.parametrize("build", ROUND_TRIP.values(), ids=ROUND_TRIP)
def test_json_round_trip(build):
    inst = build()
    assert "meta" not in json.loads(to_json(inst))  # empty meta is left out
    inst.meta = {"r_l": 0.5}
    again = from_json(to_json(inst))
    for f in dataclasses.fields(inst):
        value, back = getattr(inst, f.name), getattr(again, f.name)
        if isinstance(value, np.ndarray):
            assert back.dtype == value.dtype and np.array_equal(back, value)
        else:
            assert back == value
    assert to_json(again) == to_json(inst)


@pytest.mark.parametrize("text", ['{"name": "x", "n": 0}', "not json", "[1]",
                                  '{"name": "x", "n": "many"}'])
def test_malformed_json_is_instance_error(text):
    with pytest.raises(InstanceError):
        from_json(text)


def test_dataset2_zero_large_customers_warns_not_errors():
    inst = tighten_windows(parse_cordeau(CORDEAU_SAMPLE))  # n = 3
    params = DatasetParams(r_l=1.0 / 6.0, p_tw=15.0, p_de=1.5,
                           fleet_multiplier=4)
    with pytest.warns(UserWarning, match="no large customers"):
        out = build_dataset2(inst, params)  # k = 6 > n: nobody qualifies
    assert out.large_pickups == ()
