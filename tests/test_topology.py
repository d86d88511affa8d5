import json

import pytest

from conveyorqc.topology import (
    Crossing,
    Family,
    Species,
    build_conveyor,
    build_variant,
    from_json_dict,
    neighbors,
    to_json_dict,
)


def test_baseline_n8_counts():
    topo = build_conveyor(8)
    assert topo.n_sites == 33
    corrected = [s for s in topo.sites if s.triangle_corrected]
    b_corr = [s for s in corrected if s.species.family is Family.B]
    a_corr = [s for s in corrected if s.species.family is Family.A]
    assert sorted(s.index for s in b_corr) == [0, 4, 8]  # Q_1, Q_2, Q_3
    assert [s.index for s in a_corr] == [32]


def test_baseline_n4_structure():
    topo = build_conveyor(4)
    assert topo.n_sites == 17
    assert sum(s.on_loop for s in topo.sites) == 16
    assert neighbors(topo, topo.central_site) == frozenset({0, 4, 8})


@pytest.mark.parametrize("n", [5, 3, 2, 0, 7])
def test_baseline_rejects_bad_n(n):
    with pytest.raises(ValueError):
        build_conveyor(n)


def test_neighbor_examples():
    topo = build_conveyor(4)
    q2 = topo.ic_sites[1]
    assert neighbors(topo, q2) == frozenset({3, 5, topo.central_site})
    a1, b2, a3 = topo.sectors[0]
    assert neighbors(topo, b2) == frozenset({a1, a3})
    with pytest.raises(ValueError):
        neighbors(topo, 99)


@pytest.mark.parametrize("n", [4, 6, 8, 10])
def test_validate_ok_and_invariants(n):
    topo = build_conveyor(n)
    by_id = {s.index: s for s in topo.sites}
    for i, j in topo.edges:
        assert by_id[i].species.family is not by_id[j].species.family
    for s in topo.sites:
        assert s.triangle_corrected == (len(topo.neighbor_map[s.index]) == 3)
        if s.on_loop:
            assert sum(by_id[k].on_loop for k in topo.neighbor_map[s.index]) == 2
    assert topo.sites_of(Family.B, Crossing.CROSSED) == (topo.ic_sites[1],)
    assert topo.sites_of(Family.A, Crossing.CROSSED) == (topo.central_site,)
    covered = set(topo.ic_sites) | {i for sec in topo.sectors for i in sec}
    covered.add(topo.central_site)
    assert covered == {s.index for s in topo.sites}


def test_validate_reports_extra_edge():
    doc = to_json_dict(build_conveyor(4))
    doc["edges"].append([1, 6])  # two loop sites that are not adjacent
    with pytest.raises(ValueError, match=r"edges \[\(1, 6\)\] differ"):
        from_json_dict(doc)


def test_validate_reports_wrong_crossing():
    doc = to_json_dict(build_conveyor(4))
    for s in doc["sites"]:
        if s["index"] == 4:
            s["crossing"] = "regular"
    with pytest.raises(ValueError, match="site {'index': 4, 'family': 'B', 'crossing': 'regular'"):
        from_json_dict(doc)


def test_load_rejects_reordered_loop():
    # Q_2-5-Q_3-7-6-9: every site keeps two loop neighbours and the graph stays
    # bipartite, but the loop no longer runs in index order.
    doc = to_json_dict(build_conveyor(4))
    doc["edges"] = [e for e in doc["edges"] if e not in ([5, 6], [8, 9])] + [[5, 8], [6, 9]]
    with pytest.raises(ValueError, match=r"edges \[\(5, 6\), \(5, 8\), \(6, 9\), \(8, 9\)\] differ"):
        from_json_dict(doc)


def test_load_rejects_repeated_edge_and_accepts_any_site_order():
    doc = to_json_dict(build_conveyor(4))
    doc["sites"].reverse()
    assert from_json_dict(doc) == build_conveyor(4)
    doc["edges"].append([1, 0])
    with pytest.raises(ValueError, match="listed twice"):
        from_json_dict(doc)


def test_variant_three_species():
    topo = build_variant("two_coupler_three_species", 8)
    assert topo.n_sites == 34
    (c1, pair1), (c2, pair2) = topo.coupler_pairs
    assert pair1 == (topo.ic_sites[0], topo.ic_sites[2])  # Q_1, Q_3
    assert pair2 == (topo.ic_sites[3], topo.ic_sites[7])  # Q_4, Q_8
    assert topo.sites[c1].species == Species(Family.C, Crossing.REGULAR)
    assert topo.sites[c2].species == Species(Family.C, Crossing.CROSSED)
    assert neighbors(topo, c1) == frozenset(pair1)
    assert neighbors(topo, c2) == frozenset(pair2)


def test_variant_double_crossed_species():
    topo = build_variant("two_coupler_double_crossed", 8)
    (c1, _), (c2, _) = topo.coupler_pairs
    assert topo.sites[c1].species == Species(Family.A, Crossing.CROSSED)
    assert topo.sites[c2].species == Species(Family.A, Crossing.DOUBLE_CROSSED)


def test_variant_rejects_small_n_and_bad_kind():
    with pytest.raises(ValueError):
        build_variant("two_coupler_three_species", 6)
    with pytest.raises(ValueError):
        build_variant("ring_of_rings", 8)


@pytest.mark.parametrize(
    "builder",
    [lambda: build_conveyor(6), lambda: build_variant("two_coupler_double_crossed", 10)],
)
def test_json_round_trip(builder):
    topo = builder()
    doc = json.loads(json.dumps(to_json_dict(topo)))
    assert doc["format"] == 1
    again = from_json_dict(doc)
    assert again == topo


def test_json_rejects_unknown_format():
    doc = to_json_dict(build_conveyor(4))
    doc["format"] = 9
    with pytest.raises(ValueError):
        from_json_dict(doc)
