"""Brute-force reference miner: enumeration, guard, golden answers."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import GOLDEN_18, ids_of, results_by_label, small_databases
from huopminer import MiningParams, build_database
from huopminer.errors import OracleGuardError
from huopminer.measures import uo_of_pattern
from huopminer.oracle import brute_force_mine, enumerate_supported


def test_golden_answers(sample_db):
    results = brute_force_mine(sample_db, MiningParams(0.3, 0.3, 1, 3))
    got = results_by_label(sample_db, results)
    assert list(got) == list(GOLDEN_18)
    for label, (sup, uo) in GOLDEN_18.items():
        assert got[label][0] == sup
        assert got[label][1] == pytest.approx(uo, abs=5e-4)


def test_enumerate_supported(sample_db):
    found = dict(enumerate_supported(sample_db, 2))
    # patterns come back in mining order: c before a
    assert found[ids_of(sample_db, "c")] == 5
    assert found[ids_of(sample_db, "ca")] == 3
    assert all(len(p) <= 2 for p in found)
    assert all(sc >= 1 for sc in found.values())
    singles = {p for p in found if len(p) == 1}
    assert len(singles) == 5


def test_enumerate_full_depth(sample_db):
    found = enumerate_supported(sample_db, 5)
    assert len({p for p, _ in found if len(p) == 1}) == 5
    assert {len(p) for p, _ in found} <= {1, 2, 3, 4, 5}
    # the full five-item set occurs in transactions 1 and 6 only
    five = [sc for p, sc in found if len(p) == 5]
    assert five == [2]


def test_min_length_and_cap_filters(sample_db):
    only_pairs_up = brute_force_mine(sample_db, MiningParams(0.3, 0.3, 2, 3))
    assert all(len(r.pattern) >= 2 for r in only_pairs_up)
    only_singles = brute_force_mine(sample_db, MiningParams(0.3, 0.3, 1, 1))
    assert {len(r.pattern) for r in only_singles} == {1}
    assert len(only_singles) == 3


def test_harsh_thresholds_empty(sample_db):
    assert brute_force_mine(sample_db, MiningParams(0.3, 0.99, 1, 3)) == []
    assert brute_force_mine(sample_db, MiningParams(1.0, 0.1, 1, 3)) == []


def test_everything_qualifies_with_loose_thresholds(sample_db):
    results = brute_force_mine(sample_db, MiningParams(0.1, 1e-12, 1, 1))
    assert len(results) == 5  # every item supports at least one transaction


def test_tightening_shrinks_results(sample_db):
    base = {r.pattern for r in brute_force_mine(sample_db, MiningParams(0.3, 0.3, 1, 3))}
    higher_uo = {r.pattern for r in brute_force_mine(sample_db, MiningParams(0.3, 0.5, 1, 3))}
    higher_sup = {r.pattern for r in brute_force_mine(sample_db, MiningParams(0.4, 0.3, 1, 3))}
    shorter = {r.pattern for r in brute_force_mine(sample_db, MiningParams(0.3, 0.3, 1, 2))}
    assert higher_uo <= base
    assert higher_sup <= base
    assert shorter == {p for p in base if len(p) <= 2}


def test_guard_refuses_wide_vocabularies():
    labels = [f"i{n}" for n in range(26)]
    db = build_database(
        [(1, {label: 1 for label in labels})], {label: 1 for label in labels}
    )
    with pytest.raises(OracleGuardError):
        enumerate_supported(db, 1)
    with pytest.raises(OracleGuardError):
        brute_force_mine(db, MiningParams(0.5, 0.5, 1, 1))
    # explicit override runs anyway
    assert len(enumerate_supported(db, 1, max_items=30)) == 26

    # only items that occur count: 5 of them plus 30 unused utility
    # entries run under the default cap
    utilities = {f"i{n}": 1 for n in range(35)}
    narrow = build_database([(1, {f"i{n}": 1 for n in range(5)})], utilities)
    assert len(narrow.item_labels) == 35
    assert len(enumerate_supported(narrow, 5)) == 31
    assert len(brute_force_mine(narrow, MiningParams(1.0, 0.2, 1, 5))) == 31


@settings(max_examples=60, deadline=None)
@given(small_databases(), st.floats(0.01, 1.0), st.integers(1, 6))
def test_reported_occupancy_is_the_measure_bit_for_bit(db, alpha, maxlen):
    # the oracle averages over each pattern's tidset only; that mean must
    # be the database scan's float, summed in the same order
    for r in brute_force_mine(db, MiningParams(alpha, 1e-12, 1, maxlen)):
        assert r.uo == uo_of_pattern(r.pattern, db)
