"""Tests of the independent checker:  python3 -m pytest bench/test_checker.py"""

from __future__ import annotations

import copy
import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import checker  # noqa: E402
from mdssd.constructions import build  # noqa: E402
from mdssd.grs import artifact_to_dict  # noqa: E402


def rng():
    return np.random.default_rng(0)


def hand_made_f5() -> dict:
    """[2, 1] plain GRS code over F_5 with a = (0, 1), v = (1, 2):
    G = (1 2) and 1 + 4 = 0, so it is self-dual; t*m = 2*1 = n."""
    return {"p": 5, "d": 1, "q": 5, "modulus": [0, 1], "n": 2, "k": 1,
            "construction": {"label": "T1i(m=1,t=2)", "extended": False,
                             "theorem": "T1i", "m": 1, "t": 2},
            "a": [0, 1], "v": [1, 2], "G": [[1, 2]]}


@pytest.fixture(scope="module")
def t1i_f9():
    art, trace = build("T1i", 3, 2, m=4, t=1)
    return artifact_to_dict(art, trace.to_dict())


@pytest.fixture(scope="module")
def t2_large():
    art, trace = build("T2", 151, 2, m=15, t=3)
    return artifact_to_dict(art, trace.to_dict())


def test_field_matches_table_arithmetic():
    # F_9 = F_3[x]/(x^2 + 1): x * x = -1 = 2, (1+x)^2 = 2x
    F = checker.Field(3, 2, [1, 0, 1])
    x, one_plus_x = 3, 4
    assert int(F.mul(x, x)) == 2
    assert int(F.mul(one_plus_x, one_plus_x)) == 6
    assert int(F.sum(np.array([4, 5]), axis=0)) == 6  # (1+x) + (2+x) = 2x


def test_reducible_modulus_rejected():
    with pytest.raises(ValueError, match="reducible"):
        checker.Field(3, 2, [2, 0, 1])  # x^2 - 1 = (x-1)(x+1)


def test_accepts_known_good_codes(t1i_f9, t2_large):
    assert checker.check_artifact(hand_made_f5(), rng()) == []
    assert checker.check_artifact(t1i_f9, rng()) == []
    assert checker.check_artifact(t2_large, rng()) == []


@pytest.mark.parametrize("fixture", ["t1i_f9", "t2_large"])
def test_rejects_tampered_matrix(fixture, request):
    doc = copy.deepcopy(request.getfixturevalue(fixture))
    q = doc["q"]
    x = doc["G"][1][2]
    doc["G"][1][2] = x % (q - 1) + 1
    problems = checker.check_artifact(doc, rng())
    assert "G is not GRS(a, v, k)" in problems
    assert "G * G^T is not zero" in problems


@pytest.mark.parametrize("shift", [-1, 1])
def test_rejects_out_of_range_entry(t1i_f9, shift):
    doc = copy.deepcopy(t1i_f9)
    doc["G"][0][0] += shift * doc["q"]
    assert checker.check_artifact(doc, rng()) == ["G is not a k x n matrix of field elements"]


def test_rejects_wrong_length_and_repeated_points():
    doc = hand_made_f5()
    doc["construction"]["t"] = 4
    doc["a"] = [1, 1]
    problems = checker.check_artifact(doc, rng())
    assert "n = 2 but the T1i length formula gives 4" in problems
    assert "evaluation points are not distinct" in problems


def test_gram_row_sees_single_change(t2_large):
    F = checker.Field(t2_large["p"], t2_large["d"], t2_large["modulus"])
    G = np.array(t2_large["G"], dtype=np.int64)
    assert not checker.gram_row(F, G, 3).any()
    G[3, 5] = int(F.mul(G[3, 5], 2))  # 2x is neither x nor -x
    assert checker.gram_row(F, G, 3).any()
