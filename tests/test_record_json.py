"""The JSON form of every record, pinned by a literal written out by hand.

Each expected value is spelled out here, not derived from field names, so a
change to how records become JSON shows as a changed literal.  The dump
comparison also pins key order and tells True from 1.
"""

from __future__ import annotations

import json
from fractions import Fraction

import pytest

from upqstab import (
    BoundInterval,
    CertificateCondition,
    Chamber,
    ChamberReport,
    GeometryContext,
    HiggsRankPair,
    HitchinPairType,
    IrreducibilityCertificate,
    MWVerdict,
    ParameterVector,
    QuiverNumericalType,
    Wall,
    WallWitness,
)

_WINDOW = BoundInterval(Fraction(0), Fraction(5, 3), None)
_WINDOW_JSON = {"lower": "0/1", "upper": "5/3", "regime_label": None}
_WALL = Wall(Fraction(-1, 2), (WallWitness(1, 0, 3), WallWitness(0, 1, -2)))
_WALL_JSON = {"alpha": "-1/2", "witnesses": [[1, 0, 3], [0, 1, -2]]}
_LEFT = Chamber(Fraction(-1), Fraction(-1, 2), True, False)
_LEFT_JSON = {"lo": "-1/1", "hi": "-1/2", "lo_closed": True, "hi_closed": False}
_RIGHT = Chamber(Fraction(-1, 2), Fraction(2), False, True)
_RIGHT_JSON = {"lo": "-1/2", "hi": "2/1", "lo_closed": False, "hi_closed": True}

CASES = [
    ("HitchinPairType", HitchinPairType(4, 3, 2, -1), {"p": 4, "q": 3, "a": 2, "b": -1}),
    ("GeometryContext", GeometryContext(2, 2, True), {"genus": 2, "twist_degree": 2, "canonical": True}),
    ("HiggsRankPair", HiggsRankPair(1, 0), {"rk_beta": 1, "rk_gamma": 0}),
    ("QuiverNumericalType", QuiverNumericalType((1, 2), (3, -4)), {"ranks": [1, 2], "degrees": [3, -4]}),
    ("ParameterVector", ParameterVector.of(Fraction(1, 2), 3, "-4/6"), {"alpha": ["1/2", "3/1", "-2/3"]}),
    ("BoundInterval", BoundInterval.closed(-2, Fraction(5, 3), "ii"),
     {"lower": "-2/1", "upper": "5/3", "regime_label": "ii"}),
    ("BoundInterval.infeasible", BoundInterval.infeasible("i"), {"infeasible": True, "regime_label": "i"}),
    ("MWVerdict", MWVerdict(False, "upper", Fraction(1, 3), Fraction(2), _WINDOW),
     {"verdict": "fail", "side": "upper", "margin": "1/3", "tau": "2/1", "interval": _WINDOW_JSON}),
    ("MWVerdict.pass", MWVerdict(True, None, None, Fraction(1, 3), _WINDOW),
     {"verdict": "pass", "side": None, "margin": None, "tau": "1/3", "interval": _WINDOW_JSON}),
    ("WallWitness", WallWitness(1, 0, 3), [1, 0, 3]),
    ("Wall", _WALL, _WALL_JSON),
    ("Chamber", _LEFT, _LEFT_JSON),
    ("ChamberReport", ChamberReport((Fraction(-1), Fraction(2)), (_WALL,), (_LEFT, _RIGHT)),
     {"interval": ["-1/1", "2/1"], "walls": [{**_WALL_JSON, "witness_count": 2}], "chambers": [_LEFT_JSON, _RIGHT_JSON]}),
    ("CertificateCondition", CertificateCondition(True, _WINDOW), {"holds": True, "alpha_window": _WINDOW_JSON}),
    ("IrreducibilityCertificate", IrreducibilityCertificate(
        Fraction(-2, 7), True, CertificateCondition(True, _WINDOW),
        CertificateCondition(False, BoundInterval.infeasible()), True, False),
     {"tau": "-2/7", "tau_bound_ok": True, "condition1": {"holds": True, "alpha_window": _WINDOW_JSON},
      "condition2": {"holds": False, "alpha_window": {"infeasible": True, "regime_label": None}},
      "closure_irreducible": True, "fully_irreducible": False}),
]


@pytest.mark.parametrize("record, expected", [case[1:] for case in CASES], ids=[case[0] for case in CASES])
def test_record_json_form(record, expected):
    doc = record.to_json()
    assert doc == expected
    assert json.dumps(doc) == json.dumps(expected)
