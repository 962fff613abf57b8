"""Exact stability computations for U(p,q)-Hitchin pair numerical types.

Slopes, Toledo invariants, Milnor-Wood bounds, critical values of the
stability parameter with chamber decompositions, and irreducibility
certificates, all in arbitrary-precision rational arithmetic.
"""

from .core import (
    BoundInterval,
    GeometryContext,
    HiggsRankPair,
    HitchinPairType,
    ParameterVector,
    QuiverNumericalType,
    alpha_slope_quiver,
    alpha_slope_upq,
    alpha_to_c_pair,
    as_rational,
    compare_at,
    format_rational,
    gcd_rank_degree,
    parse_rational,
    slope,
    toledo,
    upq_parameter_vector,
    upq_quiver_type,
)
from .milnor_wood import MWVerdict, mw_check, toledo_bounds, toledo_bounds_for_ranks
from .oracle import (
    SplitMix64,
    brute_force_walls,
    envelope_toledo_bounds,
    property_driver,
    required_degree_bound,
)
from .walls import (
    CertificateCondition,
    Chamber,
    ChamberReport,
    IrreducibilityCertificate,
    Wall,
    WallWitness,
    chamber_report,
    enumerate_walls,
    irreducibility_certificate,
    wall_alpha,
)

__version__ = "0.1.0"

__all__ = [
    "BoundInterval",
    "CertificateCondition",
    "Chamber",
    "ChamberReport",
    "GeometryContext",
    "HiggsRankPair",
    "HitchinPairType",
    "IrreducibilityCertificate",
    "MWVerdict",
    "ParameterVector",
    "QuiverNumericalType",
    "SplitMix64",
    "Wall",
    "WallWitness",
    "alpha_slope_quiver",
    "alpha_slope_upq",
    "alpha_to_c_pair",
    "as_rational",
    "brute_force_walls",
    "chamber_report",
    "compare_at",
    "enumerate_walls",
    "envelope_toledo_bounds",
    "format_rational",
    "gcd_rank_degree",
    "irreducibility_certificate",
    "mw_check",
    "parse_rational",
    "property_driver",
    "required_degree_bound",
    "slope",
    "toledo",
    "toledo_bounds",
    "toledo_bounds_for_ranks",
    "upq_parameter_vector",
    "upq_quiver_type",
    "wall_alpha",
]
