"""Agreement of the index engines: spectral flow, certified winding
(`fredholm_index`), and the reference windings.

The pinned pairs of 2x2 limit symbols live in `pinned_pairs`.  Their
reference index is the difference of the sampled axis windings of the limits
(`conftest.sampled_axis_winding`), which 200,001 and 2,000,001 points
agree on.  The 400-point margin scan misses a crossing on each; the
audit against the certified windings of `is_hyperbolic` finds it.
"""

import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from specflow.charmatrix import is_hyperbolic
from specflow.configio import symbol_from_json
from specflow.flow import fredholm_index
from specflow.kernels import exponential_kernel, gaussian_kernel
from specflow.symbols import ShiftTerm, Symbol

from conftest import flow_index, sampled_axis_winding
from pinned_pairs import PAIRS
from rational import axis_winding

CONFIGS = Path(__file__).resolve().parents[1] / "src" / "specflow" / "configs"
IDS = [p[0] for p in PAIRS]


@pytest.mark.parametrize("name, build, index", PAIRS, ids=IDS)
def test_pinned_pair_reference_index(name, build, index):
    # the data still describe a pair whose true index is the pinned one
    s_minus, s_plus = build()
    assert sampled_axis_winding(s_plus, 200001) - sampled_axis_winding(
        s_minus, 200001) == index


@pytest.mark.parametrize("name, build, index", PAIRS, ids=IDS)
def test_flow_matches_reference_index(name, build, index):
    s_minus, s_plus = build()
    assert flow_index(s_minus, s_plus) == index


def _exp_limit(n, a, M, A):
    return symbol_from_json({"n": n, "eta": 1.5, "kernel": {
        "family": "exponential", "a": a, "M": M},
        "shifts": [{"xi": 0.0, "A": A}]})


# the three limit triples of the benchmark's index_flow seed 1 (full size);
# its pair tasks pair limits 0-1, 1-2 and 0-2 of each triple
SEED1_TRIPLES = [
    [(1, 2.6700967619904366, [[1.351391088977806]], [[-1.423361549121465]]),
     (1, 3.4127040601333145, [[-0.5645056439685436]], [[-0.3066942041096974]]),
     (1, 3.2070944094947507, [[-0.2724025908925163]], [[0.19837475069223798]])],
    [(2, 1.8330709358916821,
      [[0.40562097387969054, 0.06102930115084515],
       [-0.27242925360145254, 0.46148592548544687]],
      [[-0.47233240970005197, -0.11160506524643643],
       [-0.8782999266068046, -0.23252883252688983]]),
     (2, 2.0441462888113797,
      [[-0.3802986552930408, 0.4005834762080842],
       [-0.3513459872223361, -0.023694440909383885]],
      [[1.1537692795229726, 1.1079772647930881],
       [0.5394958578564808, 0.09894445331384216]]),
     (2, 2.132269444854445,
      [[-0.542956785959797, 0.7518806611458122],
       [0.025709736876605938, -0.6146150200467675]],
      [[0.29637541329000094, 0.664039474421515],
       [0.2712079225272972, 1.0015144914981662]])],
    [(1, 1.867307890329145, [[0.08576778978006505]], [[-0.1626564684583851]]),
     (1, 1.9059942845547886, [[0.42398450741812477]], [[1.410531353922627]]),
     (1, 2.807999730777283, [[-0.7197076567883304]], [[1.3595260841256351]])],
]


def _mult2_pair():
    cfg = json.loads((CONFIGS / "mult2_pair.json").read_text())
    return symbol_from_json(cfg["s_minus"]), symbol_from_json(cfg["s_plus"])


AGREEMENT_PAIRS = [(name, build) for name, build, _ in PAIRS] + [
    ("mult2_pair", _mult2_pair)] + [
    (f"index_flow_seed1_pair{k}_{i}{j}",
     lambda t=triple, i=i, j=j: (_exp_limit(*t[i]), _exp_limit(*t[j])))
    for k, triple in enumerate(SEED1_TRIPLES)
    for i, j in ((0, 1), (1, 2), (0, 2))]


@pytest.mark.parametrize("name, build", AGREEMENT_PAIRS,
                         ids=[p[0] for p in AGREEMENT_PAIRS])
def test_flow_matches_winding_index(name, build):
    # the flow is the independent engine of the pair index W(s+) - W(s-)
    s_minus, s_plus = build()
    assert flow_index(s_minus, s_plus) == fredholm_index(s_minus, s_plus)


# -- certified windings against the exact and the sampled references -----

_DYADIC = st.integers(-256, 256).map(lambda k: k / 256.0)


def _matrices(draw, n, scale, count=1):
    return [scale * np.array(draw(st.lists(_DYADIC, min_size=n * n,
                                           max_size=n * n))).reshape(n, n)
            for _ in range(count)]


@st.composite
def _rational_symbols(draw):
    """(symbol, True): an exponential or no kernel, one shift at 0.

    Dyadic data keep every product exact, so the axis-root variant,
    Delta(0) = u v^T with u[-1] = 0, is singular exactly as the exact
    engine sees it.
    """
    n = draw(st.integers(1, 3))
    kernel, M, eta = None, np.zeros((n, n)), 1.5
    if draw(st.booleans()):
        a = draw(st.integers(7, 14)) / 4.0
        M, = _matrices(draw, n, 0.75)
        kernel, eta = exponential_kernel(a, M), min(1.5, 0.9 * a)
    A, = _matrices(draw, n, 1.5)
    if draw(st.booleans()):
        u, v = (np.array(draw(st.lists(_DYADIC, min_size=n, max_size=n)))
                for _ in range(2))
        u[-1] = 0.0
        A = -M - np.outer(u, v)
    return Symbol(n, kernel, (ShiftTerm(0.0, A),), eta), True


@st.composite
def _nonrational_symbols(draw):
    """(symbol, False): a Gaussian, exponential or no kernel, a shift at 0
    and one at xi != 0."""
    n = draw(st.integers(1, 3))
    kind = draw(st.sampled_from(["gaussian", "exponential", None]))
    A0, A1, M = _matrices(draw, n, 1.2, 3)
    xi = draw(st.sampled_from([-1.0, 1.0])) * draw(st.floats(0.05, 1.0))
    kernel, eta = None, 1.5
    if kind == "gaussian":
        kernel = gaussian_kernel(draw(st.floats(0.4, 1.0)), 0.6 * M)
    elif kind == "exponential":
        a = draw(st.floats(1.8, 3.5))
        kernel, eta = exponential_kernel(a, 0.6 * M), min(1.5, 0.9 * a)
    return Symbol(n, kernel, (ShiftTerm(0.0, A0), ShiftTerm(xi, 0.5 * A1)),
                  eta), False


@settings(derandomize=True, max_examples=150, deadline=None, database=None)
@given(_rational_symbols() | _nonrational_symbols())
def test_certified_winding_matches_references(case):
    # the certified W is the exact or the sampled winding, or a refusal;
    # an exact axis root is never certified
    sym, rational = case
    res = is_hyperbolic(sym)
    exact = axis_winding(sym) if rational else None
    if rational and exact is None:
        assert not res.hyperbolic
    if res.hyperbolic:
        want = exact if rational else sampled_axis_winding(sym, 200001)
        assert res.winding == want
