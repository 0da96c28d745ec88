"""Tests of the benchmark's reference computations.

    python3 -m pytest qsigbench -q
"""
from __future__ import annotations

import math
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import refs  # noqa: E402

# ---------------------------------------------------------------------------
# Clopper-Pearson


@pytest.mark.parametrize(
    "k, n, lower, upper",
    [
        # textbook 95% exact intervals
        (5, 10, 0.187086, 0.812914),
        (1, 10, 0.002529, 0.445016),
        (3, 10, 0.066739, 0.652453),
        (0, 10, 0.0, 0.308497),
        (10, 10, 0.691503, 1.0),
    ],
)
def test_clopper_pearson_textbook_values(k, n, lower, upper):
    lo, hi = refs.clopper_pearson(k, n, 0.05)
    assert lo == pytest.approx(lower, abs=2e-6)
    assert hi == pytest.approx(upper, abs=2e-6)


def test_clopper_pearson_closed_forms_at_the_edges():
    n, alpha = 130, 1e-6
    assert refs.clopper_pearson(0, n, alpha)[1] == pytest.approx(1 - (alpha / 2) ** (1 / n), rel=1e-9)
    assert refs.clopper_pearson(n, n, alpha)[0] == pytest.approx((alpha / 2) ** (1 / n), rel=1e-9)
    # a lower limit solves P(X >= k) = alpha/2 exactly; with k = 1 that is 1 - (1-p)^n
    assert refs.clopper_pearson(1, n, alpha)[0] == pytest.approx(1 - (1 - alpha / 2) ** (1 / n), rel=1e-6)


def test_clopper_pearson_large_n_small_k():
    lo, hi = refs.clopper_pearson(2, 140_000, 1e-6)
    assert 0 < lo < 2 / 140_000 < hi < 1e-3


def test_clopper_pearson_rejects_bad_input():
    with pytest.raises(ValueError):
        refs.clopper_pearson(3, 2, 0.05)
    with pytest.raises(ValueError):
        refs.clopper_pearson(1, 2, 0.0)


# ---------------------------------------------------------------------------
# GF(2^16) MAC, hand-computed values (x = 0x0002, x^16 = x^5 + x^3 + x + 1 = 0x002B)


def test_gf_mul_reduces_by_the_polynomial():
    assert refs.gf_mul(0x8000, 0x0002) == 0x002B
    assert refs.gf_mul(0x1234, 1) == 0x1234
    assert refs.gf_mul(0x1234, 0) == 0
    assert refs.gf_mul(0x1234, 0xABCD) == refs.gf_mul(0xABCD, 0x1234)


def test_gf_multiplicative_group_order():
    # x^16 + x^5 + x^3 + x + 1 is irreducible, so every nonzero a has a^(2^16 - 1) = 1
    def power(a, e):
        out = 1
        while e:
            if e & 1:
                out = refs.gf_mul(out, a)
            a = refs.gf_mul(a, a)
            e >>= 1
        return out

    for a in (0x0002, 0x0003, 0xBEEF):
        assert power(a, (1 << 16) - 1) == 1


@pytest.mark.parametrize(
    "message, tag",
    [
        (b"", 0x00FF),  # no blocks: the tag is the pad
        (b"\x00\x01", 0x0002 ^ 0x00FF),  # 1 * x
        (b"\x00\x01\x00\x01", 0x0006 ^ 0x00FF),  # x^2 + x
        (b"\x80\x00", 0x002B ^ 0x00FF),  # x^15 * x = x^16
        (b"\x80\x00\x00\x00", 0x00A9),  # x^15 * x^2 = x^6 + x^4 + x^2 + x = 0x56
        (b"\x01", 0x0200 ^ 0x00FF),  # zero-padded to the block 0x0100
    ],
)
def test_mac_hand_computed_tags(message, tag):
    assert refs.mac_tag_from(0x0002, 0x00FF, message) == tag


def test_mac_flipped_bit_fails():
    tag = refs.mac_tag_from(0x0002, 0x00FF, b"\x80\x00\x00\x00")
    assert refs.mac_tag_from(0x0002, 0x00FF, b"\x80\x00\x00\x01") != tag


def test_mac_matches_qsiglab():
    from qsiglab.authcrypto import LinkKey, wc_tag

    for link_seed in (0, 17, 2**63 + 5):
        key = LinkKey("victim", link_seed).mac_key(16)
        for pad_index, message in enumerate((b"", b"\x01", b"metadata bytes", bytes(range(24)))):
            assert wc_tag(key, message, pad_index).value == refs.mac_tag(refs.mac_key_seed(link_seed), message, pad_index)


# ---------------------------------------------------------------------------
# stand-alone scheme encoder


def test_truesig_encode_hand_computed():
    # d = 5, k = 2; y1 = x1, y2 = x0 + x1, y3 = x0 + 2 x1; message |1>
    rows = [[1, 0], [0, 1], [1, 1], [1, 2]]
    amps = refs.truesig_encode(rows, 5, 2, [0, 1, 0, 0, 0])
    support = {i: a for i, a in enumerate(amps) if a != 0}
    # x1 = 0..4 -> |x1, 1 + x1, 1 + 2 x1> = |011>, |123>, |230>, |342>, |404>
    assert sorted(support) == [6, 38, 65, 97, 104]
    for a in support.values():
        assert a == pytest.approx(1 / math.sqrt(5))


def test_truesig_encode_matches_qsiglab_sign():
    import numpy as np
    from qsiglab.qsim import PureState, new_rng, sample_random_pure
    from qsiglab.truesig import keygen, sign

    for seed in (1, 2):
        keys = keygen(7, 3, seed)
        psi = sample_random_pure(7, 1, new_rng(seed))
        bundle = sign(keys, psi.amps, PureState(7, 1, psi.amps))
        ref = np.array(refs.truesig_encode(keys.signing.rows.tolist(), 7, 3, psi.amps.tolist()))
        assert abs(np.vdot(ref, bundle.s_state.amps)) ** 2 == pytest.approx(1.0, abs=1e-9)
