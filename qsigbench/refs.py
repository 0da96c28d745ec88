"""Reference computations the benchmark checks qsiglab's outputs against.

Each is written from the definition, not from qsiglab's code, so that a
fault in the program does not also sit in its check:

* ``clopper_pearson``: exact two-sided binomial interval, stdlib only;
* ``derive_seed`` / ``mac_tag``: the SHA-256 key schedule and the one-time
  polynomial MAC over GF(2^16) with reduction polynomial
  x^16 + x^5 + x^3 + x + 1, evaluated as an explicit power sum;
* ``truesig_encode``: the stand-alone scheme's signed state
  s = d^{-(k-1)/2} sum_x psi(x_0) |y_1(x) ... y_{2k-1}(x)>, built from the
  rows of the signing functional matrix.
"""
from __future__ import annotations

import hashlib
import itertools
import math

# ---------------------------------------------------------------------------
# exact binomial interval


def _log_pmf(i: int, n: int, p: float) -> float:
    return math.lgamma(n + 1) - math.lgamma(i + 1) - math.lgamma(n - i + 1) + i * math.log(p) + (n - i) * math.log1p(-p)


def _sum_pmf(lo: int, hi: int, n: int, p: float) -> float:
    return math.fsum(math.exp(_log_pmf(i, n, p)) for i in range(lo, hi + 1))


def binom_cdf(k: int, n: int, p: float) -> float:
    """P(X <= k) for X ~ Binomial(n, p), 0 < p < 1, summing the shorter tail exactly."""
    if k < 0:
        return 0.0
    if k >= n:
        return 1.0
    if k + 1 <= n - k:
        return min(1.0, _sum_pmf(0, k, n, p))
    return max(0.0, 1.0 - _sum_pmf(k + 1, n, n, p))


def _bisect(f, target: float, increasing: bool) -> float:
    """p in [0, 1] with f(p) = target for a monotone f, to double precision."""
    lo, hi = 0.0, 1.0
    for _ in range(200):
        mid = (lo + hi) / 2.0
        if mid in (lo, hi):
            break
        if (f(mid) < target) == increasing:
            lo = mid
        else:
            hi = mid
    return (lo + hi) / 2.0


def clopper_pearson(k: int, n: int, alpha: float) -> tuple[float, float]:
    """Exact two-sided interval for a binomial rate at confidence 1 - alpha.

    The lower limit solves P(X >= k | p) = alpha/2 and the upper limit solves
    P(X <= k | p) = alpha/2; they are 0 and 1 at k = 0 and k = n.
    """
    if not (0 <= k <= n and n >= 1):
        raise ValueError(f"need 0 <= k <= n and n >= 1, got k={k}, n={n}")
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must lie in (0, 1), got {alpha}")
    half = alpha / 2.0
    lower = 0.0 if k == 0 else _bisect(lambda p: 1.0 - binom_cdf(k - 1, n, p), half, increasing=True)
    upper = 1.0 if k == n else _bisect(lambda p: binom_cdf(k, n, p), half, increasing=False)
    return lower, upper


# ---------------------------------------------------------------------------
# key schedule and GF(2^16) one-time MAC

MAC_WIDTH = 16
MAC_POLY = (1 << 16) | (1 << 5) | (1 << 3) | (1 << 1) | 1  # x^16 + x^5 + x^3 + x + 1


def derive_seed(*parts: object) -> int:
    """First 8 bytes, big-endian, of SHA-256 over the ':'-joined labels."""
    return int.from_bytes(hashlib.sha256(":".join(str(p) for p in parts).encode()).digest()[:8], "big")


def gf_mul(a: int, b: int) -> int:
    """Product in GF(2^16): carry-less multiply, then long division by MAC_POLY."""
    prod = 0
    for bit in range(MAC_WIDTH):
        if (b >> bit) & 1:
            prod ^= a << bit
    for deg in range(2 * MAC_WIDTH - 2, MAC_WIDTH - 1, -1):
        if (prod >> deg) & 1:
            prod ^= MAC_POLY << (deg - MAC_WIDTH)
    return prod


def poly_hash(point: int, message: bytes) -> int:
    """sum_i m_i * r^(L - i + 1) over the big-endian 16-bit blocks m_1..m_L
    of the zero-padded message."""
    padded = message + b"\x00" * (len(message) % 2)
    blocks = [int.from_bytes(padded[i : i + 2], "big") for i in range(0, len(padded), 2)]
    h, power = 0, point
    for blk in reversed(blocks):
        h ^= gf_mul(blk, power)
        power = gf_mul(power, point)
    return h


def mac_tag_from(point: int, pad: int, message: bytes) -> int:
    return poly_hash(point, message) ^ pad


def mac_key_seed(link_seed: int) -> int:
    """Seed of the 16-bit MAC key on a link: derive(link, "mac", 16)."""
    return derive_seed(link_seed, "mac", MAC_WIDTH)


def mac_tag(key_seed: int, message: bytes, pad_index: int) -> int:
    """Tag of a message under the MAC key with this seed and pad index."""
    mask = (1 << MAC_WIDTH) - 1
    point = derive_seed(key_seed, "mac_point", MAC_WIDTH) & mask
    pad = derive_seed(key_seed, "mac_pad", MAC_WIDTH, pad_index) & mask
    return mac_tag_from(point, pad, message)


# ---------------------------------------------------------------------------
# stand-alone scheme encoder


def truesig_encode(rows, d: int, k: int, psi) -> list[complex]:
    """Signed-state amplitudes for message amplitudes psi over Z_d.

    ``rows`` are the 2k functionals; row 0 is y_0 = x_0, which stays
    implicit. Register 0 of the output is y_1 and is the most significant
    digit of the flat index.
    """
    rows = [[int(c) % d for c in row] for row in rows]
    if len(rows) != 2 * k or any(len(r) != k for r in rows):
        raise ValueError(f"expected {2 * k} rows of length {k}")
    amps = [0j] * d ** (2 * k - 1)
    norm = d ** (-(k - 1) / 2)
    for x in itertools.product(range(d), repeat=k):
        index = 0
        for row in rows[1:]:
            index = index * d + sum(c * xi for c, xi in zip(row, x)) % d
        amps[index] += complex(psi[x[0]]) * norm
    return amps
