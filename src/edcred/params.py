"""System parameters and issuer keys.

A deployment is a curve, a base point and the issuer public key
Ppub = x * P. The secret x never appears inside SystemParams or its file
form; it lives only in the separate issuer key file, so serializing or
publishing params can never leak it. Both files use the same key=value
text lines as curve fixtures.
"""

from __future__ import annotations

import hashlib
import os
import threading

from .curve import (
    CurveParams,
    Point,
    Scalar,
    curve_by_name,
    in_prime_subgroup,
    parse_kv,
    sum_is_neutral,
)

_PARAMS_KEYS = ("Ppubx", "Ppuby", "hash", "k")
_HASH = "sha256"  # the only hash hashing.py implements; named in the file
# Ppub builds its comb table at its _COMB_AT-th signature check, once a
# build would have paid for itself in multiples: ceil(build / (wNAF Ms -
# comb Ms)) on curve1174, a build of 4096 entries. tools/bench_kernel.py's
# comb break-even row measures that ratio with the three timings of each
# loop made back to back, on a fresh copy of Ppub (2 vCPU, Python 3.11.7):
# at its default --repeat 100 it read 40.7 (quartiles 38.4 - 42.6) and
# 41.2 (38.9 - 43.5). Runs of 21 loops read medians of 37.1 to 43.1, and
# some of their quartiles exclude 39 on either side (36.1 - 37.8, 39.9 -
# 41.9): a short run moves between runs by more than its own spread. 39
# lies within the 100-loop quartiles, so it stays.
# The build runs the exact _add and _dbl, the wNAF and the comb _sum's
# folding pass, which folds where those divide. Where Ppub shares its
# chain with proof terms it saves only its additions on the comb, so
# there the build pays off later; one count serves both.
_COMB_AT = 39


class SystemParams:
    """Public issuance parameters: curve, issuer public key and security
    level k in bits. The constructor refuses a k outside [1, bits(q)] and
    a Ppub that is neutral or of small order ([cofactor]*Ppub == O), under
    which s*P == R passes a signature check for some or, cofactored, for
    every h. That costs a chain as long as the cofactor's bits, about
    log2(cofactor) doublings, and no multiple. parse_file, where a
    deployment comes in from outside, also refuses a Ppub outside the
    order-q subgroup: one exact chain q*Ppub with no inversion. setup()
    makes Ppub as x*P and parses nothing, so it pays for no chain."""

    __slots__ = ("curve", "p_pub", "k", "_digest", "_checks")

    def __init__(self, curve: CurveParams, p_pub: Point, k: int):
        if not 1 <= k <= curve.q.bit_length():
            raise ValueError(f"security level k must lie in [1, {curve.q.bit_length()}]")
        if sum_is_neutral(curve, [(p_pub, 1)], ms=0, ap=0, cofactored=True):
            raise ValueError("public key is neutral or of small order")
        self.curve = curve
        self.p_pub = p_pub
        self.k = k
        self._checks = 0

    def signature_terms(self, s: int, h: int, r_point: Point) -> list:
        """The terms of s*P - h*Ppub - R == O, the equation of every
        signature check, for curve.sum_is_neutral.

        Counts one check, and builds Ppub's comb table at the _COMB_AT-th.
        Unlocked: a count lost to another thread delays the build, and the
        thread that counts _COMB_AT builds.
        """
        checks = self._checks = self._checks + 1
        if checks == _COMB_AT:
            self.p_pub.precompute()
        return [(self.curve.base, s), (self.p_pub, -h), (r_point, -1)]

    def format_file(self) -> str:
        return (
            self.curve.format_file()
            + f"Ppubx={self.p_pub.x}\n"
            + f"Ppuby={self.p_pub.y}\n"
            + f"hash={_HASH}\n"
            + f"k={self.k}\n"
        )

    def digest(self) -> bytes:
        """Stable 32-byte identifier, bound into every proof context and
        token so artifacts cannot migrate between deployments.

        Hashed on the first call and kept, so treat the object as
        immutable.
        """
        try:
            return self._digest
        except AttributeError:
            self._digest = hashlib.sha256(self.format_file().encode()).digest()
            return self._digest

    @classmethod
    def parse_file(cls, text: str) -> "SystemParams":
        curve = CurveParams.parse_file(text)
        fields = parse_kv(text, required=_PARAMS_KEYS)
        if fields["hash"] != _HASH:
            raise ValueError(f"params file: unsupported hash {fields['hash']!r}")
        p_pub = Point(int(fields["Ppubx"]), int(fields["Ppuby"]), curve)
        params = cls(curve=curve, p_pub=p_pub, k=int(fields["k"]))
        if not in_prime_subgroup(p_pub):
            raise ValueError("public key outside the prime-order subgroup")
        return params

    def save(self, path) -> None:
        with open(path, "w") as fh:
            fh.write(self.format_file())

    @classmethod
    def load(cls, path) -> "SystemParams":
        with open(path) as fh:
            return cls.parse_file(fh.read())


class IssuerKey:
    """The issuer secret x; its public counterpart is the params' Ppub.

    The key also holds one live signing nonce: issuance.IssuerSession sets
    and takes the (session, k) slot under the key's lock, so that the
    sessions on one key object sign one at a time.
    """

    __slots__ = ("x", "_nonce", "_lock")

    def __init__(self, x: Scalar):
        self.x = x
        self._nonce = (None, None)
        self._lock = threading.Lock()

    def format_file(self, params: SystemParams) -> str:
        return params.format_file() + f"x={self.x.v}\n"

    def save(self, path, params: SystemParams) -> None:
        write_secret(path, self.format_file(params))

    @classmethod
    def load(cls, path, params: SystemParams) -> "IssuerKey":
        """Read a key file, which repeats its deployment's params.

        The file's copy must state the same values as params (the
        deployment's params.txt), and is checked against them rather than
        parsed into a second SystemParams, so the process keeps one
        SystemParams, whose checks count toward Ppub's one table.
        """
        x, fields = read_secret(path, "x", params.curve.q)
        if any(fields.get(k) != v for k, v in parse_kv(params.format_file()).items()):
            raise ValueError("key file: params differ from the deployment's")
        if x * params.curve.base != params.p_pub:
            raise ValueError("key file: x does not match public key")
        return cls(x)


def write_secret(path, text: str) -> None:
    """Write text to path with mode 0600, also over a wider existing file."""
    fd = os.open(path, os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o600)
    with open(fd, "w") as fh:
        os.fchmod(fd, 0o600)
        fh.write(text)


def read_secret(path, name: str, q: int) -> tuple[Scalar, dict]:
    """The secret `name` of the key file at path, refused outside
    [1, q-1], and the file's fields. A file its group or others may read
    is narrowed to 0600; fchmod raises PermissionError if this process
    does not own it, so such a key is refused, as ssh refuses one."""
    with open(path) as fh:
        if os.fstat(fh.fileno()).st_mode & 0o077:
            os.fchmod(fh.fileno(), 0o600)
        fields = parse_kv(fh.read(), required=(name,))
    v = int(fields[name])
    if not 0 < v < q:
        raise ValueError(f"key file: {name} out of range")
    return Scalar(v, q), fields


def setup(curve, rng) -> tuple[SystemParams, IssuerKey]:
    """Create a deployment on curve, a CurveParams or a curve_by_name name:
    draw x uniform from [1, q-1], publish x * P."""
    if isinstance(curve, str):
        curve = curve_by_name(curve)
    x = curve.random_nonzero(rng)
    # k: a generic-group discrete log costs about sqrt(q) work
    params = SystemParams(curve=curve, p_pub=x * curve.base, k=curve.q.bit_length() // 2)
    return params, IssuerKey(x)
