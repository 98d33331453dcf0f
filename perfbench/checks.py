"""Fingerprints of CLI answers and the independent cross-checks.

A fingerprint is the exit code plus a hash of the canonical JSON payload.
Floats, including float literals the payload carries as strings (the
coefficients of a d'Alembert witness), are taken out of the hash and
compared within the request's own ``--tolerance``.  Where an independent
route to the answer exists, it is checked as well:

- ``zerodiv``: the pairs use 42 distinct index pairs at level 4 and 294 at
  level 5 (de Marrais's "42 assessors", arXiv math/0011260, and its
  level-5 analogue), and a seeded sample of pairs is re-multiplied with
  ``cd_multiply_recursive``.
- ``snf``: U*M*V = D is recomputed here, D is diagonal, and the factors
  equal sympy's ``smith_normal_form``, stored in the fingerprint file by
  make_fingerprints.py.  U and V are not fingerprinted: they are not unique.
- ``upsets``: the algebra size equals a brute-force count of the poset's
  up-sets.
"""

from __future__ import annotations

import hashlib
import json
import random

ASSESSORS = {4: 42, 5: 294}
ZERODIV_SAMPLE = 16


def _is_float_text(text: str) -> bool:
    if not any(c in text for c in ".eEn"):
        return False
    try:
        float(text)
    except ValueError:
        return False
    return True


def _split_floats(value, floats: list):
    """Copy of ``value`` with every float replaced by a marker; the floats
    are appended to ``floats`` in document order."""
    if isinstance(value, float) or (isinstance(value, str) and _is_float_text(value)):
        floats.append(float(value))
        return "<float>"
    if isinstance(value, dict):
        return {k: _split_floats(value[k], floats) for k in sorted(value)}
    if isinstance(value, (list, tuple)):
        return [_split_floats(v, floats) for v in value]
    return value


def fingerprint(code: int, text: str, payload: dict, has_floats: bool) -> dict:
    """Fingerprint of one answer.  ``text`` is ``CommandResult.to_json()``;
    it is hashed as it is unless the request compares floats."""
    if not has_floats:
        return {"code": code, "sha": hashlib.sha256(text.encode()).hexdigest()}
    floats = []
    masked = _split_floats(payload, floats)
    canon = json.dumps(masked, sort_keys=True, separators=(",", ":"))
    return {"code": code, "sha": hashlib.sha256(canon.encode()).hexdigest(),
            "floats": floats}


def compare(got: dict, expected: dict, tolerance: float | None) -> str | None:
    """None when ``got`` matches ``expected``, else the reason it does not."""
    if got["code"] != expected["code"]:
        return f"exit code {got['code']}, expected {expected['code']}"
    if got["sha"] != expected["sha"]:
        return "payload hash differs"
    a, b = got.get("floats", []), expected.get("floats", [])
    if len(a) != len(b):
        return "payload float count differs"
    tol = tolerance or 0.0
    for x, y in zip(a, b):
        if abs(x - y) > tol:
            return f"float {x!r} differs from {y!r} by more than {tol}"
    return None


# ---------------------------------------------------------------------------
# independent oracles
# ---------------------------------------------------------------------------

def check_zerodiv(payload: dict, rng: random.Random, cd) -> str | None:
    """``cd`` is the program's cayley_dickson module, whose recursive
    product is the independent route."""
    level = payload["level"]
    pairs = payload["pairs"]
    if payload["count"] != len(pairs):
        return "count disagrees with the pair list"
    supports = set()
    for pair in pairs:
        for side in ("a", "b"):
            coeffs = pair[side]["coeffs"]
            supports.add(tuple(k for k, c in enumerate(coeffs) if c != "0"))
    want = ASSESSORS.get(level, 0)
    if len(supports) != want:
        return f"{len(supports)} distinct index pairs, expected {want}"
    for pair in rng.sample(pairs, min(ZERODIV_SAMPLE, len(pairs))):
        a = cd.CDElement.from_json_dict(pair["a"])
        b = cd.CDElement.from_json_dict(pair["b"])
        if a.is_zero() or b.is_zero() or not cd.cd_multiply_recursive(a, b).is_zero():
            return "a sampled pair is not a zero divisor under the recursive product"
    return None


def _matmul(a, b):
    return [[sum(x * y for x, y in zip(row, col)) for col in zip(*b)] for row in a]


def check_snf(payload: dict, matrix: list, sympy_factors: list) -> str | None:
    u, v, d = payload["U"], payload["V"], payload["D"]
    if _matmul(_matmul(u, matrix), v) != d:
        return "U*M*V != D"
    if any(d[i][j] != 0 for i in range(len(d)) for j in range(len(d[i])) if i != j):
        return "D is not diagonal"
    diag = [d[i][i] for i in range(len(payload["factors"]))]
    if payload["factors"] != diag:
        return "factors are not the diagonal of D"
    if [abs(x) for x in diag] != sympy_factors:
        return f"factors {diag} differ from sympy's {sympy_factors}"
    return None


def count_upsets(poset: dict) -> int:
    """Brute-force count of the up-sets of a poset file."""
    names = poset["elements"]
    index = {e: i for i, e in enumerate(names)}
    n = len(names)
    le = [[i == j for j in range(n)] for i in range(n)]
    for a, b in poset["le"]:
        le[index[a]][index[b]] = True
    for k in range(n):  # transitive closure
        for i in range(n):
            for j in range(n):
                le[i][j] = le[i][j] or (le[i][k] and le[k][j])
    count = 0
    for mask in range(1 << n):
        members = [i for i in range(n) if mask >> i & 1]
        if all(mask >> j & 1 for i in members for j in range(n) if le[i][j]):
            count += 1
    return count


def check_upsets(payload: dict, poset: dict) -> str | None:
    if not payload.get("accepted"):
        return "poset algebra rejected"
    want = count_upsets(poset)
    if payload["size"] != want:
        return f"size {payload['size']}, brute-force up-set count {want}"
    return None
