"""Partitions, compositions (weights), dominance, and first-row stabilization."""

from __future__ import annotations

from fractions import Fraction

from .gfp import check_prime


def partition(parts) -> tuple[int, ...]:
    """Canonical partition: weakly decreasing positive parts, trailing zeros dropped."""
    out = []
    for v in parts:
        v = int(v)
        if v < 0:
            raise ValueError(f"negative part {v}")
        if out and v > out[-1]:
            raise ValueError(f"parts not weakly decreasing: {tuple(parts)}")
        out.append(v)
    while out and out[-1] == 0:
        out.pop()
    return tuple(out)


def composition(parts) -> tuple[int, ...]:
    """Canonical composition: nonnegative entries, trailing zeros dropped."""
    out = [int(v) for v in parts]
    if any(v < 0 for v in out):
        raise ValueError(f"negative entry in composition {tuple(parts)}")
    while out and out[-1] == 0:
        out.pop()
    return tuple(out)


def transpose(lam) -> tuple[int, ...]:
    """Column lengths of the diagram: transpose(lam)[j] = #{i : lam_i >= j+1}."""
    lam = partition(lam)
    if not lam:
        return ()
    return tuple(sum(1 for part in lam if part >= j) for j in range(1, lam[0] + 1))


def dominates(mu, lam) -> bool:
    """True iff every prefix sum of mu covers the one of lam (sorted decreasingly).

    This is the nonemptiness criterion for weight-lam column-strict fillings
    of shape mu.  Degrees must agree.
    """
    mu = partition(mu)
    lam_sorted = tuple(sorted((int(v) for v in lam), reverse=True))
    if sum(mu) != sum(lam_sorted):
        raise ValueError(f"degree mismatch: {mu} vs {tuple(lam)}")
    total_mu = 0
    total_lam = 0
    for j in range(max(len(mu), len(lam_sorted))):
        total_mu += mu[j] if j < len(mu) else 0
        total_lam += lam_sorted[j] if j < len(lam_sorted) else 0
        if total_mu < total_lam:
            return False
    return True


def stabilize(lam, k: int, d: int, p: int) -> tuple[int, ...]:
    """Add k*p^d boxes to the first row."""
    check_prime(p)
    if k < 0 or d < 0:
        raise ValueError("k and d must be nonnegative")
    lam = partition(lam)
    m = k * p**d
    if m == 0:
        return lam
    if not lam:
        return (m,)
    return (lam[0] + m,) + lam[1:]


def all_partitions(r: int) -> list[tuple[int, ...]]:
    """All partitions of r in descending lexicographic order."""
    if r < 0:
        raise ValueError("negative degree")
    out: list[tuple[int, ...]] = []

    def rec(remaining, cap, prefix):
        if remaining == 0:
            out.append(tuple(prefix))
            return
        for part in range(min(cap, remaining), 0, -1):
            prefix.append(part)
            rec(remaining - part, part, prefix)
            prefix.pop()

    rec(r, r, [])
    return out


def weyl_dimension(mu, n: int) -> int:
    """Classical product formula for dim of the highest-weight module of weight mu for GL_n."""
    mu = partition(mu)
    if len(mu) > n:
        raise ValueError(f"{mu} has more than n={n} parts")
    padded = mu + (0,) * (n - len(mu))
    result = Fraction(1)
    for i in range(n):
        for j in range(i + 1, n):
            result *= Fraction(padded[i] - padded[j] + j - i, j - i)
    assert result.denominator == 1
    return int(result)


def parse_partition(text: str) -> tuple[int, ...]:
    """Parse "a,b,c" with optional "v^m" repetition shorthand, e.g. "28,5,2^9"."""
    parts: list[int] = []
    for pos, piece in enumerate(text.split(",")):
        piece = piece.strip()
        if not piece:
            raise ValueError(f"empty part at position {pos} in {text!r}")
        if "^" in piece:
            base, _, count = piece.partition("^")
            try:
                value, reps = int(base), int(count)
            except ValueError:
                raise ValueError(f"bad repetition {piece!r} at position {pos}") from None
            if reps < 0:
                raise ValueError(f"negative repetition at position {pos}")
            parts.extend([value] * reps)
        else:
            try:
                parts.append(int(piece))
            except ValueError:
                raise ValueError(f"bad integer {piece!r} at position {pos}") from None
    return partition(parts)


def format_partition(lam) -> str:
    return ",".join(str(v) for v in lam) if lam else "0"
