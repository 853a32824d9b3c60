"""Reference computations that the tests compare the package against; none
of them is part of the package."""

from rmtorus.ecpoints import Curve, is_good_prime


def count_points_naive(e: Curve, p: int) -> int:
    """|E(F_p)| by full O(p^2) enumeration; the independent oracle."""
    if not is_good_prime(e, p):
        raise ValueError(f"p={p} is not a good prime for {e}")
    a, b = e.a % p, e.b % p
    count = 1  # point at infinity
    for x in range(p):
        rhs = ((x * x % p) * x + a * x + b) % p
        for y in range(p):
            if y * y % p == rhs:
                count += 1
    return count
