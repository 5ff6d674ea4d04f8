"""Orbit counting against a brute-force finite-field census.

The abstract count of connected-group orbit strata for a power-one shape
is 1 + (2^m - 1)d + 2(2^m - 1)(2^p - 1)(2^q - 1).  Over F_p with
p = 1 (mod 2d) every stratum is rational, so classifying all points of
X(F_p) must realize exactly that many descriptors.  Run:

    python demos/02_orbit_census.py
"""

import json

from trinomial_orbits import (
    PrimeField,
    build_census,
    descriptor_to_json,
    orbit_count,
    validate_shape,
)

CASES = [
    ([[1, 2], [3], [3]], 7),
    ([[1, 2, 2], [3], [3]], 13),
    ([[], [1, 3, 3], [3, 3]], 7),
]


def main():
    for raw, p in CASES:
        shape = validate_shape(raw)
        fld = PrimeField(p)
        count = orbit_count(shape)
        print(f"== {shape} over F_{p}")
        print(f"   connected-group orbits {count.aut_alg}, full-group orbits {count.aut}")
        for cls in count.listing:
            print(f"     glued: {cls}")
        census = build_census(shape, fld)
        counts = {
            json.dumps(descriptor_to_json(desc, shape, fld), sort_keys=True): n
            for desc, n in census.counts.items()
        }
        print(f"   |X(F_{p})| = {len(census.points)}, realized descriptors = {len(counts)}")
        assert len(counts) == count.aut_alg
        for key, n in sorted(counts.items()):
            print(f"     {n:6d}  {key}")
        print()


if __name__ == "__main__":
    main()
