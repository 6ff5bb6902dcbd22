"""Construct closed-form compacton profiles and inspect their constants.

Every family resolves its amplitude alpha, argument scale beta, and
half-width L from (n, a, b, g).  The half-width is the first zero of the
profile's own inner expression rather than the catalog's printed formula,
so it is trustworthy even where a printed formula is not.
"""

import numpy as np

from compactons import FamilyId, construct, evaluate, sample

print("The cosine family at n = 2, a = b = 1, speed c = 1:")
prof = construct(FamilyId.COS1, n=2, g=1.0)
print(f"  U(xi) = {prof.alpha:.6g} * cos({prof.beta:.6g} * xi)**{prof.exponent:g}")
print(f"  peak U(0) = {evaluate(prof, 0.0):.6g}  (4c/3 for c = 1)")
print(f"  half-width L = {prof.L:.6g}  (2*pi)")
print(f"  endpoint power p = {prof.p:g}")
print()

print("A sample of families at one admissible point each:")
for family, kwargs in [
    (FamilyId.ZSQ1, dict(n=2)),
    (FamilyId.CN2, dict(n=2)),
    (FamilyId.SN1, dict(n=0.75, b=-1)),
    (FamilyId.RATCN6, dict(n=2)),
    (FamilyId.COS2, dict(m=0.25, b=-1)),
]:
    prof = construct(family, **kwargs)
    pr = prof.params
    print(f"  {family.value:8s} m={pr.m:<5g} n={pr.n:<5g} "
          f"L={prof.L:<9.5g} p={prof.p:<7.4g} U(0)={evaluate(prof, 0.0):.5g}")
print()

print("Profiles are identically zero beyond the half-width:")
prof = construct(FamilyId.CN2, n=2)
for xi in (0.0, 0.5 * prof.L, 0.999 * prof.L, prof.L, 1.2 * prof.L):
    print(f"  U({xi:8.4f}) = {evaluate(prof, xi):.6g}")
print()

sp = sample(prof, 41)
print(f"sample(prof, 41) -> {len(sp.xi)} points including margin; "
      f"CSV starts with:")
print("\n".join(sp.to_csv().splitlines()[:4]))
