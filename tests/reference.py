"""Reference routines that the program no longer uses, kept to check it.

`reference_rational_roots` is the trial-division root finder that
`enumeration.rational_roots` replaced: every candidate ±p/q, p | a₀ and
q | aₙ, is evaluated exactly. It costs O(√|a₀| + √|aₙ|) divisions, so the
tests call it on small coefficients only.
"""

from fractions import Fraction

from nondiv import ratlin as rl

F = Fraction


def divisors(m: int) -> list[int]:
    m = abs(m)
    out = set()
    i = 1
    while i * i <= m:
        if m % i == 0:
            out.add(i)
            out.add(m // i)
        i += 1
    return sorted(out)


def reference_rational_roots(coeffs) -> list[Fraction]:
    """All rational roots of the polynomial with the given coefficients."""
    ints = rl.scale_to_int([coeffs])[0][0]
    roots = []
    # factor out x^v
    v = 0
    while v < len(ints) and ints[v] == 0:
        v += 1
    if v == len(ints):
        return [F(0)]
    if v:
        roots.append(F(0))
        ints = ints[v:]
    a0, an = ints[0], ints[-1]
    for p in divisors(a0):
        for q in divisors(an):
            for cand in (F(p, q), F(-p, q)):
                if cand in roots:
                    continue
                val = F(0)
                for c in reversed(ints):
                    val = val * cand + c
                if val == 0:
                    roots.append(cand)
    return sorted(set(roots))
