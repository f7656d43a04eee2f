"""Exact toolkit for the ECHO sequence and the elliptic curve it lives on.

Modules:
    seq       two-way memoized sequence under both defining recurrences
    curves    exact Weierstrass arithmetic over Q and F_p, odd-multiple
              coordinates, normal-form reduction
    sweep     parallel prime sweep deciding odd order / term divisibility
    aglgroup  affine groups mod 2^k, the index-4 subgroup tower, and the
              exhaustive kinetic classification
    density   exact column-space densities (179/336 and 11/21), brute and
              analytic engines
    fabulous  the quartic certificate machinery for the curve family
    polyops   exact polynomial and integer helpers: prime sieves, rational
              roots, quartic discriminants and irreducibility
    cli       command-line dispatcher (`echo ...` / `python -m echotk`)
"""

__version__ = "0.1.0"
