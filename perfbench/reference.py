"""Workload and probe input sizes, and the reference answers every pass
and probe is checked against.

The keys are the names a pass or probe reports its results under; values
are compared as strings.  The sweep rows and ratios are the criterion-1
table of the acceptance suite; the scan counts at 10^5 are the values the
library gave when the benchmark was defined and are pinned here so that a
change to the sweep engines cannot move them unnoticed.
"""

ECHO_X = 10**5
FAMILY_X = 10**5
BRUTE_LEVELS = (2, 3, 4)
RESOLVED_CLASSES_PER_LEVEL = 56  # 32 + 24 classes whose det(M - I) valuation is pinned mod 4

# probe input sizes; the seed draws where the inputs sit, never how many
PRIME_WINDOW = 200       # primes per decision window
SCALAR_SAMPLES = 20      # scalar multiplications near 10^6
COLSPACE_SAMPLES = 2000  # (v, A) pairs at k = 5 for colspace_contains
IMAGE_SAMPLES = 200      # of those, pairs also run through image_of as the oracle

_ECHO_ROWS = {
    10: ("3 4", "0.750000000"),
    100: ("13 25", "0.520000000"),
    1000: ("91 168", "0.541666667"),
    10_000: ("636 1229", "0.517493897"),
    100_000: ("5118 9592", "0.533569641"),
}

_BRUTE_TOTALS = {
    2: "71/128",
    3: "4409/8192",
    4: "280025/524288",
    5: "17887193/33554432",
}

PASS = {
    "echo-sweep": {
        **{f"row.{x}": row for x, (row, _) in _ECHO_ROWS.items()},
        **{f"ratio.{x}": ratio for x, (_, ratio) in _ECHO_ROWS.items()},
    },
    "family-scan": {
        "member.certificate": "True",
        "member.roots": "-1594323/128",
        "member.root_is_-96b^2": "True",
        "member.scan": "5131 9592",
        "control.pair": "-1 -1",
        "control.certificate": "True",
        "control.roots": "",
        "control.scan": "5011 9592",
        # sweep() counts 5118 hits to 1e5; the pair scan skips the bad prime 3
        "anchor.scan": "5117 9592",
    },
    "twoadic": {
        "classify.orders": "1536 384",
        "classify.members": "1 4",
        "classify.proper_is_h2": "True",
        **{f"brute.total.k{k}": _BRUTE_TOTALS[k] for k in BRUTE_LEVELS},
        "brute.resolved_match": str(RESOLVED_CLASSES_PER_LEVEL * len(BRUTE_LEVELS)),
        "analytic.hk": "179/336",
        "analytic.full": "11/21",
        "hk4.order": "1572864",
    },
}

PROBES = {
    "sweep": {
        "group_order.checked": str(PRIME_WINDOW),
        "sieve.matches_primes_up_to": "True",
        "scalar_mul.on_curve": str(SCALAR_SAMPLES),
    },
    "fabulous": {
        "certify.all_true": "True",
        "control_pair": "-1 -1",
        "rational_roots": "-1594323/128",
        "halving_quartic_irreducible": "True",
    },
    "aglgroup": {
        "classify.orders": "1536 384",
        "closure.order.l3": "98304",
        "is_kinetic.l3": "True",
        "hk4.order": "1572864",
    },
    "density": {
        "analytic.hk": "179/336",
        "analytic.full": "11/21",
        "colspace.agrees_with_image_of": str(IMAGE_SAMPLES),
        "brute.total.k4": _BRUTE_TOTALS[4],
        "brute.total.k5": _BRUTE_TOTALS[5],
        "brute.resolved_match.k5": str(RESOLVED_CLASSES_PER_LEVEL),
    },
}
