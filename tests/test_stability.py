"""Byte-stability guard: canonical reports of a few fixed cases are pinned.

Each digest is the sha256 of the canonical JSON report without its ``meta``
block (which names the tool version), and of the text printed on stdout.
The digests were recorded before the polynomial printer, the squarefree split
and the scalar ``RatFunc`` products were rewritten for speed, and
tower-kmax-60's before ``Poly`` held its power of x as ``val``, so any change
to a certificate byte shows here.  tower-kmax-60 puts solutions over x**118
and long x-power vectors under the gate.  analyze-x4-pole and risch-x40-pole
were recorded before Hermite reduction read the pole at x = 0 off one
power-series division: alpha lies over x**4*(2*x**2 + 3) and over x**40.
"""

import contextlib
import hashlib
import io
import json

import pytest

from ratcert.cli import run

RISCH_ALPHA = "(3/2*x^2 - x + 5)/x^3 + 2/(x - 1)"
# beta = h' + 2*alpha*h for h = (7/5*x^3 + x^2 - 1/3)/(x^2*(x - 1)^2)
RISCH_BETA = (
    "(42/5*x^6 - 17/5*x^5 + 59/5*x^4 - 3*x^3 - 9*x^2 - 4*x + 10/3)"
    "/(x^8 - 3*x^7 + 3*x^6 - x^5)"
)
# beta = h' + alpha*h for h = (x^2 + 1)/(x - 2)^2
X40_BETA = (
    "(3*x^42 - 10*x^41 + x^40 - 6*x^39 - 2*x^20 + 4*x^19 - 2*x^18 + 4*x^17"
    " + 5*x^3 - 10*x^2 + 5*x - 10)/(x^43 - 6*x^42 + 12*x^41 - 8*x^40)"
)

# name: (argv, sha256 of the canonical report, sha256 of stdout)
PINNED = {
    "tower-kmax-20": (
        ["analyze", "--p", "x^2 - (67/89)*y", "--q", "y*(x + 1)", "--kmax", "20"],
        "4902053307642445cf501bab84d768b4f47d572375cd7a391e2ee402174a78f8",
        "70fea6c59da3d93355e904835f55d1f33cff4994c5cf7498948172a7445149a3",
    ),
    "tower-kmax-60": (
        ["analyze", "--p", "x^2 - (67/89)*y", "--q", "y*(x + 1)", "--kmax", "60"],
        "ed2b16f5b31f3791c465add4d3f288adbe27c6b2fdd9ab61ea642e9f21d0af69",
        "6c539bd15a1a7ceec0a552cb1600d93138f77d38a2302194a84f4a7ecf3c4679",
    ),
    "cubic-k2": (
        ["analyze", "--p", "x^3-y", "--q", "y*(x^2-x-1-y)", "--kmax", "2"],
        "36d79eb0356464ea8ab520aeaa6fda35bf3bea76e44b0b8df7eca1818dfe0160",
        "4136ab74562b6011ac07d11f3fa738b8d3af516dcfa24f488a61d9c8621c8c9b",
    ),
    "cubic-at-infinity": (
        [
            "analyze",
            "--p", "3/2*x^3 - 5/3*x^2*y + x*y^2 - 2*x^2",
            "--q", "3/2*x^2*y - 5/3*x*y^2 + x^2 - 2*x*y",
            "--at-infinity", "--kmax", "3",
        ],
        "51d25890ca7d7847fd31009889293e1ccd506dadc90b3d326b822135b75f3677",
        "ad895d614382868b43e691d6b4b29db1f9b167b456b67495f236a3924f6f4134",
    ),
    "risch-order-3": (
        ["risch", "--alpha", RISCH_ALPHA, "--beta", RISCH_BETA, "--order", "3"],
        "857c46bc4d926c6de9686311d2de6fa2ff9732fd8ed82aafdeb30bd8f02c6a5e",
        "7e2fbdb7ce373eb82872e6b4d854d5bed05030019c446fbe81389734c818f4a7",
    ),
    "analyze-x4-pole": (
        ["analyze", "--p", "x^4*(2*x^2+3) - y", "--q", "y*(x^2 - x - 1 - y)"],
        "e8c589ce691794727f75abeb661a361583b0fbcede3cb276586db1c2abfa9ff6",
        "8ab2b175c5c9013873dadef3907bce45b0b0a51af3a737452c5af1ef61ee338a",
    ),
    "risch-x40-pole": (
        ["risch", "--alpha", "(3*x^39 - 2*x^17 + 5)/x^40", "--beta", X40_BETA, "--order", "2"],
        "6618ec288e6ae2b88e7564eb2e21991e8f2ffbef43f56ce32cd99d3868129b95",
        "15ea85d089e86e3cee46d3d53db20de520148d52b8b3d65eef0ed0dbd2ad0e1a",
    ),
}


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


@pytest.mark.parametrize("name", sorted(PINNED))
def test_report_bytes_are_pinned(name):
    argv, report_sha, stdout_sha = PINNED[name]
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code, report = run(argv)
    assert code == 0
    report.pop("meta")
    assert _sha(json.dumps(report, sort_keys=True, separators=(",", ":"))) == report_sha
    assert _sha(out.getvalue()) == stdout_sha
