"""The exports of an attached serving run, pinned byte for byte.

Two ``repro sched-bench`` runs write every trace and metrics export: a
hot 200-request trace over 8 modules that stay resident, and a
churn-shaped one (32 modules in a 128 KiB arena, admission
verification, late drops and a 178 mW power cap, with the power
exports).  Each artifact's sha256 was taken from the program before
the tracer and the emit sites were reworked for cost, so a change to
how a fact is recorded (a mirrored signal, a folded histogram flush,
a cached instrument) cannot change what any export says.
"""

import hashlib

import pytest

from repro.cli import main

HOT = ["--requests", "200", "--rate", "300", "--modules", "8",
       "--frame", "32", "--seed", "2026"]
CHURN = HOT[:4] + ["--modules", "32", "--frame", "32", "--seed", "2026",
                   "--cache-kb", "128", "--verify", "--drop-late",
                   "--power-cap-mw", "178", "--power-window-us", "2000"]

CASES = {
    "hot": (HOT, {
        "trace.json": "0adff5ead81d2ee5c17a45c7da76b944"
                      "706ba478d68d0018e9c9c59038f18fd9",
        "trace.vcd": "2a683713f255d0d089d3039baa4ac9d4"
                     "504acf945e5f954be7a7ee511a10be56",
        "metrics.prom": "ed3dec1a7d1c6aae74af2596ef7510ba"
                        "b5a1ca3fde49e46a053d706b2788d9d7",
        "metrics.json": "c5c226a2057eb306439504e967aef8ff"
                        "374077a0c98040769030afce6431b0f8",
    }),
    "churn": (CHURN, {
        "trace.json": "40758f9a12ca14bbf80615614052b7a3"
                      "3f5040279e3ce3e70ccaf914666a3257",
        "trace.vcd": "e4b27672747d6712d4127bd1394f308b"
                     "512fd2a2e44d36512343a7f5a6b0e636",
        "metrics.prom": "afef029bb004eb622ea039708855a312"
                        "960b1d097c02c2c0b0b65f25f643e06d",
        "metrics.json": "620c740b359cfe51a6c77900801aaf3e"
                        "7b7f79509bf6a7adeec68f0754950d59",
        "power.json": "af12ad92841fdf940224e11f1ab2ece3"
                      "f3c5ad1734b0a69b1b6f1591aeaabd3c",
        "power.vcd": "8c67ad5741335c8e0a46c5eba20fd8d5"
                     "08c8414c1a18d0b3afdbc2c1ffe93ec2",
    }),
}

FLAGS = {
    "trace.json": "--trace-chrome",
    "trace.vcd": "--trace-vcd",
    "metrics.prom": "--metrics",
    "metrics.json": "--metrics-json",
    "power.json": "--power-chrome",
    "power.vcd": "--power-vcd",
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_serving_exports_are_pinned(case, tmp_path, capsys):
    argv, digests = CASES[case]
    exports = []
    for name in digests:
        exports += [FLAGS[name], str(tmp_path / name)]
    assert main(["sched-bench", *argv, *exports]) == 0
    capsys.readouterr()
    got = {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
           for name in digests}
    assert got == digests
