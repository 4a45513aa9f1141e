"""Byte identity of the catalogue reports across refactors.

Runs the eleven configs of the `lab_catalogue` benchmark workload: the five
`presets.CATALOGUE` example configs and the six sweeps of
`perfbench/workloads.py`, at grid 2**17.  They are restated here, so a change
to either source leaves this test's inputs alone.  The sha256 of each
`report.json` and CSV is pinned.  A refactor that is meant to keep every
number must keep every hash.  A change that moves a number on purpose
updates the hash and says why.

The hashes depend on the floating-point libraries and on CPython's float sum
(3.12 compensates it), so they are pinned to one platform, and the test
skips elsewhere.
"""

import hashlib
import platform
import sys

import numpy as np
import pytest
import scipy

from cyclab.experiments import run

PINNED_ON = {"python": "3.11", "numpy": "2.4.6", "scipy": "1.17.1", "machine": "x86_64"}

GRID = 2**17
NC = "non_carleson_n2"
CONFIGS = [
    {"experiment": "cantor", "parameters": {"set": "middle_thirds", "depth": 8}},
    {"experiment": "carleson", "parameters": {"set": NC, "depth": 20}},
    {"experiment": "norms", "parameters": {"preset": "h_k", "k": 5, "p": 2.0, "beta": 0.0}},
    {"experiment": "szego",
     "parameters": {"preset": "smooth_vanishing", "set": "middle_thirds", "depth": 6,
                    "gamma": 1.0, "grid": 2048, "truncate": 256, "degrees": [16, 32]}},
    {"experiment": "certify",
     "parameters": {"preset": "z_minus_1", "p": 1.5, "beta": 0.0, "degree_budget": 64,
                    "epsilon_target": 0.5}},
    {"experiment": "decay", "parameters": {"set": NC, "grid": GRID, "p": 1.5}},
    {"experiment": "decay", "parameters": {"set": "middle_thirds", "grid": GRID, "p": 1.5}},
    {"experiment": "kel_ratio", "parameters": {"set": NC, "grid": GRID}},
    {"experiment": "outer", "parameters": {"set": NC, "grid": GRID}},
    {"experiment": "cantor", "parameters": {"set": NC}},
    {"experiment": "classify",
     "parameters": {"dim": 0.5, "p": 1.5, "log_nonintegrable": True}},
]

SHA256 = {
    # the set statistics of 00_cantor, 01_carleson and 09_cantor moved when
    # they came to be read off the spec's levels, exact and rounded once,
    # in place of the sums over the built set's arcs, which carry its
    # rounding: the depth-20 measure moved by 2.4e-6 relative, its interval
    # sums by 1.4e-11 and 6.2e-11, min_gap by 2.6e-9 and the tubes by up to
    # 1.6e-13; every covering count, gap count and verdict held
    "00_cantor/report.json": "e983b7f760093f054ed8faf6edda17eacbbb1341aee513c9410ce3d7723fb8f9",
    "00_cantor/cantor.csv": "65d0114fb4c32734d882f8949df26bbd8b39722041cf07dc9f5f775a076097e5",
    "01_carleson/report.json": "da2c3cccffad7d26729449d77abceb663f137a12d41b1e856bcea0c5286a69f6",
    "01_carleson/carleson.csv": "e1958d6670bf7de85a0935a269c176b7b9b2e1a5bf2aaf88e44f72052063ee05",
    "02_norms/report.json": "f76846d24cb940c7d51d17ea0d55571806accae5a52973ab3e623fadc3951855",
    "02_norms/norms.csv": "83f0f1b59232ec5c7e28a652bc90535d598d15fe4d23e5166530ac71fabf1b0b",
    # the szego and certify norms moved by rounding when the preconditioner's
    # direct solve became the Levinson-Durbin recursion: szego's rows by
    # +5.7e-15 and +7.1e-14 relative, certify's two norms by +1.4e-16 and
    # -2.1e-16.  They moved by rounding again when the solver's adjoint came
    # to correlate through the forward convolution's spectrum at the
    # forward's transform length: szego's rows by -4.7e-15 and +1.8e-14
    # relative, certify's two norms by -2.8e-16 and +2.1e-16
    "03_szego/report.json": "318f1c6fb0c0eb21031ebc4fa2e5835d114a34c71aafce569156d7d70c7f1b88",
    "03_szego/szego.csv": "eb2ab5d856f2288062d0943d49fc5c72ad3b5f1defaa04c848d1665e5d2ca796",
    # z - 1's p = 1.5 two-sided norm at beta = 0 lies on its exact infimum;
    # it moved 1 ulp, and its polynomial by rounding, when a mu step came to
    # stall on the move of a single Newton step.  Its trace rows then gained
    # two fields, bicyclic_precond_shift and shift_precond_shift, the delta
    # of each side's preconditioner; no number moved.  When the Newton
    # solves of the mu steps before the last came to stop at PCG_RTOL_EARLY,
    # the imaginary parts of best_q's coefficients, rounding noise about 0,
    # moved by at most 2.2e-17; both norms and every real part held bit for
    # bit (relative moves 0 and 0), and so did the CSV
    "04_certify/report.json": "7dd565d76308395f8233bf677cf30bc6d0fb5edddc06a175932ed3e512331974",
    "04_certify/certify.csv": "138ae6db1c832caf79541e0213832415457c1593e481d59925d1dafd2bad3ff6",
    "05_decay/report.json": "40e61da5c55d84a65f33c5106923baed11fbd87a239795631534cc113bd5d5c7",
    "05_decay/decay.csv": "5967d4676343a66a7f719d475ad7cbfb605225a29f8f897613c4fdb9f12e7003",
    "06_decay/report.json": "899198aee5bb802ddf911bff2323956b2aaee26daf2dd962ce020df23bcbece7",
    "06_decay/decay.csv": "b02384436570991dadc24c5cc2f3eb5e48dfa5cb899354b99913ab2d9b934a2b",
    "07_kel_ratio/report.json": "0212e36ed7e90f9dc5d63a7b06fd45499ed91eed88b779a6833585a0601d21d7",
    "07_kel_ratio/kel_ratio.csv": "04f70b6141d800e30b17d4e4d4097d8e9b1cda30642c9351c242547e30a808ee",
    "08_outer/report.json": "c4c60cb43ac6f9c786f3e05eee396e591107d3cdaa9177126279ce1226b568de",
    "08_outer/outer.csv": "d103f82787b0239797d00431ec200e6ca71e60ccad683ae92484a85f581a62fd",
    "09_cantor/report.json": "eed53dfd29c86346b5baf5bda38ff547404a93665e3c424cdd68593fb57b8b7a",
    "09_cantor/cantor.csv": "1fad4806c36e7aa358620e65477b8155792519b027c1aa27bb0c69b0d7acfa43",
    "10_classify/report.json": "e1ba670d7bcfb2db8bca9d7b6493093015c4c19c5794941fa333a299902d7d6d",
    "10_classify/classify.csv": "eaadbc4f278a1670a0f4faf2f6baff532abd7fb6c932712f7d355e8a679452b0",
}

HERE = {
    "python": "%d.%d" % sys.version_info[:2],
    "numpy": np.__version__,
    "scipy": scipy.__version__,
    "machine": platform.machine(),
}


def test_pinned_hashes_cover_every_output():
    names = {"%02d_%s/%s" % (i, cfg["experiment"], name)
             for i, cfg in enumerate(CONFIGS)
             for name in ("report.json", "%s.csv" % cfg["experiment"])}
    assert names == set(SHA256)


@pytest.mark.skipif(HERE != PINNED_ON,
                    reason="hashes pinned on %s; this is %s" % (PINNED_ON, HERE))
@pytest.mark.parametrize("index", range(len(CONFIGS)))
def test_report_and_csv_bytes_are_pinned(tmp_path, index):
    cfg = CONFIGS[index]
    label = "%02d_%s" % (index, cfg["experiment"])
    manifest = run(dict(cfg, output_dir=str(tmp_path / label)))
    assert manifest.status == "ok"
    for name in ("report.json", "%s.csv" % cfg["experiment"]):
        digest = hashlib.sha256((tmp_path / label / name).read_bytes()).hexdigest()
        assert digest == SHA256["%s/%s" % (label, name)], "%s/%s" % (label, name)
