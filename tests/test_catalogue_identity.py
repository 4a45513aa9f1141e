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
    "00_cantor/report.json": "fc1dce309a1a06439539505441c2e705eb774b3f496201e0a3caa13d863c2cd0",
    "00_cantor/cantor.csv": "0cfe39a0314e2cbcbee8c51dc6bc6255058de0cfea093cd2fbe941900607c501",
    "01_carleson/report.json": "0a123a568973c81d00052e461c148e0d85f8db5296a9da3d9c0bcf5d003c6e35",
    "01_carleson/carleson.csv": "22baeecd7d09d7b11ed0ec6f9e842b8c0613dc45ca2b84e30676ecae3a2634f4",
    "02_norms/report.json": "f76846d24cb940c7d51d17ea0d55571806accae5a52973ab3e623fadc3951855",
    "02_norms/norms.csv": "83f0f1b59232ec5c7e28a652bc90535d598d15fe4d23e5166530ac71fabf1b0b",
    # the szego and certify norms moved by rounding when the preconditioner's
    # direct solve became the Levinson-Durbin recursion: szego's rows by
    # +5.7e-15 and +7.1e-14 relative, certify's two norms by +1.4e-16 and
    # -2.1e-16
    "03_szego/report.json": "874d84c3348dd3c29ae35f2c99cbdd2cf160d935449b0e997529312571d97e83",
    "03_szego/szego.csv": "667834d6abb637a11ea0d25f7b73a864654d3cc73f2dc062c8d389ccc1bc42b2",
    # z - 1's p = 1.5 two-sided norm at beta = 0 lies on its exact infimum;
    # it moved 1 ulp, and its polynomial by rounding, when a mu step came to
    # stall on the move of a single Newton step
    "04_certify/report.json": "85261a13e82dc01044f7796edadc7e815b2e72766288e30f0ebf96085f6689ba",
    "04_certify/certify.csv": "4b5dddfba9a3d5b0d3aa0957426edb45478a8347b58c9cec325d70b367b5ed59",
    "05_decay/report.json": "40e61da5c55d84a65f33c5106923baed11fbd87a239795631534cc113bd5d5c7",
    "05_decay/decay.csv": "5967d4676343a66a7f719d475ad7cbfb605225a29f8f897613c4fdb9f12e7003",
    "06_decay/report.json": "899198aee5bb802ddf911bff2323956b2aaee26daf2dd962ce020df23bcbece7",
    "06_decay/decay.csv": "b02384436570991dadc24c5cc2f3eb5e48dfa5cb899354b99913ab2d9b934a2b",
    "07_kel_ratio/report.json": "0212e36ed7e90f9dc5d63a7b06fd45499ed91eed88b779a6833585a0601d21d7",
    "07_kel_ratio/kel_ratio.csv": "04f70b6141d800e30b17d4e4d4097d8e9b1cda30642c9351c242547e30a808ee",
    "08_outer/report.json": "c4c60cb43ac6f9c786f3e05eee396e591107d3cdaa9177126279ce1226b568de",
    "08_outer/outer.csv": "d103f82787b0239797d00431ec200e6ca71e60ccad683ae92484a85f581a62fd",
    "09_cantor/report.json": "8edec55875febd2bf043ab189cdaff29139933921e0c7dfecc8d359f4e14b0c5",
    "09_cantor/cantor.csv": "34e5aca4a937cf92a1474f10d3a386cd4850902be4216c4d27f0c05d7ef3b141",
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
