"""Every bundled scenario, end to end, against pinned log digests.

Runs are deterministic: the same scenario and seed give byte-identical
`events.jsonl`, `audit.jsonl` and `gas.csv` on a repeat run and on both
crypto backends. The digests below pin those bytes, so a refactor that
keeps them keeps the protocol's observable behaviour exactly. A change
that alters a log on purpose must update the digest here and say why.
"""

import hashlib
import json
import subprocess
import sys
from pathlib import Path

import pytest

from sealedbid.events import canonical
from sealedbid.harness import ScenarioRunner
from sealedbid.scenario import load_scenario

ROOT = Path(__file__).resolve().parent.parent
SCENARIOS = ROOT / "scenarios"
LOGS = ("events.jsonl", "audit.jsonl", "gas.csv")

# sha256 of (events.jsonl, audit.jsonl, gas.csv) per scenario
DIGESTS = {
    "colluding_quorum": (
        "034702bc64303ca977d1e17fdcbaba3a2a7d1650fef18eebfb357212f2b67336",
        "2a7ee069476a6f5da36fabc489e8aa8770a03cbc91a5815155e8544eece1e3d0",
        "45925c76c11820e0ca15b804f98ba191de0b4a574fe68bf54acd8bf26de60b26",
    ),
    "enclave_compromise": (
        "5ee411c2f5bae862dceacb223791e325d58fd5c5801325e7ddfa591573d303f9",
        "41fd697bc48a3db94a4072274cfe22e879756ad0a3f429c5dfef015788cd6592",
        "fda9962705601c7c8850cdd83ffef9678d7b34754f1db58f6877925c765d8a08",
    ),
    "honest_10_bidders": (
        "544c295c98ad7f8e0396aa5e81713f55fa0cb4f8559c043106231aecce36c9ed",
        "610ba48bc6731d0cc33e1080ac341f4fda46a648c4d902bac04bc7e478068abe",
        "1140c728cc40423b7cc8d3ace1db9f64b4554547fc522e185b7a9796130755fb",
    ),
    "honest_1_bidder": (
        "e66b67275b1285ab464440970f6faca437765aac91cae130d1c1c7da25617294",
        "187858c35f0ce9b9d138769d4d95fee2f079e6c8cf0ed83b5965417e8489bb77",
        "0fdec8f9d79f81497ff9bfbc45a732d8531600dee68774ee58cb648b346829a2",
    ),
    "honest_4_bidders": (
        "bbc2c6c4b9f579ede2d1687dfa45e4e180d98ac002df296f7f4dc6950b72dec0",
        "ca0fc07c06daa17353a0ce77a6119f16c8551cd318cd084a25932fdbb4edc2e7",
        "f201abbe64d814902e6c82d36877cee63dd842dcd9470a7793774b6d769d23a9",
    ),
    "misreporting_minority": (
        "c28e140d8e43cd66e69dbe1a7739a7115a2facd81885556bdef28d2e96d5bcaa",
        "dd42e48f8507b7f13b8202b44710ca9d71dbc0c186dce600ad36782f8c5a2f94",
        "73d8a2cb4ac71c676ba83e443c84f78a48b58e99d5dbeb3ca467ebf2701dd6d4",
    ),
    "no_asset": (
        "b8704393918dbf2d927f2e46e63bd8323d493d1ccc1287b0702135eedac5931e",
        "f94b1c016d1d5030fc4d4ebec9eeb3eb398fdb1d69c8146062246799959ee268",
        "3c3e3d155caef5ed9828d1d49208f58e6bb387ed1510d9028da3d8fdbfb7da0c",
    ),
    "no_bids": (
        "20f6ac7021b19b56ebe38913c0410bc987a7cea49fc60c3b3b8db85ad69eb6fc",
        "7dd4b62414c2a0239519108323bc3604528d34d24786a89df537fbb3a1d06dfb",
        "22a56ab71a5110f828355f47fcd03f91e52a01034cf0e6bbfe713c22eba75f51",
    ),
    "proposer_4_bidders": (
        "564b04dbba86cd96f258777722610c5136ea1f9d774b81a173971ff612876043",
        "5d864b3f0bbee73d0c4097e4083a12ef375a5d16e25795c1b85df567b175f516",
        "eae4032852e908e1d21259d9e2f84f7748c11f9dfe66f34b6a09d8d41c5fd192",
    ),
    "proposer_no_proposals": (
        "4ad42da8af8183f842ea8f125f959ace4502131ec00a7e7a9030568fd29623ee",
        "1533b6c5732035f12ca376fe7971ea037f931a91424ce90a5e91292cbb140068",
        "144acafa2245a74453b5971f272ad214950963c9d82fd35736f92ac9556956ec",
    ),
    "reorg_under_kappa": (
        "20555cd00e2b8e2aef10cf87c7a83cec36968f32ab794d5d035af1a7c66a105d",
        "41b2a401115c48dd60f15638f32abe21f307ddbde3a70cf363d59594e64a3f87",
        "73d8a2cb4ac71c676ba83e443c84f78a48b58e99d5dbeb3ca467ebf2701dd6d4",
    ),
    "sealed_tamper": (
        "4d00e48880cd5b08c73487993de213901a14434a74ab742a49a81841aa718b57",
        "4caef5ee645ffed80643efc70f673906c2ab102e9bb5b5d340183aabef7be63f",
        "b4484fa550e7398c36032a1c79f498925a1f20e748af0804456cd270962aa1e1",
    ),
    "tie_break": (
        "5ee90749e4f340750e3e728929b900ad18b52786ad0147aefa960be35e5a8cf7",
        "187e74455f0c632a703e86b65b12798c195f9c58212b944c189a182c8a68ec12",
        "14684f2653d71f298df22ec1bc3d822b8d539e9e489a5968b1e227834a12681f",
    ),
}


def test_every_scenario_is_pinned():
    assert sorted(p.stem for p in SCENARIOS.glob("*.yaml")) == sorted(DIGESTS)


@pytest.mark.parametrize("name", sorted(DIGESTS))
def test_scenario_passes_with_pinned_logs(name, tmp_path):
    runner = ScenarioRunner(load_scenario(SCENARIOS / ("%s.yaml" % name)), out_dir=tmp_path)
    report = runner.run()
    failed = [c.to_dict() for c in report.checks if not c.passed]
    assert report.passed, failed
    digests = tuple(hashlib.sha256((tmp_path / log).read_bytes()).hexdigest()
                    for log in LOGS)
    assert digests == DIGESTS[name]
    # both logs keep only lines; their records parse back to them
    assert [canonical(record) for record in runner.audit.records] == runner.audit.lines
    assert [canonical(record) for record in runner.events.records] == runner.events.lines


# Runs in a fresh interpreter: registers the kernel under its package name
# before `sealedbid` is imported, as `perfbench/compiled.py` does, then
# prints the backend, and each scenario's verdict and log digests, as JSON.
COMPILED_RUN = """
import hashlib, importlib.util, json, sys, tempfile
from pathlib import Path

kernel, src, scenarios, logs = sys.argv[1], sys.argv[2], Path(sys.argv[3]), sys.argv[4:]
spec = importlib.util.spec_from_file_location("sealedbid._core._speedups", kernel)
module = importlib.util.module_from_spec(spec)
spec.loader.exec_module(module)
sys.modules[spec.name] = module
sys.path.insert(0, src)
from sealedbid import crypto
from sealedbid.harness import run_scenario

results = {}
for path in sorted(scenarios.glob("*.yaml")):
    with tempfile.TemporaryDirectory() as out:
        report = run_scenario(path, out_dir=out)
        results[path.stem] = [report.passed] + [
            hashlib.sha256((Path(out) / log).read_bytes()).hexdigest() for log in logs]
print(json.dumps({"backend": crypto.IMPLEMENTATION,
                  "selected": crypto.backend is module, "results": results}))
"""


def test_compiled_backend_gives_the_pinned_logs(compiled_kernel_path):
    proc = subprocess.run(
        [sys.executable, "-c", COMPILED_RUN, str(compiled_kernel_path),
         str(ROOT / "src"), str(SCENARIOS), *LOGS],
        capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout)
    assert out["backend"] == "compiled" and out["selected"]
    assert sorted(out["results"]) == sorted(DIGESTS)
    for name, (passed, *digests) in out["results"].items():
        assert passed, name
        assert tuple(digests) == DIGESTS[name], name


# Runs in a fresh interpreter, since the test session has imported yaml:
# imports the package, then loads a scenario that is not valid YAML.
YAML_ON_DEMAND = """
import sys
sys.path.insert(0, sys.argv[1])
import sealedbid
from sealedbid.errors import ConfigError
imported = "yaml" in sys.modules
try:
    sealedbid.load_scenario(sys.argv[2])
except ConfigError as exc:
    print(imported, "yaml" in sys.modules, str(exc).startswith("cannot parse scenario"))
"""


def test_only_load_scenario_imports_yaml(tmp_path):
    path = tmp_path / "broken.yaml"
    path.write_text("name: [unclosed\n")
    proc = subprocess.run(
        [sys.executable, "-c", YAML_ON_DEMAND, str(ROOT / "src"), str(path)],
        capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["False", "True", "True"]
