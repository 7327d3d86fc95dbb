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
        "e0a491564a752e577a813909e94ee79462de3ade2fae20b1958293f185ae4067",
        "45f0e40256c0a1fb02663c983767eccaffcc9436ca93e3b6b91d78adcc06f18f",
        "45925c76c11820e0ca15b804f98ba191de0b4a574fe68bf54acd8bf26de60b26",
    ),
    "enclave_compromise": (
        "390dfc9be570fe54cefe454d3e8da42a054952d76f2ee6aa24b7bc029ef02cc9",
        "be106707c39d4a46fb631383ff139ac74d688578733bc0c654e452268e046ecd",
        "fda9962705601c7c8850cdd83ffef9678d7b34754f1db58f6877925c765d8a08",
    ),
    "honest_10_bidders": (
        "1e1bb22c2ff4dbfe17c25b2e24436bee2454f83129356fdcccbc1b48f5590d14",
        "4e54db686cb1e2bdcea1c35c3ac4d46c8290e305c42d57148d4dced5697375d6",
        "1140c728cc40423b7cc8d3ace1db9f64b4554547fc522e185b7a9796130755fb",
    ),
    "honest_1_bidder": (
        "b718f33106ee0c012e6baf76b5852be9e3eb701bed8bed9fdd908c32553f6dfb",
        "a4c349256f8aa15268829093a1ae47ca077bc6bf13bbe9f47f70979c6b2fa8fd",
        "0fdec8f9d79f81497ff9bfbc45a732d8531600dee68774ee58cb648b346829a2",
    ),
    "honest_4_bidders": (
        "62adebaa809ed90845c0af888959c02a1d3f37f973967c212909214efff55baa",
        "14eda6d7e109518e12701426ffab7e9af2c42a09d0fc84379ed9e919a97a44e4",
        "f201abbe64d814902e6c82d36877cee63dd842dcd9470a7793774b6d769d23a9",
    ),
    "misreporting_minority": (
        "84a52610e7c0e62726fa03eb2131e8ac2b79475fa6a46d8f4e02c09551da133d",
        "298b0889e145b2623da693a5e8e637e0f0d0acfa052f20ec703daf83d4f36cb5",
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
        "547fb9e9ad0265ff51e7b4b6238350976b3f8b2076cb6eec957ffa5985cef390",
        "26ce3a0ff8e3283d39c476c9dc114a8b648186c4f2ddda70249e47eb535f0a09",
        "eae4032852e908e1d21259d9e2f84f7748c11f9dfe66f34b6a09d8d41c5fd192",
    ),
    "proposer_no_proposals": (
        "f486e4a8222d8873a66cc115b35aaa9ccbf62d0bb10b4a77a240a6ca6fccbe28",
        "29270c10f0bf85c22a56d43758d52ba99a22ad4d2fa7f34626601d13a239950d",
        "144acafa2245a74453b5971f272ad214950963c9d82fd35736f92ac9556956ec",
    ),
    "reorg_under_kappa": (
        "7fda22d36879e5202f7a58ccedc5c2af4fb19b54f9cfcdf5a1915673a4b2c9a8",
        "4a071d998b6998c6358820e181fe97d27da86f65597ee18113848a688a7ad5d0",
        "73d8a2cb4ac71c676ba83e443c84f78a48b58e99d5dbeb3ca467ebf2701dd6d4",
    ),
    "sealed_tamper": (
        "4d00e48880cd5b08c73487993de213901a14434a74ab742a49a81841aa718b57",
        "4caef5ee645ffed80643efc70f673906c2ab102e9bb5b5d340183aabef7be63f",
        "b4484fa550e7398c36032a1c79f498925a1f20e748af0804456cd270962aa1e1",
    ),
    "tie_break": (
        "bb50006b8d9cb2114dffef0f733114e08f4ac60aec682bba635f55c57f071b04",
        "567e5a1e90fb565c43cbca72c124d6c803d710f6b68175b0e355f0d1939b35cc",
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
