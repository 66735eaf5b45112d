"""CLI byte identity: stdout digest and exit status for a fixed set of invocations.

The digests were taken from the code before the duplicated route and
verifier helpers were merged (the J:5,2 rows from the code before the
recursions became quotients of figurate series, the theta rows from the code
before the series' pair count was found in closed form); any change to a
printed byte fails here.  `divisors --check --format json` printed CSV until
the two cross-checks shared one emitter, so its digest is of the first JSON
it printed, whose rows tests/test_cli.py checks against the CSV rows.  The
`partitions --format json` rows, which print each route's provenance, were
taken from the code before the routes returned plain series.  Two rows gained
the recursion route when one triple-product rule replaced the hand-derived
quotients: the J:4,1 at-most-2 signed `--method recursion` row is pinned to
the digest the code before that change printed for the same line with
`--method gf` (a CSV table carries no provenance), and the signed Jbar:5,2
`--check` row to its first output with three columns, every row of which
says `yes`.

Every invocation the benchmark runs, the order-400 battery among them, is
checked against its digest in perfbench/golden.json rather than a copy here,
so tier-1 and the benchmark check the same bytes; perfbench/make_golden.py
is that file's only writer.
"""

import contextlib
import hashlib
import io
import json
from pathlib import Path

import pytest

from qpl.cli import main

_SETS = (
    ("--set", "Jbar:3,1"),
    ("--set", "J:4,1", "--mode", "distinct", "--gamma", "-1"),
    ("--set", "Jbar:3,1", "--mode", "at-most", "--d", "2"),
    ("--set", "J:5,2"),
    ("--set", "J:5,2", "--gamma", "-1"),
)
_DIVISORS = ("divisors", "--k", "5", "--ell", "2", "--n", "40")
_IDENTITIES = (
    ("triple_product",),
    ("specialized", "--k", "7", "--ell", "2", "--sign", "-1"),
    ("berger", "--k", "5"),
    ("hermite", "--s", "3"),
    ("boundary_half", "--k", "4"),
    ("sylvester", "--k", "5", "--ell", "2"),
    ("partition_shift", "--k", "4", "--ell", "1", "--gamma", "-1"),
    ("bounded_mult_shift", "--k", "4", "--ell", "1", "--d", "2"),
    ("apostol", "--k", "4", "--ell", "1"),
    ("kim", "--k", "5", "--ell", "2"),
)

INVOCATIONS = (
    [
        ("partitions", *s, "--n", "30", *tail)
        for s in _SETS
        for tail in (
            ("--method", "oracle"),
            ("--method", "gf"),
            ("--method", "recursion"),
            ("--check",),
        )
    ]
    + [
        ("partitions", "--set", "Jbar:3,1", "--n", "30", "--method", m, "--format", "json")
        for m in ("oracle", "gf", "recursion")
    ]
    + [
        (
            "partitions", "--set", "J:4,1", "--mode", "at-most", "--d", "2", "--gamma", "-1",
            "--n", "30", "--method", "recursion",
        ),
        ("partitions", "--set", "Jbar:5,2", "--gamma", "-1", "--n", "30", "--check"),
    ]
    + [
        (*_DIVISORS, *tail)
        for tail in (
            ("--method", "scan"),
            ("--method", "recursion"),
            ("--method", "kim"),
            ("--method", "scan", "--format", "json"),
            ("--method", "recursion", "--format", "json"),
            ("--method", "kim", "--format", "json"),
            ("--check",),
        )
    ]
    + [("divisors", "--k", "4", "--ell", "2", "--n", "20", "--method", "kim")]
    + [("divisors", "--k", "5", "--ell", "2", "--n", "4", "--check", "--format", "json")]
    + [("verify", "--identity", *ident, "--order", "60") for ident in _IDENTITIES]
    + [("verify", "--all", "--grid", "k=3..5", "--order", "60")]
    + [("theta", "--variant", v, "--q", "0.3,0.1", "--z", "0.7,-0.4") for v in "abcd"]
    + [
        ("theta", "--k", k, "--ell", ell, "--variant", "c", "--q", "0.45,-0.2", "--z", "1.3,0.5")
        for k, ell in (("1", "0"), ("2", "1"), ("3", "1"), ("3", "2"))
    ]
    + [
        ("theta", "--q", "0.3,0.1", "--z=-1,0"),
        ("theta", "--q", "0,0", "--z", "2,0.5"),
        ("theta", "--q", "0.54,0.72", "--z", "6,8", "--tol", "1e-10"),
        ("theta", "--variant", "d", "--q", "0.54,0.72", "--z", "0.06,-0.08"),
    ]
)

# " ".join(argv) -> (exit status, sha256 of stdout)
DIGESTS = {
    "partitions --set Jbar:3,1 --n 30 --method oracle": (0, "5c5df683b6bcb11d14ee182e31b455d2e60c911a7c9403646d92f19c46a8fc8e"),
    "partitions --set Jbar:3,1 --n 30 --method gf": (0, "5c5df683b6bcb11d14ee182e31b455d2e60c911a7c9403646d92f19c46a8fc8e"),
    "partitions --set Jbar:3,1 --n 30 --method recursion": (0, "5c5df683b6bcb11d14ee182e31b455d2e60c911a7c9403646d92f19c46a8fc8e"),
    "partitions --set Jbar:3,1 --n 30 --check": (0, "6900c826d780101fc3605a1e931d351c8df2516980eeee7d6c13803b6924ce4c"),
    "partitions --set J:4,1 --mode distinct --gamma -1 --n 30 --method oracle": (0, "05ce9adea9b9b6caf9046c0cf392c6a0c5f502cc7b72995eab58e7e47c3de51b"),
    "partitions --set J:4,1 --mode distinct --gamma -1 --n 30 --method gf": (0, "05ce9adea9b9b6caf9046c0cf392c6a0c5f502cc7b72995eab58e7e47c3de51b"),
    "partitions --set J:4,1 --mode distinct --gamma -1 --n 30 --method recursion": (0, "05ce9adea9b9b6caf9046c0cf392c6a0c5f502cc7b72995eab58e7e47c3de51b"),
    "partitions --set J:4,1 --mode distinct --gamma -1 --n 30 --check": (0, "8df0710c59252c6e7d62179de7edd25eb34d14d14bfd2aa371dd615294a5556b"),
    "partitions --set Jbar:3,1 --mode at-most --d 2 --n 30 --method oracle": (0, "48231d16487fca7531265ff3e161fd0f869bd04963facbda2ebc4259eba280ac"),
    "partitions --set Jbar:3,1 --mode at-most --d 2 --n 30 --method gf": (0, "48231d16487fca7531265ff3e161fd0f869bd04963facbda2ebc4259eba280ac"),
    "partitions --set Jbar:3,1 --mode at-most --d 2 --n 30 --method recursion": (0, "48231d16487fca7531265ff3e161fd0f869bd04963facbda2ebc4259eba280ac"),
    "partitions --set Jbar:3,1 --mode at-most --d 2 --n 30 --check": (0, "2e19fed2c20f3f0a0d4acbb7eec5b184af2b71b754992a67da6fc5f7ba5c4c13"),
    "partitions --set J:5,2 --n 30 --method oracle": (0, "42fa594fcb70138f744672b50e06972929da444d58d12a3ab3d28adfa82c605c"),
    "partitions --set J:5,2 --n 30 --method gf": (0, "42fa594fcb70138f744672b50e06972929da444d58d12a3ab3d28adfa82c605c"),
    "partitions --set J:5,2 --n 30 --method recursion": (0, "42fa594fcb70138f744672b50e06972929da444d58d12a3ab3d28adfa82c605c"),
    "partitions --set J:5,2 --n 30 --check": (0, "a43a4695caf70a9c9004789a06cc28007a5c915711157595bcabdde5c5248200"),
    "partitions --set J:5,2 --gamma -1 --n 30 --method oracle": (0, "e45e7567f0046c7c3255937d859bdedc1d98d9253a24c464b5f442aa2a7e6851"),
    "partitions --set J:5,2 --gamma -1 --n 30 --method gf": (0, "e45e7567f0046c7c3255937d859bdedc1d98d9253a24c464b5f442aa2a7e6851"),
    "partitions --set J:5,2 --gamma -1 --n 30 --method recursion": (0, "e45e7567f0046c7c3255937d859bdedc1d98d9253a24c464b5f442aa2a7e6851"),
    "partitions --set J:5,2 --gamma -1 --n 30 --check": (0, "4d222a0e4e0bfd45da6f1787d89731c803cd38f71d9bf5c5bed7d71e6c4a51e8"),
    "partitions --set Jbar:3,1 --n 30 --method oracle --format json": (0, "9d9e64e11a2f29bb9de8b82d26e7282f7174daa626322584b7cf6ec724217a6e"),
    "partitions --set Jbar:3,1 --n 30 --method gf --format json": (0, "a6bae8d0e9c540b704427090e0dc19b479a8ea42e0ed15b42a163b5796873cb9"),
    "partitions --set Jbar:3,1 --n 30 --method recursion --format json": (0, "7de1e865b2e1911a6f7d440a2862e1922c9e8e1a34fad177a1c06ee09c4daa01"),
    "partitions --set J:4,1 --mode at-most --d 2 --gamma -1 --n 30 --method recursion": (0, "23daad1837baa8bf4bd173bc1bb05cbcf54b5fd976c7e40c7d368e2f1d8664ad"),
    "partitions --set Jbar:5,2 --gamma -1 --n 30 --check": (0, "f956576d3e38fd673bfff7db64c391131866082c5f854cd9f7dc60fe11e4a82c"),
    "divisors --k 5 --ell 2 --n 40 --method scan": (0, "dada021cf782be2a11fab49f539ec494578a46f9a18b5176185ebb7f507f27e0"),
    "divisors --k 5 --ell 2 --n 40 --method recursion": (0, "dada021cf782be2a11fab49f539ec494578a46f9a18b5176185ebb7f507f27e0"),
    "divisors --k 5 --ell 2 --n 40 --method kim": (0, "dada021cf782be2a11fab49f539ec494578a46f9a18b5176185ebb7f507f27e0"),
    "divisors --k 5 --ell 2 --n 40 --method scan --format json": (0, "bb7fa5e8f37423ad288031613265b094c6c56a518258989111dd9790e11862d5"),
    "divisors --k 5 --ell 2 --n 40 --method recursion --format json": (0, "bb7fa5e8f37423ad288031613265b094c6c56a518258989111dd9790e11862d5"),
    "divisors --k 5 --ell 2 --n 40 --method kim --format json": (0, "bb7fa5e8f37423ad288031613265b094c6c56a518258989111dd9790e11862d5"),
    "divisors --k 5 --ell 2 --n 40 --check": (0, "fe7ef0ac6ad2a5e50113c79aa85aaf27c4ff6b3643c54d1d4106222ee22461fa"),
    "divisors --k 4 --ell 2 --n 20 --method kim": (2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "divisors --k 5 --ell 2 --n 4 --check --format json": (0, "83107b39867750167471e12a6c2cd25b14cb51c3b3f9e206f18ca4b575f69b40"),
    "verify --identity triple_product --order 60": (0, "b68287d2fc9e2d35330bf040162a40cd682b64da9c40694747e1582eb6f5be69"),
    "verify --identity specialized --k 7 --ell 2 --sign -1 --order 60": (0, "1e21c3165d7c17e5409f6e684ed1f2a75bc01bb89ad75a99601b39c9d2d4171c"),
    "verify --identity berger --k 5 --order 60": (0, "a12248806862cf7bddf0f9dc71bad499f5d4f6e546047122afd54df43acc3f18"),
    "verify --identity hermite --s 3 --order 60": (0, "e8b7ef811f67f9c259b18c78b69fc5e3690d5ec7d45d080c43df82af00857cb4"),
    "verify --identity boundary_half --k 4 --order 60": (0, "9448086313ab97d8aef7ba2c5035538040d0f775ca623eee0e0de7fd68f0350c"),
    "verify --identity sylvester --k 5 --ell 2 --order 60": (0, "f905154c46f19418614a5d8d57cfc0bc63eec4580cbe0c8e7c931c020e35ffe5"),
    "verify --identity partition_shift --k 4 --ell 1 --gamma -1 --order 60": (0, "bddbd8ed1c6e22051e901ab9b82d5c376b0a5e4a57adfb62c6f910481659351c"),
    "verify --identity bounded_mult_shift --k 4 --ell 1 --d 2 --order 60": (0, "26147dc8fe98747f8520bdf252b0f911cb1cce02a02c0da23398fd632954e353"),
    "verify --identity apostol --k 4 --ell 1 --order 60": (0, "e57305a0f376a08192a735c4214de39e036f27a6c7a51b3ba86c5adc56e8a32b"),
    "verify --identity kim --k 5 --ell 2 --order 60": (0, "a15d69ab5b72aa5652f76904a1b26149d7331eb859def8b567fd3b1f652374f8"),
    "verify --all --grid k=3..5 --order 60": (0, "0d018e28fe5df92fb926cb2e3384f1ea170183fef1deb7046ab81955566aed0b"),
    "theta --variant a --q 0.3,0.1 --z 0.7,-0.4": (0, "2d3be4a0f4c7569bbd664e036e425b625e94c60b664399dd235a69651d4a57e0"),
    "theta --variant b --q 0.3,0.1 --z 0.7,-0.4": (0, "a4c00f5518c086a4e7ce518fa812d67e27d353dad1e5294d5d74b68ca16b36cd"),
    "theta --variant c --q 0.3,0.1 --z 0.7,-0.4": (0, "ee10447711161c97edfbf76cfe7a92de3aaab6b76a1b2ad98f049c670fb575a1"),
    "theta --variant d --q 0.3,0.1 --z 0.7,-0.4": (0, "52d1417772ff8e1486a944a90bae45f243aa46a1e7016308d7b30526387921d5"),
    "theta --k 1 --ell 0 --variant c --q 0.45,-0.2 --z 1.3,0.5": (0, "3a5e9ab64982acd310fbfde15e0d6cd0487b4db450ba5b3e269baf1ada0dd614"),
    "theta --k 2 --ell 1 --variant c --q 0.45,-0.2 --z 1.3,0.5": (0, "d62ee47f5f8ff35a62c78aef91d59359cff1d9be1f5d46f50e4af1902b679827"),
    "theta --k 3 --ell 1 --variant c --q 0.45,-0.2 --z 1.3,0.5": (0, "a8353ea13f51a5f26cc172af4f97f1cc32be852672c70e300fad399d5cc3e02a"),
    "theta --k 3 --ell 2 --variant c --q 0.45,-0.2 --z 1.3,0.5": (0, "81ac7f19dadc906cded45dbc495719ea384e785dc6a9a1a39f26b833ef4d608d"),
    "theta --q 0.3,0.1 --z=-1,0": (0, "79eb321cc9e36d79c92fe54082a99e3468f82c64d79980e927fb1576874f7de5"),
    "theta --q 0,0 --z 2,0.5": (0, "edcbcbc8327719ead5a55a718cd07df09a87a91a116d9ed0659aec989ef35fc5"),
    "theta --q 0.54,0.72 --z 6,8 --tol 1e-10": (0, "df48468b92692341e0c3eac202cee522d23fa0b5b6b20b7e6ca14e5efd1123a4"),
    "theta --variant d --q 0.54,0.72 --z 0.06,-0.08": (0, "4c3da8e032b6cf33a9a898706191052dcd2424152038c8cb59b495edce0c1469"),
}


def run_digest(argv) -> tuple[int, str]:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main(list(argv))
    return code, hashlib.sha256(buf.getvalue().encode("utf-8")).hexdigest()


@pytest.mark.parametrize("argv", INVOCATIONS, ids=" ".join)
def test_stdout_bytes_unchanged(argv, monkeypatch):
    monkeypatch.delenv("QPL_ORACLE_BOUND", raising=False)
    assert run_digest(argv) == DIGESTS[" ".join(argv)]


GOLDEN = Path(__file__).resolve().parents[1] / "perfbench" / "golden.json"


def golden_digests() -> dict[str, str]:
    """perfbench/golden.json's digests, keyed "[NAME=VALUE ...] qpl argv"."""
    return json.loads(GOLDEN.read_text(encoding="utf-8"))["digests"]


@pytest.mark.parametrize("key", sorted(golden_digests()))
def test_benchmark_golden_digest(key, monkeypatch):
    # every invocation the benchmark runs, in-process: its environment
    # prefix set, the rest of its key the argv after "qpl"
    monkeypatch.delenv("QPL_ORACLE_BOUND", raising=False)
    words = key.split()
    while "=" in words[0]:
        name, value = words.pop(0).split("=", 1)
        monkeypatch.setenv(name, value)
    assert words.pop(0) == "qpl"
    assert run_digest(words) == (0, golden_digests()[key])


def test_battery_jobs2_bytes_match_benchmark_golden():
    # --jobs is accepted and changes nothing: the golden bytes of the order-200
    # battery with --jobs 2 are those of the same run without it, and
    # test_benchmark_golden_digest runs both
    digests = golden_digests()
    serial = "qpl verify --all --grid k=3..8 --order 200"
    assert digests[serial + " --jobs 2"] == digests[serial]
