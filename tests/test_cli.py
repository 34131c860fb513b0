import errno
import functools
import hashlib
import io
import json
import os
import subprocess
import sys
import time
import tracemalloc

import pytest

import affineplane
from affineplane import build_prime_plane, cli, collineation, endo, output, transgroup
from affineplane.cli import main
from conftest import (
    ag24_document,
    ag29_document,
    corrupted_documents,
    dual_hall9_cut,
    hall9_document,
)

BROKEN_DOC = {"points": 4, "lines": [[0, 1], [2, 3], [0, 2], [1, 3], [0, 3]]}
RING = ["--trace-preserving", "--check-ring"]
GROUP_CHECKS = ["--check-abelian", "--check-normal", "--check-directions"]


def plane_document(name: str) -> dict:
    """The document of AG(2,p) for a prime name, else of a named order-4 or order-9 plane."""
    documents = {"ag24": ag24_document, "ag29": ag29_document, "hall9": hall9_document}
    if name in documents:
        return documents[name]()
    return build_prime_plane(int(name)).to_document()


def count_calls(monkeypatch, name, module=affineplane):
    """Record the positional arguments of every call to <module>.<name>.

    getattr on the package loads the module that defines the name.  Every
    loaded affineplane module attribute that holds the same function,
    under any name, is patched, so an import under another name, from
    another module or inside a command's body is counted too."""
    real = getattr(module, name)
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    for module_name, loaded in list(sys.modules.items()):
        if module_name.startswith("affineplane"):
            for attr, value in list(vars(loaded).items()):
                if value is real:
                    monkeypatch.setattr(loaded, attr, counted)
    return calls


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def assert_usage_error(capsys, *argv):
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    captured = capsys.readouterr()
    assert exc.value.code == 2
    assert captured.out == ""
    assert captured.err.startswith("usage:")


@pytest.fixture
def p3_file(tmp_path, capsys):
    path = tmp_path / "p3.json"
    code, _, _ = run(capsys, "build", "--order", "3", "--out", str(path))
    assert code == 0
    return str(path)


@pytest.fixture
def p2_file(tmp_path, capsys):
    path = tmp_path / "p2.json"
    assert run(capsys, "build", "--order", "2", "--out", str(path))[0] == 0
    return str(path)


class TestBuild:
    def test_document_shape(self, p3_file):
        with open(p3_file) as fh:
            doc = json.load(fh)
        assert doc["points"] == 9
        assert len(doc["lines"]) == 12

    def test_composite_order_exits_2(self, capsys):
        code, _, err = run(capsys, "build", "--order", "4")
        assert code == 2
        assert "prime" in err

    def test_order_above_bound_exits_2(self, capsys):
        assert run(capsys, "build", "--order", "17")[0] == 2

    def test_document_is_pinned_on_stdout_and_in_out(self, tmp_path, capsys):
        """sha256 of the AG(2,5) document, written by the report writer."""
        digest = "1c93faaef05c786f5995f9485ecbd996a319620d10ee86e9dd4cd03533390e6b"
        code, out, err = run(capsys, "build", "--order", "5")
        assert (code, err) == (0, "AG(2,5): 25 points, 30 lines\n")
        assert hashlib.sha256(out.encode()).hexdigest() == digest
        path = tmp_path / "ag25.json"
        assert run(capsys, "build", "--order", "5", "--out", str(path)) == (0, "", err)
        assert hashlib.sha256(path.read_bytes()).hexdigest() == digest

    @pytest.mark.parametrize("p", [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31])
    def test_document_is_the_built_plane_and_passes_check(self, tmp_path, capsys, p):
        """build writes the lines of prime_plane_document, with no incidence
        layer: the bytes of build_prime_plane(p).to_document(), a plane that
        check passes."""
        path = tmp_path / "plane.json"
        assert run(capsys, "build", "--order", str(p), "--max-order", "31", "--out", str(path)) == (
            0, "", f"AG(2,{p}): {p * p} points, {p * p + p} lines\n")
        document = build_prime_plane(p).to_document()
        assert path.read_text() == json.dumps(document, indent=2, sort_keys=True) + "\n"
        code, out, _ = run(capsys, "check", str(path))
        assert (code, json.loads(out)["status"]) == (0, "pass")

    def test_huge_order_exits_2_before_the_primality_test(self, capsys):
        # 2^61 - 1 is prime: trial division up to its square root takes minutes
        start = time.perf_counter()
        code, _, err = run(capsys, "build", "--order", str(2**61 - 1))
        assert time.perf_counter() - start < 1
        assert code == 2
        assert err == f"build failed: order {2**61 - 1} exceeds the bound 13\n"


class TestCheck:
    def test_built_plane_passes(self, p2_file, capsys):
        code, out, _ = run(capsys, "check", p2_file)
        assert code == 0
        report = json.loads(out)
        assert report["status"] == "pass"
        assert report["plane_summary"] == {
            "points": 4,
            "lines": 6,
            "parallel_classes": 3,
        }

    def test_one_line_document_exits_1_in_pair_steps(self, tmp_path, capsys):
        # every point on one line: unique join settled per point and no
        # triangle from the full line, with no pair step (on a 2-core Xeon,
        # Python 3.11, the 10.6 M-triple scan of 400 points took 0.7 s, and
        # the two pair scans of 2,000 points 0.7-1.0 s)
        for n, bound in [(400, 0.25), (2000, 0.1)]:
            path = tmp_path / f"one_line_{n}.json"
            path.write_text(json.dumps({"points": n, "lines": [list(range(n))]}))
            start = time.perf_counter()
            code, out, _ = run(capsys, "check", str(path))
            assert time.perf_counter() - start < bound, n
            assert code == 1
            assert json.loads(out)["results"]["axioms"] == {
                "unique_join": {"passed": True},
                "unique_parallel": {"passed": True},
                "triangle": {"passed": False, "witness": ["no non-collinear point triple"]},
            }

    def test_missing_line_exits_1_with_witness(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text(json.dumps(BROKEN_DOC))
        code, out, _ = run(capsys, "check", str(path))
        assert code == 1
        report = json.loads(out)
        assert report["status"] == "fail"
        assert report["results"]["axioms"]["unique_join"]["witness"][:2] == [1, 2]

    @pytest.mark.parametrize(
        "plane,corruption,digest",
        [
            ("3", "line_dropped", "7ab964f885724b791362b56608746b8c77583564c4848adfd8d99960c3c11e31"),
            ("3", "lines_merged", "89abfb73dbe6632fc6466bb1aade43c02cc0fce6d270b357ab7ca61de98725e4"),
            ("3", "point_moved", "0daa4b09f7052b2c6d5e1c4d8eb95612bbf58c291c8295320aa47019bd6e15ba"),
            ("3", "isolated_point", "6000d6b6fef669a9c7243337fb9b88efa50e935299e875d1d128d551f38f5cfc"),
            ("ag24", "line_dropped", "de7416c08581bf5a0ed361f63e9ad1736cddfc1985b2566fa7117fc06693c90d"),
            ("ag24", "lines_merged", "bf42a12a0f633be3d7bce2287f30fa1dac92f156760bb358b7de8af4cfab12a4"),
            ("ag24", "point_moved", "77d9dc22a2f3be71f4dd3a0b2318a0a0fd4c5b6e16559a4235ca1a250e7fdde5"),
            ("ag24", "isolated_point", "4a63258a6bb4961edcb4d787755bb58a0e84f130e979993b907fb902a23d1c4a"),
            ("hall9", "line_dropped", "57aefd588b817a91d0e785d5e739067783480f49a703f0c55dce64e3d8f6f7f5"),
            ("hall9", "lines_merged", "3918c25e54322106f55b7dcd1bdd4c4fa1dc1787b7f53280b231abc89d926fd2"),
            ("hall9", "point_moved", "7b3887a097400b3ee4d06dcbb148224b1bd056a3afd423eb1bbb89cd0bb3db72"),
            ("hall9", "isolated_point", "4ad282b79490f8fe700c87bd8261dc3fb95bb4ce216a621b9d3c63198398d623"),
        ],
    )
    def test_corrupted_report_is_pinned(self, tmp_path, capsys, plane, corruption, digest):
        """sha256 of the stdout of the per-pair and per-line axiom scans, with their witnesses."""
        path = tmp_path / "corrupted.json"
        path.write_text(json.dumps(corrupted_documents(plane_document(plane))[corruption]))
        code, out, _ = run(capsys, "check", str(path))
        assert code == 1
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    @pytest.mark.parametrize("command", ["check", "verify-all"])
    @pytest.mark.parametrize("warnings", [None, "error"], ids=["default", "error"])
    def test_unknown_field(self, tmp_path, command, warnings):
        """An unknown top-level field warns and the plane loads; under
        PYTHONWARNINGS=error the warning is an input error, exit 2, where it
        once escaped main as a traceback with the exit code 1 of a failed check."""
        path = tmp_path / "extra.json"
        path.write_text(json.dumps({**build_prime_plane(3).to_document(), "extra": 1}))
        src = os.path.dirname(os.path.dirname(affineplane.__file__))
        env = {k: v for k, v in os.environ.items() if k not in ("PYTHONWARNINGS", "PYTHONDEVMODE")}
        env.update(PYTHONPATH=src, **({"PYTHONWARNINGS": warnings} if warnings else {}))
        result = subprocess.run([sys.executable, "-m", "affineplane", command, str(path)],
                                env=env, capture_output=True, text=True)
        message = "ignoring unknown field 'extra' in incidence document"
        if warnings is None:
            assert result.returncode == 0, result.stderr
            assert f"UserWarning: {message}" in result.stderr
        else:
            assert (result.returncode, result.stdout, result.stderr) == (
                2, "", f"input error: {message}\n")

    def test_truncated_file_exits_2(self, tmp_path, capsys):
        path = tmp_path / "trunc.json"
        path.write_text('{"points": 4, "lines": [[0')
        assert run(capsys, "check", str(path))[0] == 2

    def test_missing_file_exits_2(self, capsys):
        assert run(capsys, "check", "/nonexistent.json")[0] == 2

    @pytest.mark.parametrize("command", ["check", "groups", "endo", "verify-all"])
    def test_directory_exits_2(self, tmp_path, capsys, command):
        code, out, err = run(capsys, command, str(tmp_path))
        assert (code, out) == (2, "")
        assert err.startswith("input error:")

    @pytest.mark.parametrize("command", ["check", "groups", "endo", "verify-all"])
    def test_non_utf8_file_exits_2(self, tmp_path, capsys, command):
        path = tmp_path / "latin1.json"
        path.write_bytes('{"points": 4, "lines": [], "name": "caf\u00e9"}'.encode("latin-1"))
        code, out, err = run(capsys, command, str(path))
        assert (code, out) == (2, "")
        assert err.startswith("input error:")

    @pytest.mark.parametrize("command", ["check", "groups", "endo", "verify-all"])
    @pytest.mark.parametrize(
        "text",
        ["[" * 100_000 + "]" * 100_000, '{"points": ' + "1" * 4301 + ', "lines": []}'],
        ids=["deep_nesting", "4301_digit_integer"],
    )
    def test_json_beyond_parser_limits_exits_2(self, tmp_path, capsys, command, text):
        # json.load raises RecursionError and ValueError here, not JSONDecodeError
        path = tmp_path / "limits.json"
        path.write_text(text)
        code, out, err = run(capsys, command, str(path))
        assert (code, out) == (2, "")
        assert err.startswith("input error:")


class TestGroups:
    def test_translations_and_abelian(self, p3_file, capsys):
        code, out, _ = run(
            capsys, "groups", p3_file, "--translations", "--check-abelian"
        )
        assert code == 0
        report = json.loads(out)
        assert report["results"]["num_translations"] == 9
        assert len(report["results"]["translations"]) == 9
        assert report["results"]["checks"][0] == {"name": "abelian", "passed": True}

    def test_normality(self, p3_file, capsys):
        code, out, _ = run(capsys, "groups", p3_file, "--check-normal")
        assert code == 0
        report = json.loads(out)
        assert report["results"]["num_dilations"] == 18
        assert report["results"]["checks"][0]["name"] == "normal_in_dilations"

    def test_directions(self, p2_file, capsys):
        code, out, _ = run(capsys, "groups", p2_file, "--check-directions")
        assert code == 0
        names = [c["name"] for c in json.loads(out)["results"]["checks"]]
        assert names == ["conjugation_direction", "composition_direction"]

    @pytest.mark.parametrize(
        "flags,passes",
        [([], 0), (["--check-normal"], 1), (["--check-normal", "--check-directions"], 1)],
    )
    def test_one_conjugation_pass(self, p3_file, capsys, monkeypatch, flags, passes):
        # on the 1 generator of Dil_0 and the 2 generators of Tr, which
        # generate the 18 dilations: every coset representative of AG(2,3)
        # is a translation
        calls = count_calls(monkeypatch, "check_conjugation")
        assert run(capsys, "groups", p3_file, *flags)[0] == 0
        assert [len(dilations) for _, dilations in calls] == [3] * passes


    @pytest.mark.parametrize(
        "plane,digest",
        [
            ("7", "510c1adf1d5ee1cdaf900820f50df651ee530bd6d60a62576acb12dd53e0b1da"),
            ("ag29", "eee42e33ca074c34a9b4314af1525e155e4029326f2e763507edaa2e236c0558"),
            ("hall9", "2661301415b1cfc663f22356cbc16999a6565fec10e8f8d051515ce730e37c4e"),
        ],
    )
    def test_report_is_pinned(self, tmp_path, capsys, plane, digest):
        """sha256 of the stdout of the point-map Cayley table and conjugation scans."""
        path = tmp_path / "plane.json"
        path.write_text(json.dumps(plane_document(plane)))
        code, out, _ = run(
            capsys, "groups", str(path), "--dilations", "--translations", *GROUP_CHECKS
        )
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    @pytest.mark.parametrize(
        "point,sizes,digest",
        [
            (81, (72, 9), "f8265d2dfef27815dc62db7ba5184ff21b03c2b03965270a4970872c166ec95d"),
            (0, (2, 1), "b7f4f0a055dd7d62b17c3d66a9826097e50b089be3a9baf2197edc3ad6145760"),
        ],
    )
    def test_dual_hall_cut_is_pinned(self, tmp_path, capsys, point, sizes, digest):
        """A plane that is no translation plane: some points are the image
        of point 0 under no dilation."""
        path = tmp_path / "cut.json"
        path.write_text(json.dumps(dual_hall9_cut(point)))
        code, out, _ = run(
            capsys, "groups", str(path), "--dilations", "--translations", *GROUP_CHECKS
        )
        assert code == 0
        results = json.loads(out)["results"]
        assert (results["num_dilations"], results["num_translations"]) == sizes
        assert all(check["passed"] for check in results["checks"])
        assert hashlib.sha256(out.encode()).hexdigest() == digest


class TestEndo:
    def test_endomorphism_count(self, p2_file, capsys):
        code, out, _ = run(capsys, "endo", p2_file)
        assert code == 0
        assert json.loads(out)["results"]["num_endomorphisms"] == 16

    @pytest.mark.parametrize("order,tp", [(2, 2), (3, 3)])
    def test_ring_check(self, tmp_path, capsys, order, tp):
        path = tmp_path / "plane.json"
        run(capsys, "build", "--order", str(order), "--out", str(path))
        code, out, _ = run(
            capsys, "endo", str(path), "--trace-preserving", "--check-ring"
        )
        assert code == 0
        results = json.loads(out)["results"]
        assert results["num_tp_endomorphisms"] == tp
        assert results["ring"]["all_pass"]

    def test_dump_includes_tables(self, p2_file, capsys):
        code, out, _ = run(capsys, "endo", p2_file, "--trace-preserving", "--dump")
        results = json.loads(out)["results"]
        assert [0, 0, 0, 0] in results["tp_endomorphisms"]
        assert len(results["endomorphisms"]) == 16

    def test_group_bound_exits_2(self, p3_file, capsys):
        # --max-group, End's bound before the order bound implied it, is no
        # flag of any command
        for command in ("endo", "verify-all"):
            with pytest.raises(SystemExit) as exc:
                main([command, p3_file, "--max-group", "81"])
            out, err = capsys.readouterr()
            assert (exc.value.code, out) == (2, "")
            assert err.startswith("usage:")
            assert err.endswith("error: unrecognized arguments: --max-group 81\n")

    @pytest.mark.parametrize("plane", ["ag29", "hall9"])
    def test_dump_over_the_listing_bound_exits_2(self, tmp_path, capsys, monkeypatch, plane):
        """End is counted first: 3^16 tables of 81 entries are refused before
        the listing starts, where the search ran out of memory."""
        path = tmp_path / "plane.json"
        path.write_text(json.dumps(plane_document(plane)))
        listings = count_calls(monkeypatch, "enumerate_endomorphisms")
        assert run(capsys, "endo", str(path), "--dump") == (
            2, "", "error: endomorphism listing bounded to 4194304 table entries, "
            "got 43046721 endomorphisms of group order 81\n",
        )
        assert listings == []

    @pytest.mark.parametrize("bound,code", [(63, 2), (64, 0)])
    def test_dump_listing_bound_is_inclusive(self, p2_file, capsys, monkeypatch, bound, code):
        # AG(2,2): 16 endomorphisms of a group of order 4
        monkeypatch.setattr(cli, "MAX_DUMP_ENTRIES", bound)
        assert run(capsys, "endo", p2_file, "--dump")[0] == code
        assert run(capsys, "endo", p2_file)[0] == 0  # a count is not refused

    @pytest.mark.parametrize(
        "plane,flags,digest",
        [
            ("2", RING + ["--dump"], "c7dab69375185f2e4af8a79e456c2a4113060f9f3d612b5aac7ef9e788999ec9"),
            ("3", RING + ["--dump"], "320616817a6fddbf6108eb6c1d9a6f6932920ac57894702506279f27b67808bd"),
            ("ag24", RING, "681c315c9a173bb28d0da9b0779ad6651a8ca1fa2f3be178e72bc37aa0883009"),
            ("5", RING + ["--dump"], "853fbbcdad9082d5a83758ddf0295fa28f47d0ffe14e031c1eb67b809f4b1302"),
            ("7", RING + ["--dump"], "cb9ec5b21960c2af90e3990bbc63e8fe4127fa477e5db9ce8d4bfaed99b17e7d"),
            # End counted, not listed
            ("5", RING, "da4eec3947720781105007960d54417dc4766d19e1a9b52c757a0d2cad9bd215"),
            ("7", RING, "bd5e6fb3ad37d4e3926de77a7e6df71b0711210bc5e927c2ad91a3b1c5c052c0"),
            ("ag24", [], "225f132ab9c9965a12897d8786d8722feb43281b16623b779d093466874cc2d5"),
        ],
    )
    def test_ring_report_is_pinned(self, tmp_path, capsys, plane, flags, digest):
        """sha256 of the stdout of the product-and-test End search, kept byte for byte."""
        path = tmp_path / "plane.json"
        if plane == "ag24":
            path.write_text(json.dumps(ag24_document()))
        else:
            assert run(capsys, "build", "--order", plane, "--out", str(path))[0] == 0
        code, out, _ = run(capsys, "endo", str(path), *flags)
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest


class TestVerifyAll:
    def test_scans_the_cayley_table_for_commutativity_once(self, p3_file, capsys, monkeypatch):
        # the translation_group_abelian theorem and count_endomorphisms both
        # read check_abelian, which keeps its verdict on the group
        checks = count_calls(monkeypatch, "check_abelian", transgroup)
        scans = count_calls(monkeypatch, "_scan_abelian", transgroup)
        assert run(capsys, "verify-all", p3_file)[0] == 0
        assert (len(checks), len(scans)) == (2, 1)

    @pytest.mark.parametrize("order", [2, 3])
    def test_consolidated_pass(self, tmp_path, capsys, order):
        path = tmp_path / "plane.json"
        run(capsys, "build", "--order", str(order), "--out", str(path))
        code, out, _ = run(capsys, "verify-all", str(path))
        assert code == 0
        report = json.loads(out)
        assert report["status"] == "pass"
        assert all(t["passed"] for t in report["results"]["theorems"])

    @pytest.mark.parametrize(
        "order,digest",
        [
            (2, "8f4a2cfefb8b895d486124dbd0db9831739878ef6711237e66c78b88a88931b0"),
            (3, "1f124c60eff2c76c0cf28d919a24fcd103749ddd5f0eda3f1bbeff59a04be66f"),
            (5, "c072c681ebae77a1a1d5aa7ff7cf2a76e5a9eb65ed903bc28ef12fdae839b6fe"),
            (7, "8b24d9b857ebcd14c8b31515a2fa1bb16e3829fe178d381333fbff250028792a"),
            ("ag24", "e51f5a31c27de90c7e4add32d9f3fb17b04ca4064cf6dfe19bcd5af8b0d60f9b"),
        ],
    )
    def test_report_is_pinned(self, tmp_path, capsys, order, digest):
        """sha256 of stdout, kept byte for byte from when verify-all listed
        End and scanned its closure: about 10 s on AG(2,5) as all-pairs
        scans and 4-5 s on AG(2,4) from a generating set, so the 5 s
        budget guards the speed too."""
        path = tmp_path / "plane.json"
        path.write_text(json.dumps(plane_document(str(order))))
        start = time.perf_counter()
        code, out, _ = run(capsys, "verify-all", str(path))
        assert time.perf_counter() - start < 5
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    def test_one_conjugation_pass(self, p3_file, capsys, monkeypatch):
        # on the 1 generator of Dil_0 and the 2 generators of Tr: 3 of the
        # 18 dilations
        calls = count_calls(monkeypatch, "check_conjugation")
        assert run(capsys, "verify-all", p3_file)[0] == 0
        assert [len(dilations) for _, dilations in calls] == [3]

    def test_broken_plane_fails_at_axiom_stage(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text(json.dumps(BROKEN_DOC))
        code, out, _ = run(capsys, "verify-all", str(path))
        assert code == 1
        report = json.loads(out)
        assert report["status"] == "fail"
        assert "theorems" not in report["results"]

    def test_env_var_bound_flag_precedence(self, p3_file, capsys, monkeypatch):
        # AFFINEPLANE_MAX_ORDER and AFFINEPLANE_MAX_GROUP once set the bounds:
        # only the flag does now, and no value of either variable changes a
        # report or an exit code
        argvs = [["endo", p3_file, *RING], ["verify-all", p3_file],
                 ["endo", p3_file, "--max-order", "2"], ["verify-all", p3_file, "--max-order", "3"]]
        expected = [run(capsys, *argv) for argv in argvs]
        assert [code for code, _, _ in expected] == [0, 0, 2, 0]
        for name in ("AFFINEPLANE_MAX_ORDER", "AFFINEPLANE_MAX_GROUP"):
            for value in ("1", "many", "-1", "169"):
                monkeypatch.setenv(name, value)
                assert [run(capsys, *argv) for argv in argvs] == expected
            monkeypatch.delenv(name)

    def test_determinism_byte_identical(self, tmp_path):
        plane = tmp_path / "p3.json"
        subprocess.run(
            [sys.executable, "-m", "affineplane", "build", "--order", "3",
             "--out", str(plane)],
            check=True,
            capture_output=True,
        )
        runs = [
            subprocess.run(
                [sys.executable, "-m", "affineplane", "verify-all", str(plane)],
                check=True,
                capture_output=True,
            ).stdout
            for _ in range(2)
        ]
        assert runs[0] == runs[1]


class TestBounds:
    @pytest.mark.parametrize(
        "argv",
        [
            ["endo", "PLANE", "--max-order", "-1"],
            ["endo", "PLANE", "--max-group", "-1"],
            ["verify-all", "PLANE", "--max-group", "-9"],
            ["groups", "PLANE", "--max-order", "three"],
            ["build", "--order", "3", "--max-order", "-3"],
            # flags a command does not read are not accepted
            ["check", "PLANE", "--max-order", "3"],
            ["check", "PLANE", "--max-group", "9"],
            ["build", "--order", "3", "--max-group", "9"],
            ["groups", "PLANE", "--max-group", "9"],
        ],
    )
    def test_rejected_with_usage_error(self, p2_file, capsys, argv):
        assert_usage_error(capsys, *(p2_file if a == "PLANE" else a for a in argv))

    def test_zero_is_a_bound(self, p2_file, capsys):
        code, _, err = run(capsys, "groups", p2_file, "--max-order", "0")
        assert code == 2
        assert "bounded to order 0" in err

    def test_unread_env_bound_is_ignored(self, p2_file, capsys, monkeypatch):
        monkeypatch.setenv("AFFINEPLANE_MAX_GROUP", "many")
        assert run(capsys, "groups", p2_file)[0] == 0
        assert run(capsys, "check", p2_file)[0] == 0

    def test_order_bound_stops_before_the_dilation_search(self, p3_file, capsys, monkeypatch):
        # the library takes no bound: the CLI checks it before dilation_cosets
        searches = count_calls(monkeypatch, "dilation_cosets", collineation)
        assert run(capsys, "groups", p3_file, "--max-order", "2") == (
            2, "", "error: dilation enumeration bounded to order 2, plane has 3\n",
        )
        assert searches == []

    @pytest.mark.parametrize("command", ["endo", "verify-all"])
    def test_order_bound_stops_before_the_end_search(self, p3_file, capsys, monkeypatch,
                                                     command):
        # |Tr| divides q^2, so the order bound is End's bound too
        searches = [
            count_calls(monkeypatch, name, endo)
            for name in ("enumerate_endomorphisms", "count_endomorphisms",
                         "enumerate_tp_endomorphisms", "_chain_search")
        ]
        assert run(capsys, command, p3_file, "--max-order", "2") == (
            2, "", "error: dilation enumeration bounded to order 2, plane has 3\n",
        )
        assert searches == [[]] * 4

    @pytest.mark.parametrize(
        "plane,num_endomorphisms,digests",
        [
            ("ag29", 3**16, ("ce02f7eead7b1919b60c20130e2b476b03d0fcab281a73b555ae970f3e4aa6f9",
                             "c27dc5c1e7aa5d5c529b045d2842dd49cde8d31073b3ee6084f5aa8932f7b99c")),
            ("hall9", 3**16, ("85c0acb706a9eec8963a492b068f5e300d6987c77e5e8ebe66e37d9da55103a0",
                              "d7953c44250f6f4fa5f914992fa72c35682d5ee96b1b865d78da56bbcff28a0f")),
            ("11", 11**4, ("92575fc617fa585de0f1e4eab2c7788847a769a3d8f246cde0e4ac6459db5540",
                           "acffe523dd1844ab025c906aa4268eba465b87b93f5eb6410c8186c78abd5eee")),
            ("13", 13**4, ("e3feeec340fab5072e3ee31b68c532c5f8bde9876b8d979aac7e5bb70d8827b0",
                           "212137cefd84ee798760e2c81a746eac5aa5d3266ec9f9a1b710807bb7a76b32")),
        ],
    )
    def test_default_bound_settles_every_plane_up_to_order_13(
        self, tmp_path, capsys, plane, num_endomorphisms, digests
    ):
        """endo and verify-all finish at the default bound on the order-9
        planes, Hall(9) the non-Desarguesian one, and on AG(2,11) and
        AG(2,13).  The digests are of the reports these commands wrote when
        End had a bound of its own, raised to 169."""
        path = tmp_path / "plane.json"
        path.write_text(json.dumps(plane_document(plane)))
        outs = []
        for argv in (["endo", str(path), *RING], ["verify-all", str(path)]):
            code, out, _ = run(capsys, *argv)
            assert code == 0
            assert json.loads(out)["results"]["num_endomorphisms"] == num_endomorphisms
            outs.append(out)
        theorems = json.loads(outs[1])["results"]["theorems"]
        assert [t["passed"] for t in theorems] == [True] * 12
        assert tuple(hashlib.sha256(out.encode()).hexdigest() for out in outs) == digests


class TestOut:
    @pytest.mark.parametrize("command", ["groups", "endo", "verify-all"])
    @pytest.mark.parametrize("target", ["missing/report.json", "."])
    def test_bad_out_fails_before_the_dilation_search(
        self, p2_file, tmp_path, capsys, monkeypatch, command, target
    ):
        searches = count_calls(monkeypatch, "dilation_cosets", collineation)
        out_path = tmp_path / target
        code, out, err = run(capsys, command, p2_file, "--out", str(out_path))
        assert (code, out, searches) == (2, "", [])
        assert err.startswith("input error:")
        assert not (tmp_path / "missing").exists()

    @pytest.mark.parametrize("argv", [
        ["build", "--order", "2"], ["check", "PLANE"], ["groups", "PLANE"], ["endo", "PLANE"],
        ["verify-all", "PLANE"],
    ], ids=["build", "check", "groups", "endo", "verify-all"])
    def test_empty_out_fails_before_the_plane_is_read(self, p2_file, capsys, monkeypatch, argv):
        # an empty --out once wrote the report to stdout and exited 0
        loads = count_calls(monkeypatch, "load_plane")
        builds = count_calls(monkeypatch, "prime_plane_document")
        argv = [p2_file if a == "PLANE" else a for a in argv]
        assert run(capsys, *argv, "--out", "") == (
            2, "", "input error: [Errno 2] No such file or directory: ''\n",
        )
        assert (loads, builds) == ([], [])

    @pytest.mark.parametrize(
        "argv", [["groups", "--translations"], ["endo", "--dump"], ["verify-all"]]
    )
    def test_good_out_receives_the_report(self, p2_file, tmp_path, capsys, argv):
        command, *flags = argv
        code, stdout_report, err = run(capsys, command, p2_file, *flags)
        out_path = tmp_path / "report.json"
        assert run(capsys, command, p2_file, *flags, "--out", str(out_path)) == (
            code, "", err,
        )
        assert out_path.read_text() == stdout_report

    @pytest.mark.parametrize(
        "argv", [["groups", "--translations", *GROUP_CHECKS], ["endo", "--dump"], ["verify-all"]]
    )
    def test_render_report_matches_the_streamed_report(self, p3_file, capsys, argv):
        # the traced benchmark replay renders with render_report and compares bytes
        code, out, _ = run(capsys, argv[0], p3_file, *argv[1:])
        report = json.loads(out)
        assert code == 0
        assert cli.render_report(
            report["command"], report["plane_summary"], report["results"], report["status"]
        ) == out

    def test_report_is_written_in_batches(self, tmp_path, monkeypatch):
        # one write per JSON token would be 13,719 writes here, each one
        # write(2) when stdout is write-through (python -u, PYTHONUNBUFFERED);
        # one write of the whole report would hold all of its text at once
        class CountingStdout(io.StringIO):
            writes = []

            def write(self, text):
                self.writes.append(len(text))
                return super().write(text)

        path = tmp_path / "ag29.json"
        path.write_text(json.dumps(ag29_document()))
        stdout = CountingStdout()
        monkeypatch.setattr(sys, "stdout", stdout)
        assert main(["groups", str(path), "--translations", "--check-abelian"]) == 0
        out = stdout.getvalue()
        report = json.loads(out)
        assert cli.render_report(
            report["command"], report["plane_summary"], report["results"], report["status"]
        ) == out
        assert len(stdout.writes) <= 16
        assert max(stdout.writes) <= output.WRITE_BATCH + max(map(len, output._text(report)))

    @pytest.mark.parametrize(
        "argv",
        [["groups", "PLANE", "--dilations", "--translations"], ["build", "--order", "7"]],
        ids=["groups-hall9", "build-7"],
    )
    def test_write_through_stdout_matches_the_out_file(self, tmp_path, argv):
        # a report of many batches (WRITE_BATCH characters each) and one of a
        # single batch, to a write-through stdout and to a file
        plane = tmp_path / "hall9.json"
        plane.write_text(json.dumps(hall9_document()))
        src = os.path.dirname(os.path.dirname(affineplane.__file__))
        env = dict(os.environ, PYTHONPATH=src, PYTHONUNBUFFERED="1")
        command = [sys.executable, "-m", "affineplane",
                   *[str(plane) if a == "PLANE" else a for a in argv]]
        stdout = subprocess.run(command, env=env, check=True, capture_output=True).stdout
        out = tmp_path / "report.json"
        subprocess.run([*command, "--out", str(out)], env=env, check=True, capture_output=True)
        assert stdout == out.read_bytes()

    def test_failed_write_is_an_output_error(self, p2_file, capsys, monkeypatch):
        class BrokenPipeStdout(io.StringIO):
            def write(self, text):
                raise BrokenPipeError(errno.EPIPE, os.strerror(errno.EPIPE))

        stdout = BrokenPipeStdout()
        monkeypatch.setattr(sys, "stdout", stdout)
        assert main(["groups", p2_file, "--translations"]) == 2
        assert capsys.readouterr().err == "output error: [Errno 32] Broken pipe\n"
        assert stdout.closed  # what it holds is dropped, not flushed again at exit

    @pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "write-through"])
    def test_closed_pipe_exits_2_without_a_shutdown_traceback(self, unbuffered):
        # a small buffered report would first meet the closed pipe in the flush
        # at interpreter exit, which prints "Exception ignored ... BrokenPipeError"
        # and exits 120; _write flushes stdout itself
        src = os.path.dirname(os.path.dirname(affineplane.__file__))
        env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
        env.update(PYTHONPATH=src, **({"PYTHONUNBUFFERED": "1"} if unbuffered else {}))
        with subprocess.Popen(
            [sys.executable, "-m", "affineplane", "build", "--order", "3"],
            env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        ) as proc:
            proc.stdout.close()  # before the child writes its report
            err = proc.stderr.read()
        assert (proc.returncode, err) == (2, b"output error: [Errno 32] Broken pipe\n")


EBADF = b"output error: [Errno 9] Bad file descriptor\n"
ENOSPC = b"output error: [Errno 28] No space left on device\n"


@functools.lru_cache(maxsize=None)
def shell(line: str, unbuffered: bool = False):
    """(exit code, stdout, stderr) of `sh -c 'exec python -m affineplane <line>'`,
    so that line may close or redirect the child's streams."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    env.update(PYTHONPATH=os.path.dirname(os.path.dirname(affineplane.__file__)),
               **({"PYTHONUNBUFFERED": "1"} if unbuffered else {}))
    result = subprocess.run(["sh", "-c", f'exec "$0" -m affineplane {line}', sys.executable],
                            env=env, capture_output=True)
    return result.returncode, result.stdout, result.stderr


class TestClosedStreams:
    """A report, version or help that stdout does not take exits 2 with an
    output error; a stderr that is closed (2>&-), read-only (its writes fail
    with EBADF) or full changes neither the exit code nor stdout.  A stream
    closed at start-up is None in sys, and print(file=None) writes to stdout."""

    @pytest.fixture(scope="class")
    def fill(self, tmp_path_factory):
        """line with PLANE and BROKEN replaced by the paths of AG(2,3) and a broken plane."""
        path = tmp_path_factory.mktemp("streams")
        (path / "p3.json").write_text(json.dumps(build_prime_plane(3).to_document()))
        (path / "broken.json").write_text(json.dumps(BROKEN_DOC))
        return lambda line: line.replace("PLANE", str(path / "p3.json")).replace(
            "BROKEN", str(path / "broken.json"))

    @pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "write-through"])
    @pytest.mark.parametrize("line,code,err", [
        ("check PLANE >&-", 2, EBADF),
        ("check PLANE >/dev/full", 2, ENOSPC),
        ("build --order 3 >&-", 2, EBADF),
        ("--version >&-", 2, EBADF),
        ("--version >/dev/full", 2, ENOSPC),
        ("--vers >/dev/full", 2, ENOSPC),  # argparse's version action
        ("--help >&-", 2, EBADF),
        ("--help >/dev/full", 2, ENOSPC),
        ("check PLANE >/dev/full 2>&-", 2, b""),
        ("check >&-", 2, b"usage: affineplane check [-h] [--out PATH] plane\naffineplane check: "
                         b"error: the following arguments are required: plane\n"),
    ])
    def test_unwritable_stdout_is_an_output_error(self, fill, line, code, err, unbuffered):
        assert shell(fill(line), unbuffered) == (code, b"", err)

    @pytest.mark.parametrize("stderr", ["2>&-", "2<PLANE", "2>/dev/full"],
                             ids=["closed", "read-only", "full"])
    @pytest.mark.parametrize("line,code", [
        ("check PLANE", 0), ("check BROKEN", 1), ("groups BROKEN", 2), ("check no-such.json", 2),
        ("check", 2), ("--version", 0), ("--help", 0),
    ], ids=["pass", "fail", "not-a-plane", "input-error", "usage-error", "version", "help"])
    def test_unwritable_stderr_keeps_the_code_and_stdout(self, fill, line, code, stderr):
        expected_code, out, _ = shell(fill(line))
        assert expected_code == code
        assert shell(fill(f"{line} {stderr}")) == (code, out, b"")


def oracle_text(document) -> str:
    return json.dumps(document, indent=2, sort_keys=True) + "\n"


class TestReportText:
    """output._text is held to json.dumps, the oracle; no other encoder is kept."""

    @pytest.mark.parametrize(
        "plane,argv",
        [
            (lambda: BROKEN_DOC, ["check"]),  # a failing axiom and its witness
            (lambda: plane_document("3"), ["groups", "--dilations", "--translations",
                                           *GROUP_CHECKS]),
            (hall9_document, ["groups", "--dilations", "--translations", *GROUP_CHECKS]),
            (lambda: plane_document("3"), ["endo", "--dump", *RING]),
            (lambda: dual_hall9_cut(81), ["verify-all"]),
            (None, ["build", "--order", "5"]),
        ],
        ids=["check-witness", "groups-ag23", "groups-hall9", "endo-dump", "verify-all-cut",
             "build"],
    )
    def test_every_report_shape(self, tmp_path, monkeypatch, plane, argv):
        command, *flags = argv
        if plane is not None:
            path = tmp_path / "plane.json"
            path.write_text(json.dumps(plane()))
            flags.insert(0, str(path))
        written = []
        monkeypatch.setattr(cli, "_write", lambda document, out_path: written.append(document))
        main([command, *flags])
        [document] = written
        assert "".join(output._text(document)) == oracle_text(document)

    @pytest.mark.parametrize(
        "document",
        [
            {},
            [],
            (),
            {"a": {}, "b": [], "c": [{}, [], [[]], {"d": {}}]},
            [1, True, 2],
            [False, 0],
            [None, 1, None],
            [True],
            [-1, 0, -(2**70), 7],
            [2**63, 2**64 + 1, -(2**63) - 1],
            [1.5, 2, -0.0, 1e300, float("inf"), float("nan")],
            {"x": 0.1, "y": -3.25e-7},
            {"é": "ü", "snow ☃": ["\u2603", "\U0001f600"], "\ud800": "\udfff"},
            {"quote\"back\\slash": "new\nline\ttab\x00\x1f\x7f"},
            ((1, 2), (3,), ((4, 5), ()), ("a", 1)),
            {"rows": ((0, 1), (1, 0)), "flat": (5, 6, 7), "mixed": (1, "1", None)},
            {"z": 1, "a": {"y": [1, [2, [3]]], "b": "s"}, "m": None},
            "top-level string",
            42,
        ],
    )
    def test_edge_documents(self, document):
        assert "".join(output._text(document)) == oracle_text(document)

    def test_shared_row_is_joined_once_per_depth(self):
        """A tuple of ints the document holds twice at one depth and once at
        another is written as json.dumps writes it, and its text at the
        first depth is one string, yielded twice."""
        row = (3, 1, 4, 1, 5)
        document = {"a": [row, row], "b": row, "c": [[row]], "d": list(row)}
        chunks = list(output._text(document))
        assert "".join(chunks) == oracle_text(document)
        deep = [chunk for chunk in chunks if chunk.startswith("[\n      3")]
        assert len(deep) == 2 and deep[0] is deep[1]

    @pytest.mark.parametrize("plane,shared", [
        (ag29_document, True),  # a regular Tr: each Cayley row is its element's image
        (lambda: dual_hall9_cut(81), False),  # 9 translations on 81 points: rows are gathered
    ], ids=["ag29", "cut81"])
    def test_translations_report(self, tmp_path, monkeypatch, plane, shared):
        path = tmp_path / "plane.json"
        path.write_text(json.dumps(plane()))
        written = []
        monkeypatch.setattr(cli, "_write", lambda document, out_path: written.append(document))
        main(["groups", str(path), "--translations", *GROUP_CHECKS])
        [document] = written
        results = document["results"]
        rows = zip(results["translations"], results["cayley_table"])
        assert [row is image for image, row in rows] == [shared] * len(results["translations"])
        assert "".join(output._text(document)) == oracle_text(document)


class TestStages:
    @pytest.mark.parametrize(
        "command,flags,dilation_searches,endomorphism_searches",
        [
            ("check", [], 0, 0),
            ("groups", ["--check-abelian", "--check-normal", "--check-directions"], 1, 0),
            ("endo", ["--trace-preserving", "--check-ring"], 1, 0),  # End is counted
            ("verify-all", [], 1, 0),  # End is counted
            ("endo", ["--dump"], 1, 1),
        ],
    )
    def test_each_stage_at_most_once(
        self, p2_file, capsys, monkeypatch, command, flags,
        dilation_searches, endomorphism_searches,
    ):
        """The coset search runs at most once, and no full dilation list
        is composed."""
        searches = count_calls(monkeypatch, "dilation_cosets", collineation)
        composed = count_calls(monkeypatch, "compose_cosets", collineation)
        endomorphisms = count_calls(monkeypatch, "enumerate_endomorphisms")
        assert run(capsys, command, p2_file, *flags)[0] == 0
        assert (len(searches), len(composed), len(endomorphisms)) == (
            dilation_searches, 0, endomorphism_searches,
        )

    def test_verify_all_counts_end_once(self, p2_file, capsys, monkeypatch):
        counts = count_calls(monkeypatch, "count_endomorphisms")
        assert run(capsys, "verify-all", p2_file)[0] == 0
        assert len(counts) == 1

    def test_printed_dilations_are_composed_once(self, p3_file, capsys, monkeypatch):
        searches = count_calls(monkeypatch, "dilation_cosets", collineation)
        composed = count_calls(monkeypatch, "compose_cosets", collineation)
        code, out, _ = run(capsys, "groups", p3_file, "--dilations", *GROUP_CHECKS)
        assert code == 0
        assert len(json.loads(out)["results"]["dilations"]) == 18
        assert (len(searches), len(composed)) == (1, 1)

    def test_counted_end_keeps_no_table(self, tmp_path, capsys):
        # listing End held 65,536 maps on AG(2,4), a tracemalloc peak of 15 MB
        path = tmp_path / "ag24.json"
        path.write_text(json.dumps(ag24_document()))
        tracemalloc.start()
        try:
            code, out, _ = run(capsys, "endo", str(path), *RING)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 0
        assert json.loads(out)["results"]["num_endomorphisms"] == 2**16
        assert peak < 2 * 2**20

    def test_plain_endo_skips_the_tp_filter(self, p2_file, capsys, monkeypatch):
        calls = count_calls(monkeypatch, "is_trace_preserving", endo)
        assert run(capsys, "endo", p2_file)[0] == 0
        assert calls == []

    @pytest.mark.parametrize(
        "command,flags,tp_lists",
        [
            ("check", [], 0),
            ("groups", ["--check-abelian", "--check-normal", "--check-directions"], 0),
            ("endo", [], 0),
            ("endo", ["--trace-preserving", "--check-ring"], 1),
            ("verify-all", [], 1),
        ],
    )
    def test_tp_listed_at_most_once_and_never_searched(self, p2_file, capsys, monkeypatch,
                                                       command, flags, tp_lists):
        # AG(2,2) is a translation plane: its TP maps are read from Dil_0
        lists = count_calls(monkeypatch, "tp_endomorphisms")
        searches = count_calls(monkeypatch, "enumerate_tp_endomorphisms")
        assert run(capsys, command, p2_file, *flags)[0] == 0
        assert (len(lists), len(searches)) == (tp_lists, 0)

    def test_tp_maps_are_not_filtered_from_end(self, p3_file, capsys, monkeypatch):
        # a filter over End would ask is_trace_preserving of all 81 maps
        calls = count_calls(monkeypatch, "is_trace_preserving", endo)
        code, out, _ = run(capsys, "endo", p3_file, "--trace-preserving")
        assert code == 0
        assert json.loads(out)["results"]["num_tp_endomorphisms"] == 3
        assert len(calls) <= 3
