"""Document round-trips, exit codes, and command output."""

import dataclasses
import functools
import hashlib
import json
import os
import random
import reprlib
import stat
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from liefol import cli, verifier
from liefol.algebra import FoliationSetup, MetricFrame, StructureTensor, format_scalar, jacobi_residual
from liefol.cli import (
    EXIT_CONSTRAINT,
    EXIT_DISAGREEMENT,
    EXIT_JACOBI,
    EXIT_OK,
    EXIT_PARSE,
    EXIT_SAMPLING,
    MAX_DIM,
    ParseError,
    document_to_setup,
    format_vector,
    load_document,
    main,
    setup_to_document,
)
from liefol.families import (
    FamilyId,
    FamilySpec,
    build_family,
    closed_form_theta,
    family_dimension,
)
from liefol.verifier import _draw_params
from test_families import theta_table

F = Fraction


# A valid dim-3 document: [e0, e1] = e2 on the Riemannian frame.
DOC3 = {
    "dim": 3,
    "epsilon": [1, 1, 1],
    "brackets": [{"i": 0, "j": 1, "coeffs": ["0", "0", "1"]}],
    "vertical": [0],
    "horizontal": [1, 2],
}


def write_doc(tmp_path, doc, name="setup.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc), encoding="utf-8")
    return str(path)


class TestDocumentRoundTrip:
    @pytest.mark.parametrize("family", list(FamilyId))
    def test_families_round_trip_exactly(self, family):
        rng = random.Random(f"cli-{family.value}")
        dim = family_dimension(family)
        sig = tuple(rng.choice((1, -1)) for _ in range(dim))
        [(params, _)], _ = _draw_params(rng, family, 9, (sig[-2] * sig[-1],))
        setup = build_family(FamilySpec.create(family, params, sig))
        doc = setup_to_document(setup, meta={"family": family.value})
        parsed, meta = document_to_setup(json.loads(json.dumps(doc)))
        assert parsed == setup
        assert meta == {"family": family.value}

    @given(data=st.data())
    @settings(max_examples=50, deadline=None)
    def test_arbitrary_setups_round_trip(self, data):
        dim = data.draw(st.integers(min_value=3, max_value=6))
        scalars = st.fractions(max_denominator=12)
        vertical = tuple(range(dim - 2))
        rows = {}
        for i in range(dim):
            for j in range(i + 1, dim):
                if data.draw(st.booleans()):
                    continue
                if i in vertical and j in vertical:
                    # keep the vertical span bracket-closed
                    vec = [data.draw(scalars) if k in vertical else Fraction(0) for k in range(dim)]
                else:
                    vec = [data.draw(scalars) for _ in range(dim)]
                rows[(i, j)] = vec
        tensor = StructureTensor.from_rows(dim, rows)
        frame = MetricFrame(tuple(data.draw(st.sampled_from((1, -1))) for _ in range(dim)))
        setup = FoliationSetup(tensor, frame, vertical, (dim - 2, dim - 1))
        doc = json.loads(json.dumps(setup_to_document(setup)))
        parsed, _ = document_to_setup(doc)
        assert parsed == setup

    def test_rejects_floats(self):
        doc = {
            "dim": 3,
            "epsilon": [1, 1, 1],
            "brackets": [{"i": 0, "j": 1, "coeffs": [0, 0, 0.5]}],
            "vertical": [0],
            "horizontal": [1, 2],
        }
        with pytest.raises(ParseError, match="floating"):
            document_to_setup(doc)

    def test_rejects_duplicate_pairs(self):
        doc = {
            "dim": 3,
            "epsilon": [1, 1, 1],
            "brackets": [
                {"i": 0, "j": 1, "coeffs": ["0", "0", "1"]},
                {"i": 0, "j": 1, "coeffs": ["0", "0", "2"]},
            ],
            "vertical": [0],
            "horizontal": [1, 2],
        }
        with pytest.raises(ParseError, match="more than once"):
            document_to_setup(doc)

    def test_rejects_missing_fields_and_bad_indices(self):
        with pytest.raises(ParseError, match="dim"):
            document_to_setup({"epsilon": [1]})
        doc = {
            "dim": 3,
            "epsilon": [1, 1, 1],
            "brackets": [{"i": 1, "j": 0, "coeffs": ["0", "0", "0"]}],
            "vertical": [0],
            "horizontal": [1, 2],
        }
        with pytest.raises(ParseError, match="i < j"):
            document_to_setup(doc)


class TestFormatVector:
    def test_rendering(self):
        names = ["A", "B", "X"]
        assert format_vector((F(0), F(0), F(0)), names) == "0"
        assert format_vector((F(1), F(0), F(-1)), names) == "A - X"
        assert format_vector((F(-1, 2), F(3), F(0)), names) == "-1/2 A + 3 B"


class TestCheckCommand:
    def test_direct_product_document(self, tmp_path, capsys):
        setup = build_family(FamilySpec.create("su2"))
        path = write_doc(tmp_path, setup_to_document(setup))
        assert main(["check", path]) == EXIT_OK
        out = capsys.readouterr().out
        assert "jacobi: ok" in out
        assert "conformal: yes" in out
        assert "semi-riemannian: yes" in out
        assert "minimal: yes" in out
        assert "totally geodesic: yes" in out

    def test_perturbed_theta_exits_two_and_names_triple(self, tmp_path, capsys):
        spec = FamilySpec.create("su2", {"b11": 2, "c22": 3})
        theta = list(closed_form_theta(spec))
        theta[0] += 1
        tensor = theta_table(spec, theta)
        from liefol.algebra import FoliationSetup

        setup = FoliationSetup(tensor, spec.signature, (0, 1, 2), (3, 4))
        meta = {"basis": ["A", "B", "C", "X", "Y"]}
        path = write_doc(tmp_path, setup_to_document(setup, meta))
        assert main(["check", path]) == EXIT_JACOBI
        out = capsys.readouterr().out
        assert "jacobi: FAIL" in out
        assert "(B, X, Y)" in out

    def test_jacobi_residual_longer_than_str_allows_is_printed_exactly(self, tmp_path, capsys):
        # N = 10^3000 - 1: [e0, e1] = N e0 and [e0, e2] = N e2 leave the residual
        # N^2 e2 at (e0, e1, e2), 6000 digits, more than str() converts.
        n = "9" * 3000
        doc = {
            "dim": 5,
            "epsilon": [1] * 5,
            "brackets": [
                {"i": 0, "j": 1, "coeffs": [n, "0", "0", "0", "0"]},
                {"i": 0, "j": 2, "coeffs": ["0", "0", n, "0", "0"]},
            ],
            "vertical": [0, 1, 2],
            "horizontal": [3, 4],
        }
        assert main(["check", write_doc(tmp_path, doc)]) == EXIT_JACOBI
        square = "9" * 2999 + "8" + "0" * 2999 + "1"  # 10^6000 - 2*10^3000 + 1
        assert capsys.readouterr().out == f"jacobi: FAIL (max residual {square} at triple (e0, e1, e2))\n"

    def test_family_document_with_negated_theta_exits_two_with_one_line(self, tmp_path, capsys):
        # The user-table gate end to end: a family document whose [X, Y] row
        # has its vertical (theta) entries negated is no Lie algebra.
        emitted = tmp_path / "doc.json"
        assert main(["family", "su2", "--param", "b11=2", "c22=3", "--out", str(emitted)]) == EXIT_OK
        doc = json.loads(emitted.read_text(encoding="utf-8"))
        [row] = [row for row in doc["brackets"] if (row["i"], row["j"]) == (3, 4)]
        assert row["coeffs"][:3] == ["0", "3", "0"]
        row["coeffs"][:3] = [str(-F(v)) for v in row["coeffs"][:3]]
        path = write_doc(tmp_path, doc, "negated.json")
        report = jacobi_residual(load_document(path)[0].tensor)
        names = doc["meta"]["basis"]
        capsys.readouterr()
        assert main(["check", path]) == EXIT_JACOBI
        captured = capsys.readouterr()
        assert captured.out == (
            f"jacobi: FAIL (max residual {format_scalar(report.max_abs)} at triple "
            f"({', '.join(names[i] for i in report.worst_triple)}))\n"
        )
        assert captured.err == ""

    def test_circle_family_not_minimal_still_exit_zero(self, tmp_path, capsys):
        setup = build_family(FamilySpec.create("su2xso2", {"t14": 1}))
        path = write_doc(tmp_path, setup_to_document(setup))
        assert main(["check", path]) == EXIT_OK
        out = capsys.readouterr().out
        assert "minimal: no" in out

    def test_parse_error_exits_three(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text("{not json", encoding="utf-8")
        assert main(["check", str(path)]) == EXIT_PARSE
        assert "parse error" in capsys.readouterr().err

    def test_deeply_nested_document_exits_three(self, tmp_path, capsys):
        path = tmp_path / "deep.json"
        path.write_text("[" * 100_000, encoding="utf-8")
        assert main(["check", str(path)]) == EXIT_PARSE
        err = capsys.readouterr().err
        assert err.startswith("parse error: file: ") and err.count("\n") == 1

    @pytest.mark.parametrize(
        "quoted, message",
        [
            (True, "brackets[0].coeffs[0]: not an exact rational literal: a numeral of more than {} digits"),
            (False, "file: invalid JSON: an integer of more than {} digits"),
        ],
    )
    def test_over_long_coefficient_exits_three_with_one_line(self, quoted, message, tmp_path, capsys):
        # More digits than int() converts, given as a rational string or as a JSON integer.
        literal = "9" * 5000
        doc = {"dim": 3, "epsilon": [1, 1, 1], "brackets": [{"i": 0, "j": 1, "coeffs": [literal, "0", "0"]}],
               "vertical": [0], "horizontal": [1, 2]}
        text = json.dumps(doc)
        if not quoted:
            text = text.replace(f'"{literal}"', literal)
        path = tmp_path / "long.json"
        path.write_text(text, encoding="utf-8")
        assert main(["check", str(path)]) == EXIT_PARSE
        assert capsys.readouterr().err == f"parse error: {message.format(sys.get_int_max_str_digits())}\n"

    def test_non_utf8_document_exits_three_with_one_line(self, tmp_path, capsys):
        path = tmp_path / "document.json"
        # UTF-16 too, which json.loads would decode from bytes: documents are UTF-8 only.
        for data in ('{"dim": 3, "meta": {"name": "\u00e9"}}'.encode("latin-1"), json.dumps(DOC3).encode("utf-16")):
            path.write_bytes(data)
            assert main(["check", str(path)]) == EXIT_PARSE
            assert capsys.readouterr().err == "parse error: file: not UTF-8 text\n"

    def test_document_over_size_cap_exits_three_with_one_line(self, tmp_path, capsys, monkeypatch):
        path = write_doc(tmp_path, {**DOC3, "meta": {"padding": "x" * 200}})
        size = (tmp_path / "setup.json").stat().st_size
        monkeypatch.setattr(cli, "MAX_DOCUMENT_BYTES", size)
        assert main(["check", path]) == EXIT_OK
        capsys.readouterr()
        monkeypatch.setattr(cli, "MAX_DOCUMENT_BYTES", size - 1)
        assert main(["check", path]) == EXIT_PARSE
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == ("", f"parse error: file: larger than {size - 1} bytes\n")

    @pytest.mark.parametrize(
        "coeff", [True, None, [1], [0] * 10**5, 1.5], ids=["true", "null", "list", "long-list", "float"]
    )
    def test_non_rational_coefficient_exits_three_with_one_line(self, coeff, tmp_path, capsys):
        doc = {**DOC3, "brackets": [{"i": 0, "j": 1, "coeffs": ["0", "0", coeff]}]}
        assert main(["check", write_doc(tmp_path, doc)]) == EXIT_PARSE
        err = capsys.readouterr().err
        assert err.startswith("parse error: brackets[0].coeffs[2]: ") and err.count("\n") == 1
        assert len(err) < 100
        assert ("floating" in err) == isinstance(coeff, float)

    @pytest.mark.parametrize(
        "fields",
        [
            {"epsilon": [[0] * 10**6, 1, 1]},
            {"epsilon": [10**4000, 1, 1]},
            {"dim": 10**4000},
            {"vertical": list(range(10**5))},
            {"vertical": [10**4000]},
            {"horizontal": [1, [0] * 10**6]},
            {"brackets": [{"i": 10**4000, "j": 1, "coeffs": ["0", "0", "0"]}]},
        ],
        ids=["epsilon-list", "epsilon-int", "dim", "vertical-long", "vertical-int", "horizontal", "index"],
    )
    def test_rejected_entry_is_echoed_shortened(self, fields, tmp_path, capsys):
        assert main(["check", write_doc(tmp_path, {**DOC3, **fields})]) == EXIT_PARSE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("parse error: ") and captured.err.count("\n") == 1
        assert len(captured.err) <= 300

    @pytest.mark.parametrize("dim", [MAX_DIM + 1, 3000])
    def test_oversized_document_exits_three_before_building(self, dim, tmp_path, capsys, monkeypatch):
        def no_table(*args, **kwargs):
            raise AssertionError("the bracket table was allocated")

        monkeypatch.setattr(StructureTensor, "from_rows", no_table)
        doc = {"dim": dim, "epsilon": [1], "brackets": [], "vertical": [0], "horizontal": [1, 2]}
        assert main(["check", write_doc(tmp_path, doc)]) == EXIT_PARSE
        err = capsys.readouterr().err
        assert err == f"parse error: dim: must be at most {MAX_DIM}, got {dim}\n"

    def test_epsilon_length_mismatch_exits_three_before_building(self, tmp_path, capsys, monkeypatch):
        def no_table(*args, **kwargs):
            raise AssertionError("the bracket table was allocated")

        monkeypatch.setattr(StructureTensor, "from_rows", no_table)
        doc = {"dim": MAX_DIM, "epsilon": [1], "brackets": [], "vertical": [0], "horizontal": [1, 2]}
        assert main(["check", write_doc(tmp_path, doc)]) == EXIT_PARSE
        err = capsys.readouterr().err
        assert err == f"parse error: epsilon: expected {MAX_DIM} entries, got 1\n"

    @pytest.mark.parametrize(
        "text, key",
        [
            ('{"dim": 3, "dim": 3, "epsilon": [1, 1, 1], "brackets": [], "vertical": [0], "horizontal": [1, 2]}', "'dim'"),
            # json.loads would keep the second list alone: [e0, e1] = e2 classified as abelian.
            ('{"dim": 3, "epsilon": [1, 1, 1], "brackets": [{"i": 0, "j": 1, "coeffs": ["0", "0", "1"], '
             '"coeffs": ["0", "0", "0"]}], "vertical": [0], "horizontal": [1, 2]}', "'coeffs'"),
            ('{"meta": {"%s": 1, "%s": 2}}' % ("k" * 100_000, "k" * 100_000), reprlib.repr("k" * 100_000)),
        ],
        ids=["top-level", "bracket-row", "long-key-in-meta"],
    )
    def test_repeated_key_exits_three_with_one_line(self, text, key, tmp_path, capsys):
        path = tmp_path / "repeated.json"
        path.write_text(text, encoding="utf-8")
        assert main(["check", str(path)]) == EXIT_PARSE
        captured = capsys.readouterr()
        assert captured.err == f"parse error: file: key {key} given more than once in an object\n"
        assert captured.out == ""

    def test_max_dim_document_is_accepted(self, tmp_path, capsys):
        doc = {"dim": MAX_DIM, "epsilon": [1] * MAX_DIM, "brackets": [],
               "vertical": list(range(MAX_DIM - 2)), "horizontal": [MAX_DIM - 2, MAX_DIM - 1]}
        setup, _ = load_document(write_doc(tmp_path, doc))
        assert setup.dim == MAX_DIM

    def test_witnesses_printed(self, tmp_path, capsys):
        setup = build_family(FamilySpec.create("su2", {"b11": 1}, (1, -1, 1, 1, 1)))
        meta = {"basis": ["A", "B", "C", "X", "Y"]}
        path = write_doc(tmp_path, setup_to_document(setup, meta))
        main(["check", path])
        out = capsys.readouterr().out
        assert "totally geodesic: no" in out
        assert "B^V(A, B) = -X" in out


class TestFamilyCommand:
    def test_emitted_document_round_trips_through_check(self, tmp_path, capsys):
        out_path = str(tmp_path / "family.json")
        code = main(
            ["family", "su2xsu2", "--param", "b11=1", "s14=1", "--out", out_path]
        )
        assert code == EXIT_OK
        setup, meta = load_document(out_path)
        assert meta["family"] == "su2xsu2"
        assert meta["theta"]["theta1"] == "0"
        assert main(["check", out_path]) == EXIT_OK

    def test_constraint_violation_exits_four(self, capsys):
        assert main(["family", "su2xso2", "--param", "x1=1", "y2=2"]) == EXIT_CONSTRAINT
        err = capsys.readouterr().err
        assert "x1 = y2" in err

    def test_jacobi_infeasible_params_exit_four(self, capsys):
        code = main(["family", "su2xso2", "--param", "rho=1", "t14=1"])
        assert code == EXIT_CONSTRAINT
        assert "theta4" in capsys.readouterr().err

    def test_unknown_family_exits_three(self, capsys):
        assert main(["family", "so3"]) == EXIT_PARSE

    @pytest.mark.parametrize(
        "params",
        [["x2=" + "9" * 4000], ["x2=" + "9" * 4000, "y1=-" + "9" * 4000, "t14=" + "9" * 4000]],
        ids=["degree-1", "degree-2"],
    )
    def test_huge_circle_residual_exits_four_with_one_short_line(self, params, capsys):
        assert main(["family", "su2xso2", "--param", *params]) == EXIT_CONSTRAINT
        err = capsys.readouterr().err
        assert err.startswith("constraint violation: ") and err.count("\n") == 1 and len(err) <= 300

    def test_empty_epsilon_exits_three_like_empty_signatures(self, capsys):
        assert main(["family", "su2", "--epsilon", ""]) == EXIT_PARSE
        assert capsys.readouterr().err == "error: --epsilon: expected comma-separated +-1 list, got ''\n"
        assert main(["sweep", "su2", "--samples", "1", "--signatures", ""]) == EXIT_PARSE
        assert capsys.readouterr().err == "error: --signatures: expected comma-separated +-1 list, got ''\n"

    def test_epsilon_argument(self, tmp_path):
        out_path = str(tmp_path / "f.json")
        code = main(["family", "su2", "--epsilon", "1,-1,1,1,1", "--out", out_path])
        assert code == EXIT_OK
        setup, _ = load_document(out_path)
        assert setup.frame.epsilon == (1, -1, 1, 1, 1)

    @pytest.mark.parametrize(
        "epsilon", ["\u0661,-\u0661,1,1,1", "1,-1,1,1,1_0", "1,-1,1,1,1.0", "1,-1,,1,1", "1,-1,1,1,2"]
    )
    def test_epsilon_rejects_non_ascii_and_malformed_entries(self, epsilon, capsys):
        assert main(["family", "su2", "--epsilon", epsilon]) == EXIT_PARSE
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1

    def test_epsilon_accepts_signs_and_spaces(self, tmp_path):
        out_path = str(tmp_path / "f.json")
        assert main(["family", "su2", "--epsilon", "+1, -1,1,1,1", "--out", out_path]) == EXIT_OK
        assert load_document(out_path)[0].frame.epsilon == (1, -1, 1, 1, 1)

    def test_bad_param_value_exits_three(self, capsys):
        assert main(["family", "su2", "--param", "b11=0.5"]) == EXIT_PARSE

    def test_over_long_param_exits_three_with_one_line(self, capsys):
        assert main(["family", "su2", "--param", "rho=" + "9" * 5000]) == EXIT_PARSE
        limit = sys.get_int_max_str_digits()
        assert capsys.readouterr().err == (
            f"error: not an exact rational literal: a numeral of more than {limit} digits\n"
        )

    def test_repeated_param_exits_three(self, capsys):
        # Neither value is silently taken, whichever way the name is spaced.
        for values in (["b11=1", "b11=2"], ["b11=1", " b11 = 1"]):
            assert main(["family", "su2", "--param", *values]) == EXIT_PARSE
            captured = capsys.readouterr()
            assert captured.err == "error: --param: parameter 'b11' given more than once\n"
            assert captured.out == ""

    def test_empty_out_path_exits_three(self, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert main(["family", "su2", "--out", ""]) == EXIT_PARSE
        captured = capsys.readouterr()
        assert captured.err == "error: --out: empty output path\n"
        assert captured.out == ""
        assert list(tmp_path.iterdir()) == []

    def test_out_onto_a_fifo_reaches_its_reader(self, tmp_path):
        fifo = tmp_path / "family.fifo"
        data = run_onto_fifo(fifo, ["family", "su2", "--out", str(fifo)])
        assert json.loads(data)["dim"] == 5
        assert stat.S_ISFIFO(fifo.stat().st_mode)
        assert [p.name for p in tmp_path.iterdir()] == ["family.fifo"]

    def test_unwritable_out_exits_three(self, tmp_path, capsys):
        out_path = str(tmp_path / "missing" / "f.json")
        assert main(["family", "su2", "--out", out_path]) == EXIT_PARSE
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1


def run_onto_fifo(fifo, args) -> bytes:
    """Run main(args), whose output path is the new FIFO fifo, with a reader open; the bytes it read.

    The reader opens first, without blocking, so the writer's open does not
    wait; the output is small enough for the pipe buffer.
    """
    os.mkfifo(fifo)
    reader = os.open(fifo, os.O_RDONLY | os.O_NONBLOCK)
    try:
        assert main(args) == EXIT_OK
        chunks = []
        while chunk := os.read(reader, 1 << 16):
            chunks.append(chunk)
    finally:
        os.close(reader)
    return b"".join(chunks)


# Per command: the argv before the output path, and a field of the output with its value.
OUTPUT_RUNS = {
    "family": (["family", "su2", "--out"], "dim", 5),
    "sweep": (["sweep", "su2", "--samples", "1", "--signatures", "riemannian-only", "--json"], "totalCases", 1),
}


class TestOutputThroughSymlink:
    """An output path that is a symlink keeps the link, and its target gets the output."""

    @pytest.mark.parametrize("target_exists", [True, False], ids=["existing-target", "dangling-link"])
    @pytest.mark.parametrize("command", ["family", "sweep"])
    def test_link_stays_and_target_gets_the_output(self, command, target_exists, tmp_path, capsys):
        target, link = tmp_path / "target.json", tmp_path / "link.json"
        if target_exists:
            target.write_text("previous\n")
        link.symlink_to("target.json")
        argv, field, value = OUTPUT_RUNS[command]
        assert main([*argv, str(link)]) == EXIT_OK
        assert link.is_symlink() and os.readlink(link) == "target.json"
        assert json.loads(target.read_text())[field] == value
        assert sorted(p.name for p in tmp_path.iterdir()) == ["link.json", "target.json"]

    @pytest.mark.parametrize("command", ["family", "sweep"])
    def test_symlink_loop_exits_three_and_keeps_the_links(self, command, tmp_path, capsys):
        (tmp_path / "a.json").symlink_to("b.json")
        (tmp_path / "b.json").symlink_to("a.json")
        assert main([*OUTPUT_RUNS[command][0], str(tmp_path / "a.json")]) == EXIT_PARSE
        assert capsys.readouterr().err == f"error: {tmp_path / 'a.json'}: is a symlink loop\n"
        assert sorted((p.name, p.is_symlink()) for p in tmp_path.iterdir()) == [("a.json", True), ("b.json", True)]


class TestOutputNamesADirectory:
    """An output path whose last component is empty, "." or ".." names a directory and exits 3 before any write."""

    @pytest.mark.parametrize("suffix", ["/", "/.", "/.."])
    @pytest.mark.parametrize("command", ["family", "sweep"])
    def test_existing_file_is_left_byte_for_byte(self, command, suffix, tmp_path, capsys, monkeypatch):
        def no_run(config):
            raise AssertionError("sweep ran before the output path was checked")

        monkeypatch.setattr("liefol.cli.run_sweep", no_run)
        monkeypatch.chdir(tmp_path)
        previous = b"previous\x00\xff\n"
        (tmp_path / "data.txt").write_bytes(previous)
        assert main([*OUTPUT_RUNS[command][0], "data.txt" + suffix]) == EXIT_PARSE
        captured = capsys.readouterr()
        assert captured.err == f"error: data.txt{suffix}: names a directory\n"
        assert captured.out == ""
        assert [p.name for p in tmp_path.iterdir()] == ["data.txt"]
        assert (tmp_path / "data.txt").read_bytes() == previous

    @pytest.mark.parametrize("path", ["newdir/", "newdir/.", "sub/newdir/"])
    @pytest.mark.parametrize("command", ["family", "sweep"])
    def test_missing_directory_is_not_created_as_a_file(self, command, path, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "sub").mkdir()
        assert main([*OUTPUT_RUNS[command][0], path]) == EXIT_PARSE
        assert capsys.readouterr().err == f"error: {path}: names a directory\n"
        assert [p.name for p in tmp_path.iterdir()] == ["sub"] and not any((tmp_path / "sub").iterdir())


# Per command: argv without the repeated option, then each single-value option with two values to give it.
REPEATED_OPTIONS = {
    "family": (["family", "su2"], {"--epsilon": ("1,1,1,1,1", "1,-1,1,1,1"), "--out": ("a.json", "a.json")}),
    "sweep": (
        ["sweep", "su2", "--signatures", "riemannian-only"],
        {"--samples": ("1", "2"), "--seed": ("1", "1"), "--range": ("3", "4"), "--json": ("a.json", "b.json")},
    ),
    "counterexample": (
        ["counterexample", "su2", "--samples", "1"],
        {"--seed": ("0", "0"), "--range": ("3", "3"), "--max-print": ("1", "0")},
    ),
}


class TestRepeatedOption:
    """A single-value option given twice exits 3 with one line, whether or not the values differ."""

    @pytest.mark.parametrize(
        "command, option",
        [(command, option) for command, (_, options) in REPEATED_OPTIONS.items() for option in options],
    )
    @pytest.mark.parametrize("spelling", ["separate", "equals"])
    def test_second_occurrence_exits_three_before_the_run(
        self, command, option, spelling, tmp_path, capsys, monkeypatch
    ):
        def no_run(config):
            raise AssertionError("ran with a repeated option")

        monkeypatch.setattr("liefol.cli.run_sweep", no_run)
        monkeypatch.setattr("liefol.cli.find_conjecture_counterexamples", no_run)
        monkeypatch.chdir(tmp_path)
        argv, options = REPEATED_OPTIONS[command]
        given = [
            part for value in options[option]
            for part in ([option, value] if spelling == "separate" else [f"{option}={value}"])
        ]
        assert usage_exit([*argv, *given]) == EXIT_PARSE
        captured = capsys.readouterr()
        assert captured.err == f"error: argument {option}: given more than once\n"
        assert captured.out == ""
        assert list(tmp_path.iterdir()) == []


class TestNegativeFirstCausalCharacter:
    """A signature that starts with -1 may follow its option as a separate argument, as with "="."""

    @pytest.mark.parametrize(
        "argv, separate, equals",
        [
            (["family", "su2", "--param", "b11=1"], ["--epsilon", "-1,1,1,1,1"], ["--epsilon=-1,1,1,1,1"]),
            (
                ["sweep", "su2", "--samples", "2", "--seed", "3"],
                ["--signatures", "1,-1,1,1,1", "-1,1,1,1,-1"],
                ["--signatures=1,-1,1,1,1", "--signatures=-1,1,1,1,-1"],
            ),
            (
                ["counterexample", "su2", "--samples", "5", "--seed", "2"],
                ["--signatures", "-1,1,1,1,1", "--max-print", "1"],
                ["--signatures=-1,1,1,1,1", "--max-print=1"],
            ),
        ],
        ids=["family", "sweep", "counterexample"],
    )
    def test_separate_value_gives_the_equals_output(self, argv, separate, equals, capsys):
        outputs = []
        for given in (separate, equals):
            code = main([*argv, *given])
            outputs.append((code, *capsys.readouterr()))
        assert outputs[0] == outputs[1]
        code, out, err = outputs[0]
        assert code == EXIT_OK and err == "" and out

    def test_option_like_words_are_still_options(self, capsys):
        assert usage_exit(["family", "su2", "--epsilon", "-x"]) == EXIT_PARSE
        assert capsys.readouterr().err == "error: argument --epsilon: expected one argument\n"


class TestSweepCommand:
    def test_summary_and_json(self, tmp_path, capsys):
        json_path = str(tmp_path / "report.json")
        code = main(
            ["sweep", "su2", "--samples", "10", "--seed", "3", "--json", json_path]
        )
        assert code == EXIT_OK
        out = capsys.readouterr().out
        assert "disagreements: 0" in out
        doc = json.loads(open(json_path, encoding="utf-8").read())
        assert doc["totalCases"] == 10 * 32
        assert doc["agreements"] == doc["totalCases"]

    def test_circle_summary_line(self, capsys):
        code = main(["sweep", "su2xso2", "--samples", "5", "--seed", "1"])
        assert code == EXIT_OK
        assert "minimal iff t14 = t24 = 0: confirmed" in capsys.readouterr().out

    def test_unknown_family_exits_three(self, capsys):
        assert main(["sweep", "nope", "--samples", "1"]) == EXIT_PARSE

    def test_unwritable_json_exits_three_before_the_run(self, tmp_path, capsys, monkeypatch):
        def no_run(config):
            raise AssertionError("sweep ran before the output path was checked")

        monkeypatch.setattr("liefol.cli.run_sweep", no_run)
        json_path = str(tmp_path / "missing" / "report.json")
        assert main(["sweep", "su2", "--samples", "1", "--json", json_path]) == EXIT_PARSE
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1

    def test_empty_json_path_exits_three_before_the_run(self, tmp_path, capsys, monkeypatch):
        def no_run(config):
            raise AssertionError("sweep ran before the output path was checked")

        monkeypatch.setattr("liefol.cli.run_sweep", no_run)
        monkeypatch.chdir(tmp_path)
        assert main(["sweep", "su2", "--samples", "1", "--json", ""]) == EXIT_PARSE
        captured = capsys.readouterr()
        assert captured.err == "error: --json: empty output path\n"
        assert captured.out == ""
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("command", ["sweep", "counterexample"])
    def test_repeated_signature_exits_three_before_the_run(self, command, capsys, monkeypatch):
        def no_run(config):
            raise AssertionError("ran with a repeated signature")

        monkeypatch.setattr("liefol.cli.run_sweep", no_run)
        monkeypatch.setattr("liefol.cli.find_conjecture_counterexamples", no_run)
        argv = [command, "su2", "--samples", "2", "--signatures", "1,-1,1,1,1", "1,1,1,1,1", "+1,-1,1,1,1"]
        assert main(argv) == EXIT_PARSE
        captured = capsys.readouterr()
        assert captured.err == "error: fixed signature (1, -1, 1, 1, 1) given more than once\n"
        assert captured.out == ""

    def test_signature_flag(self, capsys):
        code = main(
            ["sweep", "su2", "--samples", "5", "--signatures", "riemannian-only"]
        )
        assert code == EXIT_OK
        assert "signatures per draw: 1" in capsys.readouterr().out

    @pytest.mark.parametrize("signature", ["\u0661,-\u0661,1,1,1", "1,-1,1,1,1_0"])
    def test_signatures_reject_non_ascii_digits_before_the_run(self, signature, capsys, monkeypatch):
        def no_run(config):
            raise AssertionError("sweep ran on a malformed signature")

        monkeypatch.setattr("liefol.cli.run_sweep", no_run)
        assert main(["sweep", "su2", "--samples", "1", "--signatures", signature]) == EXIT_PARSE
        err = capsys.readouterr().err
        assert err.startswith("error: --signatures: ") and err.count("\n") == 1

    def test_sampler_exhaustion_exits_five_with_one_line(self, tmp_path, capsys, monkeypatch):
        # With no rejections allowed, the first infeasible circle draw ends the run.
        monkeypatch.setattr(verifier, "SO2_MAX_ATTEMPTS", 0)
        json_path = str(tmp_path / "report.json")
        code = main(["sweep", "su2xso2", "--samples", "20", "--seed", "1", "--json", json_path])
        assert code == EXIT_SAMPLING
        err = capsys.readouterr().err
        assert err == "sampling error: su2xso2: no feasible circle-family draw in 0 attempts\n"

    def test_failed_run_leaves_no_report_file(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(verifier, "SO2_MAX_ATTEMPTS", 0)
        json_path = tmp_path / "report.json"
        assert main(["sweep", "su2xso2", "--json", str(json_path)]) == EXIT_SAMPLING
        assert not json_path.exists()
        assert list(tmp_path.iterdir()) == []

    def test_report_replaces_an_existing_file_only_after_success(self, tmp_path, capsys, monkeypatch):
        json_path = tmp_path / "report.json"
        json_path.write_text("previous\n")
        monkeypatch.setattr(verifier, "SO2_MAX_ATTEMPTS", 0)
        assert main(["sweep", "su2xso2", "--json", str(json_path)]) == EXIT_SAMPLING
        assert json_path.read_text() == "previous\n"
        monkeypatch.undo()
        assert main(["sweep", "su2", "--samples", "2", "--json", str(json_path)]) == EXIT_OK
        assert json.loads(json_path.read_text())["totalCases"] == 2 * 32
        assert [p.name for p in tmp_path.iterdir()] == ["report.json"]

    def test_directory_as_json_path_exits_three_before_the_run(self, tmp_path, capsys, monkeypatch):
        def no_run(config):
            raise AssertionError("sweep ran before the output path was checked")

        monkeypatch.setattr("liefol.cli.run_sweep", no_run)
        assert main(["sweep", "su2", "--samples", "1", "--json", str(tmp_path)]) == EXIT_PARSE
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1

    def test_json_onto_a_fifo_reaches_its_reader(self, tmp_path, capsys):
        fifo = tmp_path / "report.fifo"
        args = ["sweep", "su2", "--samples", "1", "--signatures", "riemannian-only", "--json", str(fifo)]
        data = run_onto_fifo(fifo, args)
        assert json.loads(data)["totalCases"] == 1
        assert stat.S_ISFIFO(fifo.stat().st_mode)
        assert [p.name for p in tmp_path.iterdir()] == ["report.fifo"]

    def test_deterministic_json_bytes(self, tmp_path):
        p1, p2 = str(tmp_path / "a.json"), str(tmp_path / "b.json")
        main(["sweep", "sl2r", "--samples", "15", "--seed", "11", "--json", p1])
        main(["sweep", "sl2r", "--samples", "15", "--seed", "11", "--json", p2])
        assert open(p1, "rb").read() == open(p2, "rb").read()


class TestSweepReportBytes:
    """Small `sweep --json` reports of every family, pinned byte for byte by sha256."""

    @pytest.mark.parametrize(
        "args, digest",
        [
            ("su2 --samples 8 --signatures all",
             "357cd4346ba7176feba0cc937127a247449a955c058d0c5d6c9575463f8015f4"),
            ("sl2r --samples 8 --signatures all",
             "5c59bd4370ab7e1d3eb2a011bfb6b2f6f718d4d38b8bff914fd693901a077822"),
            ("su2xsu2 --samples 2 --signatures all",
             "fb6aaebb01613b88a638dad01d27eff8f277a56272d0c307ffe45ecfb733cbb4"),
            ("su2xsl2r --samples 2 --signatures all",
             "d5dd5c391c605a86da2ca5a6f169b0cef8e86b2ea534ce2691f83e5d744b8918"),
            ("su2xso2 --samples 8 --signatures all",
             "4f42fec46ce0aba173346d0acd742530d321510fa8c390631a0037dd9e23e36e"),
            ("sl2rxso2 --samples 8 --signatures all",
             "1e51b1a43fa895e4b1a94018e97268e53196244c2d54b55bf5c01b7f21c17586"),
            ("su2xso2 --samples 20 --signatures riemannian-only",
             "6b495716fba85dc226b84666344eb24b3fa74f77910036cc6dfd9455de3ed2db"),
            ("su2 --samples 20 --signatures 1,-1,1,1,1 1,1,1,-1,1",
             "f35dd32483413ba6498f8ac60f78bbecf07a2c06285994fbfe98cf602267d75e"),
        ],
    )
    def test_report_digest(self, args, digest, tmp_path, capsys):
        json_path = tmp_path / "report.json"
        assert main(["sweep", *args.split(), "--seed", "5", "--json", str(json_path)]) == EXIT_OK
        assert hashlib.sha256(json_path.read_bytes()).hexdigest() == digest


class TestCounterexampleCommand:
    def test_split_signature_search(self, capsys):
        code = main(
            [
                "counterexample",
                "su2",
                "--samples",
                "20",
                "--seed",
                "2",
                "--signatures",
                "1,-1,1,1,1",
                "--max-print",
                "1",
            ]
        )
        assert code == EXIT_OK
        out = capsys.readouterr().out
        assert "counterexample 1:" in out
        assert "violated condition" in out
        assert "compact-type vertical: yes" in out

    @pytest.mark.parametrize(
        "args, digest",
        [
            ("su2 --signatures 1,-1,1,1,1 --max-print 3",
             "54b903d78ab769a21ec83d2255010c6876a77cb9aa309c15d8dfd6fc3fed29ac"),
            ("su2xsu2 --samples 3",
             "19550e6028d1557c86bdafa55d64c19e1c878474a519afa3cf5eef7876b3995d"),
        ],
    )
    def test_stdout_digest(self, args, digest, capsys):
        assert main(["counterexample", *args.split()]) == EXIT_OK
        assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == digest

    def test_reverification_failure_exits_one_with_one_line(self, capsys, monkeypatch):
        real = verifier.classify
        monkeypatch.setattr(
            verifier,
            "classify",
            lambda setup, **kwargs: dataclasses.replace(real(setup, **kwargs), conformal=False),
        )
        code = main(["counterexample", "su2", "--samples", "5", "--signatures", "1,-1,1,1,1"])
        assert code == EXIT_DISAGREEMENT
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("re-verification error: su2 params {")
        assert captured.err.count("\n") == 1

    def test_riemannian_none_message(self, capsys):
        code = main(
            ["counterexample", "su2", "--signatures", "riemannian-only", "--samples", "10"]
        )
        assert code == EXIT_OK
        assert "none" in capsys.readouterr().out

    def test_circle_family_exits_three(self, capsys):
        assert main(["counterexample", "su2xso2"]) == EXIT_PARSE
        assert "semisimple" in capsys.readouterr().err

    def test_negative_max_print_exits_three(self, capsys):
        code = main(["counterexample", "su2", "--samples", "2", "--max-print", "-1"])
        assert code == EXIT_PARSE
        captured = capsys.readouterr()
        assert captured.err.startswith("error: --max-print")
        assert captured.out == ""


def usage_exit(argv) -> int:
    """The exit code of a command line that argparse itself ends."""
    with pytest.raises(SystemExit) as exc:
        main(argv)
    return exc.value.code


class TestUsageErrors:
    @pytest.mark.parametrize(
        "argv",
        [
            ["sweep", "su2", "--samples", "\u0662"],
            ["sweep", "su2", "--seed", "1_0"],
            ["sweep", "su2", "--range", "\u0663"],
            ["counterexample", "su2", "--samples", "2_0"],
            ["counterexample", "su2", "--seed", "\u0661"],
            ["counterexample", "su2", "--range", "1.0"],
            ["counterexample", "su2", "--max-print", "\u0661"],
        ],
    )
    def test_integer_options_take_ascii_digits_only(self, argv, capsys, monkeypatch):
        def no_run(config):
            raise AssertionError("ran on a malformed integer option")

        monkeypatch.setattr("liefol.cli.run_sweep", no_run)
        monkeypatch.setattr("liefol.cli.find_conjecture_counterexamples", no_run)
        assert usage_exit(argv) == EXIT_PARSE
        captured = capsys.readouterr()
        option = argv[-2]
        assert captured.err == f"error: argument {option}: expected an ASCII integer, got {argv[-1]!r}\n"
        assert captured.out == ""

    def test_over_long_integer_option_exits_three_with_one_line(self, capsys):
        assert usage_exit(["sweep", "su2", "--seed", "9" * 5000]) == EXIT_PARSE
        limit = sys.get_int_max_str_digits()
        assert capsys.readouterr().err == f"error: argument --seed: an integer of more than {limit} digits\n"

    def test_integer_options_accept_signs(self, capsys):
        assert main(["sweep", "su2", "--samples", "+2", "--seed", "-3", "--range", " 4"]) == EXIT_OK
        assert "total cases: 64" in capsys.readouterr().out

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["sweep", "su2", "--samples", "abc"], "argument --samples: expected an ASCII integer, got 'abc'"),
            (["bogus"], "argument command: invalid choice: 'bogus'"),
            (["check"], "the following arguments are required: path"),
            (["sweep", "su2", "--signatures"], "argument --signatures: expected at least one argument"),
            (["counterexample", "su2", "--signatures"], "argument --signatures: expected at least one argument"),
        ],
        ids=["sweep", "bogus", "check", "sweep-bare-signatures", "counterexample-bare-signatures"],
    )
    def test_usage_errors_exit_three_with_one_line(self, argv, message, capsys):
        assert usage_exit(argv) == EXIT_PARSE
        captured = capsys.readouterr()
        assert captured.err.startswith(f"error: {message}") and captured.err.count("\n") == 1
        assert captured.out == ""

    def test_help_still_exits_zero(self, capsys):
        assert usage_exit(["sweep", "-h"]) == EXIT_OK
        assert capsys.readouterr().out.startswith("usage: liefol sweep")


def exit_code(argv) -> int:
    """The exit code of a command line, whether main returns it or argparse ends the run."""
    try:
        return main(argv)
    except SystemExit as exc:
        return exc.code


HUGE_NAME = "x" * 100_000


class TestArgvEcho:
    @pytest.mark.parametrize("command", ["family", "sweep", "counterexample"])
    def test_causal_character_longer_than_int_conversion_allows(self, command, capsys):
        # int() refuses numerals of more than sys.get_int_max_str_digits() digits (4300 by default).
        value = "1" * (sys.get_int_max_str_digits() + 1) + ",1,1,1,1"
        option = "--epsilon" if command == "family" else "--signatures"
        assert exit_code([command, "su2", option, value]) == EXIT_PARSE
        captured = capsys.readouterr()
        assert captured.err.startswith(f"error: {option}: ") and captured.err.count("\n") == 1
        assert captured.out == ""

    @pytest.mark.parametrize(
        "argv",
        [
            ["family", "su2", "--epsilon", "1,-1,1,1," + "x" * 120_000],
            ["family", HUGE_NAME],
            ["sweep", HUGE_NAME],
            ["family", "su2", "--param", HUGE_NAME],
            ["family", "su2", "--param", HUGE_NAME + "=1"],
            ["family", "su2", "--param", HUGE_NAME + "=1", HUGE_NAME + "=2"],
            ["sweep", "su2", "--samples", "9" + HUGE_NAME],
            [HUGE_NAME],
            ["sweep", "su2", "--signatures", ",".join(["1"] * 60_001)],
            ["family", "su2", "--param", "b11=" + HUGE_NAME],
            ["check", "setup.json", "extra\nlines\n" * 3],
        ],
        ids=[
            "epsilon", "family-name", "sweep-family-name", "param-without-equals", "unknown-param", "repeated-param",
            "integer-option", "unknown-command", "signature-length", "param-value", "unrecognized-with-newlines",
        ],
    )
    def test_rejected_value_is_echoed_shortened(self, argv, capsys):
        assert exit_code(argv) == EXIT_PARSE
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
        assert len(captured.err) <= 300
        assert captured.out == ""


class TestParserReuse:
    def test_main_builds_the_parser_once(self, capsys, monkeypatch):
        built = []

        def counting_build():
            built.append(1)
            return cli.build_parser()

        monkeypatch.setattr(cli, "_parser", functools.cache(counting_build))
        assert main(["family", "su2"]) == EXIT_OK
        assert main(["family", "sl2r"]) == EXIT_OK
        assert len(built) == 1

    def test_consecutive_calls_share_no_parsed_state(self, capsys):
        assert main(["family", "su2", "--param", "b11=1"]) == EXIT_OK
        assert json.loads(capsys.readouterr().out)["meta"]["parameters"]["b11"] == "1"
        assert main(["family", "su2"]) == EXIT_OK
        assert json.loads(capsys.readouterr().out)["meta"]["parameters"]["b11"] == "0"
        assert main(["sweep", "su2", "--samples", "2", "--signatures", "1,-1,1,1,1"]) == EXIT_OK
        assert "signatures per draw: 1\n" in capsys.readouterr().out
        assert main(["sweep", "su2", "--samples", "2"]) == EXIT_OK
        assert "signatures per draw: 32\n" in capsys.readouterr().out
        # The option defaults are still empty after those calls.
        args = cli._parser().parse_args(["sweep", "su2"])
        assert (args.signatures, cli._parser().parse_args(["family", "su2"]).param) == ([], [])
