import itertools
import json
import os
import subprocess
import sys
import textwrap
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from qsvtsim import (
    EmptyCurve,
    algorithms,
    embed_general,
    encoding_to_json,
    matrix_from_json,
    matrix_to_json,
    phase_sequence_from_json,
)
from qsvtsim.block_encoding import _encoding_chunks
from qsvtsim.cli import _write_text, build_parser, curve_csv, emit_svg, main


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_phases_fpsearch_matches_closed_form(capsys, tmp_path):
    out_json = tmp_path / "phases.json"
    code, out, _ = run_cli(
        capsys, "phases", "--family", "fpsearch", "--args", "d=10,delta=0.5",
        "--json", str(out_json),
    )
    assert code == 0
    payload = json.loads(out)
    assert len(payload["phases"]) == 20
    assert payload["phases"][0] == pytest.approx(-1.58023603, abs=1e-6)
    assert json.loads(out_json.read_text()) == payload


def test_phases_emit_response_row_count(capsys, tmp_path):
    csv = tmp_path / "curve.csv"
    code, _, _ = run_cli(
        capsys, "phases", "--family", "fpsearch", "--args", "d=4,delta=0.5",
        "--emit-response", str(csv), "--npts", "400",
    )
    assert code == 0
    lines = csv.read_text().splitlines()
    assert lines[0] == "a,re,im,abs2"
    assert len(lines) == 401


def test_byte_determinism(capsys, tmp_path):
    files = []
    for name in ("a.csv", "b.csv"):
        path = tmp_path / name
        code, _, _ = run_cli(
            capsys, "phases", "--family", "poly_sign", "--args", "d=7,k=4",
            "--emit-response", str(path),
        )
        assert code == 0
        files.append(path.read_bytes())
    assert files[0] == files[1]

    rng = np.random.default_rng(3)
    x = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    h = (x + x.conj().T) / 2
    matrix_file = tmp_path / "h.json"
    matrix_file.write_text(matrix_to_json(h / np.linalg.norm(h, 2)))
    phases_file = tmp_path / "sign.json"
    code, _, _ = run_cli(capsys, "phases", "--family", "poly_sign", "--args", "d=7,k=4",
                         "--json", str(phases_file))
    assert code == 0
    emitted = []
    for run in ("a", "b"):
        hamsim, block = tmp_path / f"hamsim_{run}.json", tmp_path / f"qsvt_{run}.json"
        code, _, _ = run_cli(capsys, "hamsim", "--matrix", str(matrix_file), "--alpha", "1",
                             "--t", "2", "--epsilon", "0.01", "--emit", str(hamsim))
        assert code == 0
        code, _, _ = run_cli(capsys, "qsvt", "--encoding", str(hamsim),
                             "--phases", str(phases_file), "--emit", str(block))
        assert code == 0
        emitted.append((hamsim.read_bytes(), block.read_bytes()))
    assert emitted[0] == emitted[1]


def test_poly_subcommand(capsys, tmp_path):
    csv = tmp_path / "poly.csv"
    code, out, _ = run_cli(
        capsys, "poly", "--family", "invert", "--args", "kappa=2,eps=0.3",
        "--csv", str(csv), "--npts", "50",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["parity"] == "odd"
    assert len(csv.read_text().splitlines()) == 51


def test_response_and_qsvt_round_trip(capsys, tmp_path):
    phases_file = tmp_path / "ph.json"
    code, out, _ = run_cli(capsys, "phases", "--family", "hamsim",
                           "--args", "t=2,eps=0.2,part=cos", "--json", str(phases_file))
    assert code == 0
    seq = phase_sequence_from_json(phases_file.read_text())

    enc_file = tmp_path / "enc.json"
    a = np.diag([0.3, 0.6]).astype(complex)
    enc_file.write_text(encoding_to_json(embed_general(a, 1.0)))
    block_file = tmp_path / "block.json"
    code, out, _ = run_cli(
        capsys, "qsvt", "--encoding", str(enc_file), "--phases", str(phases_file),
        "--emit", str(block_file),
    )
    assert code == 0
    from qsvtsim import families

    block = matrix_from_json(block_file.read_text())
    target = families.family_target("hamsim", {"t": 2.0, "eps": 0.2, "part": "cos"})
    expect = np.diag(target(np.real(np.diag(a))))
    assert np.max(np.abs(block - expect)) <= 1e-6

    csv_file = tmp_path / "resp.csv"
    svg_file = tmp_path / "resp.svg"
    code, _, _ = run_cli(
        capsys, "response", "--phases", str(phases_file), "--npts", "100",
        "--csv", str(csv_file), "--svg", str(svg_file), "--channels", "re,abs2",
    )
    assert code == 0
    assert len(csv_file.read_text().splitlines()) == 101
    svg = svg_file.read_text()
    assert svg.count("<polyline") == 2


def test_qpe_command(capsys):
    code, out, _ = run_cli(capsys, "qpe", "--phi", "0.625", "--n", "3", "--exact")
    assert code == 0
    assert out.splitlines()[0] == "theta=0.625"


def test_search_and_factor_commands(capsys):
    code, out, _ = run_cli(capsys, "search", "--n-qubits", "2", "--marked", "1",
                           "--seed", "5")
    assert code == 0
    assert json.loads(out)["algorithm"] == "search"
    code, out, _ = run_cli(capsys, "factor", "--x", "7", "--modulus", "15", "--seed", "3")
    assert code == 0
    assert out.splitlines()[0] == "order=4"


def test_hamsim_and_invert_commands(capsys, tmp_path):
    h_file = tmp_path / "h.json"
    h_file.write_text(matrix_to_json(np.diag([0.3, 0.7]).astype(complex)))
    code, out, _ = run_cli(capsys, "hamsim", "--matrix", str(h_file), "--alpha", "1.0",
                           "--t", "1.0", "--epsilon", "0.01")
    assert code == 0
    assert json.loads(out.splitlines()[0])["queries"] >= 1

    a_file = tmp_path / "a.json"
    a_file.write_text(matrix_to_json(np.diag([0.5, 1.0]).astype(complex)))
    enc_file = tmp_path / "inv.json"
    code, out, _ = run_cli(capsys, "invert", "--matrix", str(a_file), "--kappa", "2.0",
                           "--epsilon", "0.05", "--emit", str(enc_file))
    assert code == 0
    assert json.loads(out.splitlines()[0])["alpha"] == 4.0


@pytest.fixture(scope="module")
def hamsim_n32():
    """A Hermitian 32x32 matrix and its evolution encoding (dim 256): the
    unitary's lists hold 2^16 entries, two written pieces each."""
    s = np.random.default_rng(32).standard_normal((2, 32, 32))
    g = s[0] + 1j * s[1]
    h = (g + g.conj().T) / 2
    h *= 0.9 / np.linalg.norm(h, 2)
    return h, algorithms.hamiltonian_simulation(h, 1.0, 2.0, 0.01)


def test_emitted_encodings_are_the_codec_bytes(capsys, tmp_path, hamsim_n32, first_difference):
    h, enc = hamsim_n32
    h_file, evo = tmp_path / "h.json", tmp_path / "evo.json"
    h_file.write_text(matrix_to_json(h))
    code, _, _ = run_cli(capsys, "hamsim", "--matrix", str(h_file), "--alpha", "1",
                         "--t", "2", "--epsilon", "0.01", "--emit", str(evo))
    assert code == 0
    assert first_difference(evo.read_bytes(), (encoding_to_json(enc) + "\n").encode()) is None

    a = np.array([[0.8, 0.3, 0.0], [0.0, 0.6, 0.1j], [0.2, 0.0, 0.7]])
    a_file, inv = tmp_path / "a.json", tmp_path / "inv.json"
    a_file.write_text(matrix_to_json(a))
    code, _, _ = run_cli(capsys, "invert", "--matrix", str(a_file), "--kappa", "4",
                         "--epsilon", "0.05", "--emit", str(inv))
    assert code == 0
    expected = encoding_to_json(algorithms.matrix_inversion(a, 4.0, 0.05)) + "\n"
    assert first_difference(inv.read_bytes(), expected.encode()) is None


def test_writing_an_encoding_holds_less_than_its_file(tmp_path, hamsim_n32):
    _, enc = hamsim_n32
    path = tmp_path / "evo.json"
    tracemalloc.start()
    try:
        _write_text(str(path), itertools.chain(_encoding_chunks(enc), ("\n",)))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < path.stat().st_size


@pytest.mark.parametrize("n", [32, 64])
def test_writing_an_average_holds_under_half_its_file(tmp_path, n):
    # U's lists are joined from its first block row, whose word table is
    # dropped before they are written: the traced peak is 0.45 and 0.38 of
    # the file, against 0.86 and 0.78 when every entry was gathered and joined
    s = np.random.default_rng(n).standard_normal((2, n, n))
    g = s[0] + 1j * s[1]
    h = (g + g.conj().T) / 2
    enc = algorithms.hamiltonian_simulation(0.9 * h / np.linalg.norm(h, 2), 1.0, 2.0, 0.01)
    path = tmp_path / "evo.json"
    tracemalloc.start()
    try:
        _write_text(str(path), itertools.chain(_encoding_chunks(enc), ("\n",)))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 0.5 * path.stat().st_size


def test_bad_threshold_state_and_invert_matrix_exit_1(capsys, tmp_path, monkeypatch):
    def no_solve(*args):
        raise AssertionError("phases solved before the input was checked")

    monkeypatch.setattr(algorithms, "_phases", no_solve)
    h_file, psi_file, a_file = (tmp_path / name for name in ("h.json", "psi.json", "a.json"))
    h_file.write_text(matrix_to_json(np.diag([0.2, 0.8])))
    psi_file.write_text(matrix_to_json(np.zeros((2, 1))))
    a_file.write_text(matrix_to_json(np.array([[0.5, 0.0, 0.0], [0.0, 0.5, 0.0]])))
    code, out, err = run_cli(capsys, "threshold", "--matrix", str(h_file), "--psi", str(psi_file),
                             "--alpha", "1", "--lambda-th", "0.5", "--delta-lambda", "0.1",
                             "--exact", "--seed", "0")
    assert (code, out) == (1, "")
    assert err.startswith("error: input state psi has norm 0.0")
    code, out, err = run_cli(capsys, "invert", "--matrix", str(a_file), "--kappa", "30",
                             "--epsilon", "0.01")
    assert (code, out) == (1, "")
    assert err.startswith("error: expected a square matrix, got shape (2, 3)")


def test_threshold_state_of_the_wrong_length_exits_1(capsys, tmp_path, monkeypatch):
    def no_solve(*args):
        raise AssertionError("phases solved before the input was checked")

    monkeypatch.setattr(algorithms, "_phases", no_solve)
    h_file, psi_file = tmp_path / "h.json", tmp_path / "psi.json"
    h_file.write_text(matrix_to_json(np.diag([0.2, 0.8])))
    psi_file.write_text(matrix_to_json(np.ones((3, 1))))
    code, out, err = run_cli(capsys, "threshold", "--matrix", str(h_file), "--psi", str(psi_file),
                             "--alpha", "1", "--lambda-th", "0.5", "--delta-lambda", "0.1",
                             "--exact", "--seed", "0")
    assert (code, out) == (1, "")
    assert err.startswith("error: input state psi has shape (3,)")


def test_qpe_past_the_bit_cap_exits_1(capsys, tmp_path):
    u_file, e_file = tmp_path / "u.json", tmp_path / "e.json"
    u_file.write_text(matrix_to_json(np.eye(8)))
    e_file.write_text(matrix_to_json(np.eye(8)[:, :1]))
    code, out, err = run_cli(capsys, "qpe", "--matrix", str(u_file), "--eigvec", str(e_file),
                             "--n", "100", "--exact")
    assert (code, out) == (1, "")
    assert err == "error: 100 bits: phase estimation takes 1 to the bit cap 53\n"


def test_search_loop_cap_is_a_typed_error(capsys, monkeypatch):
    monkeypatch.setattr(algorithms, "_LOOP_CAP", 1)
    code, out, err = run_cli(capsys, "search", "--n-qubits", "6", "--marked", "1",
                             "--delta", "0.9", "--seed", "4")
    assert (code, out) == (1, "")
    assert err.startswith("error: search loop cap")


def test_parser_built_once():
    assert build_parser() is build_parser()


def test_usage_error_exit_code():
    with pytest.raises(SystemExit) as exc:
        main(["phases"])  # missing required --family
    assert exc.value.code == 2


def test_computation_error_exit_code(capsys, tmp_path):
    code, _, err = run_cli(capsys, "response", "--phases", str(tmp_path / "missing.json"))
    assert code == 1
    assert "error:" in err
    code, _, err = run_cli(capsys, "factor", "--x", "3", "--modulus", "9")
    assert code == 1
    assert "error:" in err


_PHASES = '{"convention": {"basis": "++", "processing": "sz", "signal": "wx"}, "phases": [0, 0]}'


@pytest.mark.parametrize(
    "command, bad_file, bad_text, field",
    [
        ("hamsim", "--matrix", '{"rows": 1, "re": [0.5], "im": [0.0]}', "'cols'"),
        ("hamsim", "--matrix", '[[0.5]]', "must be an object"),
        ("response", "--phases", '{"phases": [0.0, 0.0]}', "'convention'"),
        ("response", "--phases", '{"convention": {"basis": "++", "processing": "sz"}, '
         '"phases": [0]}', "'signal'"),
        ("response", "--phases", _PHASES.replace("[0, 0]", '"x"'), "'phases'"),
        ("qsvt", "--encoding", '{"unitary": {}, "proj_right": {}, "proj_left": {}}', "'rows'"),
    ],
    ids=["no-cols", "not-object", "no-convention", "no-signal", "bad-phases", "no-rows"],
)
def test_malformed_json_input_is_a_typed_error(capsys, tmp_path, command, bad_file,
                                               bad_text, field):
    bad = tmp_path / "bad.json"
    bad.write_text(bad_text)
    phases = tmp_path / "ph.json"
    phases.write_text(_PHASES)
    argv = {
        "hamsim": ["--alpha", "1", "--t", "1", "--epsilon", "0.01"],
        "response": [],
        "qsvt": ["--phases", str(phases)],
    }[command]
    code, _, err = run_cli(capsys, command, bad_file, str(bad), *argv)
    assert code == 1
    assert err.startswith("error:") and field in err


def test_output_dir_override(capsys, tmp_path, monkeypatch):
    monkeypatch.setenv("QSVTSIM_OUTPUT_DIR", str(tmp_path))
    code, _, _ = run_cli(
        capsys, "phases", "--family", "fpsearch", "--args", "d=3,delta=0.5",
        "--json", "out.json",
    )
    assert code == 0
    assert (tmp_path / "out.json").exists()


def test_emit_svg_validation():
    with pytest.raises(EmptyCurve):
        emit_svg([])
    svg = emit_svg([(0.0, 0.1 + 0.2j), (1.0, 0.9 + 0j)], channels=("re", "im", "abs2"))
    assert svg.count("<polyline") == 3
    assert svg == emit_svg([(0.0, 0.1 + 0.2j), (1.0, 0.9 + 0j)], channels=("re", "im", "abs2"))


def test_curve_csv_precision():
    text = curve_csv([(1 / 3, complex(2 / 3, 1 / 7))])
    row = text.splitlines()[1].split(",")
    assert row[0] == format(1 / 3, ".17g")
    assert row[1] == format(2 / 3, ".17g")


def test_seed_mandatory_in_sampled_mode(capsys):
    code, _, err = run_cli(capsys, "search", "--n-qubits", "2", "--marked", "1")
    assert code == 1 and "--seed is mandatory" in err
    code, _, _ = run_cli(capsys, "qpe", "--phi", "0.5", "--n", "2", "--exact")
    assert code == 0  # exact mode needs no seed


def test_all_family_names_reachable(capsys):
    from qsvtsim.families import FAMILY_NAMES

    small_args = {
        "fpsearch": "d=3,delta=0.5",
        "poly_sign": "d=7,k=4",
        "invert": "kappa=1.5,eps=0.4",
        "hamsim": "t=2,eps=0.2",
        "poly_thresh": "d=8,k=4",
        "poly_phase": "d=8,k=4",
        "efilter": "d=10,dlam=0.4",
        "gibbs": "d=8,beta=2",
        "relu": "d=8,delta=0.5,steepness=6",
    }
    for name in FAMILY_NAMES:
        code, out, err = run_cli(
            capsys, "phases", "--family", name, "--args", small_args[name]
        )
        assert code == 0, (name, err)
        assert json.loads(out)["phases"]


@pytest.mark.parametrize(
    "command, family, args, message",
    [
        ("phases", "invert", "kapa=20,eps=0.01", "no argument 'kapa'; it takes kappa=3.0, eps=0.3"),
        ("poly", "invert", "kapa=20", "no argument 'kapa'; it takes kappa=3.0, eps=0.3"),
        ("phases", "fpsearch", "d=3,detla=0.5", "no argument 'detla'; it takes d=10, delta=0.5"),
        (
            "phases", "hamsim", "t=2,part=cosine",
            "part must be cos or sin, got 'cosine'; hamsim takes t=5.0, eps=0.1, part=cos",
        ),
        ("poly", "hamsim", "part=sine", "part must be cos or sin, got 'sine'"),
    ],
    ids=["phases-kapa", "poly-kapa", "fpsearch-detla", "phases-cosine", "poly-sine"],
)
def test_family_arguments_are_checked(capsys, command, family, args, message):
    # a misspelt key or part must not fall back silently to a default
    code, out, err = run_cli(capsys, command, "--family", family, "--args", args)
    assert code == 1 and out == "" and message in err


def test_family_help_lists_every_argument(capsys):
    from qsvtsim.families import family_usage

    for command in ("phases", "poly"):
        with pytest.raises(SystemExit):
            main([command, "--help"])
        text = " ".join(capsys.readouterr().out.split())
        assert family_usage() in text
        assert "invert (kappa=3.0, eps=0.3)" in text
        assert "hamsim (t=5.0, eps=0.1, part=cos)" in text


def test_svg_sign_curve_spans_band(capsys, tmp_path, family_solutions):
    from qsvtsim import response_curve

    _, seq, _ = family_solutions("poly_sign", d=19, k=10.0)
    curve = response_curve(seq, np.linspace(-1, 1, 400))
    reals = [v.real for _, v in curve]
    assert max(reals) - min(reals) >= 1.8
    svg = emit_svg(curve, channels=("re",))
    assert svg.count("<polyline") == 1


def test_runs_without_scipy():
    # with sys.modules["scipy"] = None every scipy import raises, eager or lazy;
    # together these commands reach erf, the Jacobi-Anger coefficients, the
    # truncation root and the log-factorials
    script = textwrap.dedent("""
        import io, sys
        from contextlib import redirect_stdout
        sys.modules["scipy"] = None
        import qsvtsim, qsvtsim.cli
        qsvtsim.inverse_poly(0.1, 2)
        for argv in (
            ["phases", "--family", "hamsim", "--args", "t=5,eps=1e-3"],
            ["phases", "--family", "poly_sign", "--args", "d=61,k=12"],
            ["poly", "--family", "poly_thresh"],
            ["poly", "--family", "poly_phase"],
            ["phases", "--family", "invert", "--args", "kappa=20,eps=0.01"],
        ):
            with redirect_stdout(io.StringIO()):
                code = qsvtsim.cli.main(argv)
            assert code == 0, (argv, code)
    """)
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""))
    proc = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                          text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr[-2000:]
