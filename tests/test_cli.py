import hashlib
import importlib
import json
import subprocess
import sys
from fractions import Fraction

import pytest

from gbgw.cli import main
from gbgw.poly import ParamPoly, u_add, u_scale
from gbgw.series import SparseTensor


def run_cli(args, tmp_path, name):
    out = tmp_path / name
    rc = main(args + ["--out", str(out)])
    return rc, out.read_text() if out.exists() else None


def test_correlators_json_golden(tmp_path):
    rc, text = run_cli(["correlators", "--genus-max", "2", "--weight-max", "1", "--arity-max", "1"],
                       tmp_path, "c.json")
    assert rc == 0
    doc = json.loads(text)
    by_g = {r["g"]: r["value"] for r in doc["records"] if r["mu"] == [1]}
    assert by_g[0] == [[1, "-1/2"]]
    assert by_g[1] == [[0, "1/8"]]
    assert by_g[2] == []


def test_correlators_csv(tmp_path):
    rc, text = run_cli(["correlators", "--genus-max", "1", "--weight-max", "4", "--arity-max", "2",
                        "--format", "csv"], tmp_path, "c.csv")
    assert rc == 0
    lines = text.strip().split("\n")
    assert lines[0] == "g,mu,s_exponent,value"
    assert "0,1;1,1,-1/2" in lines


def test_byte_determinism(tmp_path):
    args = ["verify", "--suite", "eo", "--genus-max", "1", "--arity-max", "2", "--weight-max", "5"]
    rc1, t1 = run_cli(args, tmp_path, "a.json")
    rc2, t2 = run_cli(args, tmp_path, "b.json")
    assert rc1 == rc2 == 0
    assert t1 == t2


def test_json_roundtrip(tmp_path):
    rc, text = run_cli(["npoint", "--pipeline", "virasoro", "--genus-max", "0",
                        "--arity-max", "2", "--weight-max", "6"], tmp_path, "n.json")
    assert rc == 0
    doc = json.loads(text)
    assert json.loads(json.dumps(doc, sort_keys=True)) == doc
    got = {tuple(e["mu"]): e["value"] for e in doc["entries"]}
    assert got[(1, 1)] == [[1, "-1/2"]]
    assert got[(3, 1)] == [[2, "3/8"]]


def test_npoint_pipelines_consistent(tmp_path):
    rc, t_eo = run_cli(["npoint", "--pipeline", "eo", "--genus-max", "1",
                        "--arity-max", "2", "--weight-max", "6"], tmp_path, "eo.json")
    assert rc == 0
    rc, t_vir = run_cli(["npoint", "--pipeline", "virasoro", "--genus-max", "1",
                         "--arity-max", "2", "--weight-max", "6"], tmp_path, "vir.json")
    assert rc == 0
    eo_entries = {tuple(e["mu"]): e["value"] for e in json.loads(t_eo)["entries"]}
    vir_entries = {tuple(e["mu"]): e["value"] for e in json.loads(t_vir)["entries"]}
    for mu, val in vir_entries.items():
        if val and sum(mu) <= 6:
            key = tuple(sorted(mu, reverse=True))
            assert eo_entries.get(key) == val or eo_entries.get(mu) == val, mu


def test_npoint_affine_pipeline(tmp_path):
    rc, text = run_cli(["npoint", "--pipeline", "affine", "--arity-max", "1",
                        "--weight-max", "5"], tmp_path, "aff.json")
    assert rc == 0
    doc = json.loads(text)
    got = {tuple(e["mu"]): e["value"] for e in doc["entries"]}
    # h(1-4u)/16 serialized over (h_exp, u_exp)
    assert got[(1,)] == [[1, 0, "1/16"], [1, 1, "-1/4"]]


def test_affine_csv_rejected(monkeypatch, tmp_path):
    # rejected before the tensor is built: the affine route is never called
    import gbgw.cli as cli

    def computed(*args, **kwargs):
        raise AssertionError("npoint_affine ran")

    monkeypatch.setattr(cli.npoint, "npoint_affine", computed)
    with pytest.raises(SystemExit) as exc:
        main(["npoint", "--pipeline", "affine", "--arity-max", "1", "--weight-max", "3",
              "--format", "csv", "--out", str(tmp_path / "x.csv")])
    assert exc.value.code == 2
    assert not (tmp_path / "x.csv").exists()


@pytest.mark.parametrize("args", [
    ["correlators", "--out", "{tmp}"],
    ["verify", "--suite", "schurq", "--out", "{tmp}/missing/x.json"],
    ["npoint", "--pipeline", "affine", "--format", "csv"],
    ["correlators", "--genus-max", "-1"],
    ["verify", "--window", "0"],
    ["verify", "--u", "1/0"],
])
def test_bad_invocation_exits_2_before_any_work(monkeypatch, tmp_path, capsys, args):
    import gbgw.cli as cli

    def dispatched(cfg):
        raise AssertionError("a command ran")

    for name in ("cmd_correlators", "cmd_verify", "cmd_npoint"):
        monkeypatch.setattr(cli, name, dispatched)
    with pytest.raises(SystemExit) as exc:
        main([a.format(tmp=tmp_path) for a in args])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert err.splitlines()[-1].startswith("gbgw") and ": error: " in err.splitlines()[-1]


@pytest.mark.parametrize("args, option", [
    (["correlators", "--window", "3"], "--window"),
    (["correlators", "--kernel", "typeB"], "--kernel"),
    (["correlators", "--u", "1/4"], "--u"),
    (["verify", "--format", "csv"], "--format"),
    (["npoint", "--pipeline", "eo", "--window", "3"], "--window"),
    (["npoint", "--pipeline", "virasoro", "--kernel", "typeB"], "--kernel"),
    (["npoint", "--pipeline", "affine", "--kernel", "standard"], "--kernel"),
    (["npoint", "--pipeline", "virasoro", "--u", "1/4"], "--u"),
    (["npoint", "--pipeline", "eo", "--u", "symbolic"], "--u"),
    (["npoint", "--pipeline", "affine", "--genus-max", "1"], "--genus-max"),
    (["verify", "--kernel", "typeB"], "--kernel"),
    (["npoint", "--pipeline", "eo", "--kernel", "typeB"], "--kernel"),
])
def test_option_the_command_never_reads_exits_2(monkeypatch, capsys, args, option):
    import gbgw.cli as cli

    def dispatched(cfg):
        raise AssertionError("a command ran")

    for name in ("cmd_correlators", "cmd_verify", "cmd_npoint"):
        monkeypatch.setattr(cli, name, dispatched)
    with pytest.raises(SystemExit) as exc:
        main(args)
    assert exc.value.code == 2
    last = capsys.readouterr().err.splitlines()[-1]
    assert last.startswith("gbgw: error: ") and option in last


def test_affine_npoint_past_its_certified_arity_exits_2(monkeypatch, capsys):
    import gbgw.cli as cli

    ran = []
    monkeypatch.setattr(cli, "cmd_npoint", lambda cfg: ran.append(cfg.arity_max) or 0)
    assert main(["npoint", "--pipeline", "affine", "--arity-max", "4"]) == 0
    with pytest.raises(SystemExit) as exc:
        main(["npoint", "--pipeline", "affine", "--arity-max", "5"])
    assert exc.value.code == 2 and ran == [4]
    assert "certified up to 4 only" in capsys.readouterr().err.splitlines()[-1]
    # the limit is the affine pipeline's own
    assert main(["npoint", "--pipeline", "virasoro", "--arity-max", "5"]) == 0


@pytest.mark.parametrize("args, want", [
    (["npoint", "--pipeline", "affine", "--u", "1/4"], {"u": Fraction(1, 4), "genus_max": 1}),
    (["npoint", "--pipeline", "eo", "--genus-max", "0"], {"genus_max": 0, "u": None}),
    (["npoint", "--pipeline", "virasoro"], {"genus_max": 1, "u": None}),
])
def test_npoint_reads_the_options_of_its_pipeline(monkeypatch, args, want):
    import gbgw.cli as cli

    seen = []
    monkeypatch.setattr(cli, "cmd_npoint", lambda cfg: seen.append(cfg) or 0)
    assert main(args) == 0
    assert {name: getattr(seen[0], name) for name in want} == want


def test_unwritable_out_reports_an_error(monkeypatch, tmp_path, capsys):
    # a write that fails after the work is done exits 2 with one error line
    import errno
    import gbgw.cli as cli

    def full(path, mode):
        raise OSError(errno.ENOSPC, "No space left on device", path)

    monkeypatch.setattr(cli, "open", full, raising=False)
    out = tmp_path / "c.json"
    assert main(["correlators", "--weight-max", "1", "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"error: [Errno 28] No space left on device: '{out}'\n"


def test_each_suite_passes_small(tmp_path):
    for suite in ("schurq", "virasoro", "qsc"):
        rc, text = run_cli(["verify", "--suite", suite, "--genus-max", "1", "--arity-max", "2",
                            "--weight-max", "5", "--window", "10"], tmp_path, f"{suite}.json")
        assert rc == 0, suite
        doc = json.loads(text)
        assert doc["all_passed"] is True


def test_affine_suite_with_quarter_u(tmp_path):
    rc, text = run_cli(["verify", "--suite", "affine", "--weight-max", "5", "--window", "10",
                        "--u", "1/4"], tmp_path, "aq.json")
    assert rc == 0
    doc = json.loads(text)
    names = [c["identity"] for c in doc["checks"]]
    assert any("trivialization" in n for n in names)


def test_usage_error_exit_code():
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--suite", "nonsense"])
    assert exc.value.code == 2


def test_bad_rational_u():
    for bad in ("abc", "1/0"):
        with pytest.raises(SystemExit) as exc:
            main(["verify", "--suite", "schurq", "--u", bad])
        assert exc.value.code == 2


def test_console_script_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "gbgw.cli", "correlators", "--weight-max", "1",
         "--arity-max", "1", "--genus-max", "0"],
        capture_output=True, text=True)
    assert proc.returncode == 0
    assert '"-1/2"' in proc.stdout


def test_verify_under_optimize_flag(tmp_path):
    # the invariants that guard the recursions are raises, which python -O keeps
    outs = []
    for flags in (["-O"], []):
        out = tmp_path / f"verify{len(outs)}.json"
        proc = subprocess.run(
            [sys.executable, *flags, "-m", "gbgw.cli", "verify", "--suite", "all",
             "--weight-max", "5", "--window", "8", "--out", str(out)],
            capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        outs.append(out.read_bytes())
    assert outs[0] == outs[1]


def test_window_below_one_rejected():
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--suite", "virasoro", "--window", "0"])
    assert exc.value.code == 2


def test_npoint_arity_below_one_rejected():
    for pipeline in ("affine", "virasoro", "eo"):
        with pytest.raises(SystemExit) as exc:
            main(["npoint", "--pipeline", pipeline, "--arity-max", "0", "--weight-max", "3"])
        assert exc.value.code == 2, pipeline


def test_eo_suite_fails_on_empty_pair_list(tmp_path):
    rc, text = run_cli(["verify", "--suite", "eo", "--genus-max", "0", "--arity-max", "0"],
                       tmp_path, "empty.json")
    assert rc == 1
    failed = {c["identity"] for c in json.loads(text)["checks"] if c["status"] == "fail"}
    assert failed == {"eo/equivalence-with-virasoro-weight<=9",
                      "eo/residue-vs-coefficient-recursion", "eo/kernel-comparison"}


def test_eo_equivalence_fails_when_nothing_checked(tmp_path):
    # weight 0 admits no index, so every pair checks zero instances
    rc, text = run_cli(["verify", "--suite", "eo", "--genus-max", "1", "--arity-max", "2",
                        "--weight-max", "0"], tmp_path, "w0.json")
    assert rc == 1
    status = {c["identity"]: c["status"] for c in json.loads(text)["checks"]}
    assert status["eo/equivalence-with-virasoro-weight<=0"] == "fail"


def test_eo_suite_compares_the_stored_tables(fresh_caches, monkeypatch, tmp_path):
    # the two EO routes are compared on their stored integer tables: the
    # suite never builds the public coefficient-route tensor or the
    # A-normalization of the residue tensor
    import gbgw.eo as eo

    def unused(*args, **kwargs):
        raise AssertionError("the EO suite read a public tensor it does not compare")

    monkeypatch.setattr(eo, "omega_closed_step", unused)
    monkeypatch.setattr(eo, "normalized", unused)
    rc, text = run_cli(["verify", "--suite", "eo"], tmp_path, "eo.json")
    assert rc == 0
    assert all(c["status"] == "pass" for c in json.loads(text)["checks"])


def test_computational_failure_exit_code(monkeypatch, tmp_path, capsys):
    import gbgw.cli as cli
    from gbgw.npoint import WindowInstabilityError

    def unstable(*args, **kwargs):
        raise WindowInstabilityError("window too small")

    monkeypatch.setattr(cli.npoint, "npoint_affine", unstable)
    rc = main(["npoint", "--pipeline", "affine", "--arity-max", "1", "--weight-max", "3",
               "--out", str(tmp_path / "a.json")])
    assert rc == 1
    assert "WindowInstabilityError" in capsys.readouterr().err


def test_resource_errors_exit_one(monkeypatch, tmp_path, capsys):
    import gbgw.cli as cli

    for exc in (RecursionError("maximum recursion depth exceeded"), MemoryError("out of memory")):
        def failing(*args, exc=exc, **kwargs):
            raise exc

        monkeypatch.setattr(cli.eo, "x_tensor", failing)
        rc = main(["npoint", "--pipeline", "eo", "--out", str(tmp_path / "e.json")])
        assert rc == 1
        assert capsys.readouterr().err == f"error: {type(exc).__name__}: {exc}\n"


def test_npoint_eo_keeps_the_negative_exponent_guard(fresh_caches, tmp_path, capsys):
    # a residue table entry of omega_{2,1} at k = (0,) sits at s-exponent -1
    import gbgw.eo as eo

    eo._omega_cache[(2, 1)] = {(0,): 1}
    rc = main(["npoint", "--pipeline", "eo", "--genus-max", "2", "--arity-max", "1", "--weight-max", "5",
               "--out", str(tmp_path / "e.json")])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ArithmeticError: ")
    assert err.endswith("negative s-exponent -1\n")


def test_poly_refuses_a_generator_it_does_not_keep():
    from gbgw.cli import _poly

    assert _poly(ParamPoly.monomial(Fraction(3, 4), es=2), "s") == [[2, "3/4"]]
    with pytest.raises(ValueError, match="not a polynomial in 's' alone"):
        _poly(ParamPoly.monomial(Fraction(1), eh=1, es=2), "s")


def test_span_stability_fails_when_nothing_compared(monkeypatch, tmp_path):
    import gbgw.cli as cli

    def empty(k_max, depth):
        return {"p_ok": True, "q_ok": True, "failures": [], "p_checked": 0, "q_checked": 0}

    monkeypatch.setattr(cli.quantum, "verify_ks", empty)
    rc, text = run_cli(["verify", "--suite", "qsc", "--window", "4"], tmp_path, "qsc.json")
    assert rc == 1
    checks = {c["identity"]: c for c in json.loads(text)["checks"]}
    assert checks["qsc/span-stability"]["detail"] == "no instance checked"


def test_span_stability_fails_at_window_one(tmp_path):
    # window 1 leaves k_max = 0: only P(PhiB_0) at z^-1, where both sides are 0
    rc, text = run_cli(["verify", "--suite", "qsc", "--window", "1"], tmp_path, "qsc.json")
    assert rc == 1
    checks = {c["identity"]: c for c in json.loads(text)["checks"]}
    assert checks["qsc/span-stability"]["status"] == "fail"
    assert checks["qsc/span-stability"]["detail"] == "no instance checked"


@pytest.mark.parametrize("window", ["1", "2"])
def test_closed_vs_direct_fails_when_nothing_compared(tmp_path, window):
    # window 1 leaves the direct window empty; window 2 leaves only the
    # structural constant -1/4 of At, which is not an entry of A
    rc, text = run_cli(["verify", "--suite", "affine", "--window", window, "--weight-max", "3"],
                       tmp_path, "affine.json")
    assert rc == 1
    checks = {c["identity"]: c for c in json.loads(text)["checks"]}
    assert checks["affine/generating-series-closed-vs-direct"]["detail"] == "no instance checked"


@pytest.mark.parametrize("weight", ["0", "1"])
def test_virasoro_checks_fail_when_nothing_compared(tmp_path, weight):
    # weight <= 1 admits no two-point entry and no partition with two parts
    rc, text = run_cli(["verify", "--suite", "virasoro", "--weight-max", weight], tmp_path, "v.json")
    assert rc == 1
    checks = {c["identity"]: c for c in json.loads(text)["checks"]}
    for name in ("virasoro/two-point-closed-form", "virasoro/distinguished-part-independence"):
        assert checks[name]["detail"] == "no instance checked", name


@pytest.mark.parametrize("args, digest", [
    (["correlators", "--genus-max", "4", "--arity-max", "4", "--weight-max", "17"],
     "6c3073d150899b06449beef87f927595a1ae3028adab2a0932dbd666d4ae8a31"),
    (["npoint", "--pipeline", "eo", "--genus-max", "3", "--arity-max", "4", "--weight-max", "13"],
     "d48032ab30b7531266c3f99469b6c68e767e1ac80f6c8c83fd43d3d90f61ecc4"),
    (["verify", "--suite", "eo", "--genus-max", "3", "--arity-max", "4", "--weight-max", "13"],
     "897ad47672bdade4a2840882519bfedaafd0856b4b2b7f6dcded8570eb0ac910"),
    (["verify", "--suite", "all", "--u", "1/4"],
     "16e41ed81dcadbf5a5fdab29b97912f0f5632ba08207c73cef8db48cecd47187"),
    (["correlators", "--genus-max", "4", "--arity-max", "4", "--weight-max", "21"],
     "2c16349bdbd2fb83a29f549da1d6aa8f6b9e76230bc7d56b2007b4667b59420c"),
    (["npoint", "--pipeline", "affine", "--arity-max", "3", "--weight-max", "9"],
     "f25983ca00a762fa52dbb39ee5766a2faffec4a4a04b4fe9085af3e2b58e35ff"),
    (["verify", "--suite", "all", "--weight-max", "5", "--window", "12"],
     "dca7af288cfb8c3e443038be12c27bc4425a83ab9aec295902529407c3e2869d"),
    (["correlators", "--genus-max", "4", "--arity-max", "4", "--weight-max", "9", "--format", "csv"],
     "6e25c308a7b6ee149aa8600292f51d5e24b7f92fcbe071195c25e46863ca76af"),
    (["npoint", "--pipeline", "eo", "--genus-max", "3", "--arity-max", "4", "--weight-max", "13",
      "--format", "csv"],
     "b619816e1af88cc0388877d4fa0310bbee762b70684dfdb75c95f2da8b2c4523"),
    (["npoint", "--pipeline", "virasoro", "--genus-max", "2", "--arity-max", "3", "--weight-max", "13",
      "--format", "csv"],
     "8b5b9ee0425e45af32af2116967c4b1eec91c4fbef54871d5fbf35ad37ed5ddc"),
    # the eo pipeline's (0,1) and (0,2) closed forms, and an odd arity, where (-1)^n shows
    (["npoint", "--pipeline", "eo", "--genus-max", "0", "--arity-max", "1", "--weight-max", "15"],
     "a3d828676a839856bdb89a889ffd5946ce82adaab7fd279d4d95774b5b13cf3b"),
    (["npoint", "--pipeline", "eo", "--genus-max", "0", "--arity-max", "2", "--weight-max", "14"],
     "b9aa996a3faaa86dd404f16109f84db616394fe9d747fef5ba3e4b8995749ac6"),
    (["npoint", "--pipeline", "eo", "--genus-max", "1", "--arity-max", "3", "--weight-max", "13",
      "--format", "csv"],
     "9d3bf26b651bfaef80f8c5e072a8b2623fb196295f1eea8744e57bcab657a6fa"),
])
def test_out_bytes_are_pinned(tmp_path, args, digest):
    # the --out bytes of these commands are fixed; a faster table must not move them
    out = tmp_path / "out.json"
    assert main(args + ["--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


def _report_lines(err):
    """[(status, checked, identity, seconds)] from verify's stderr.

    The identity and the seconds are read the way bench/checks.py and
    bench/run.py read them: after "] " up to the last " (", and inside the
    last "(...s)".
    """
    out = []
    for line in err.splitlines():
        if line.startswith("  ["):
            status, checked = line[3:].split("] ", 1)[0].split(", ")
            out.append((status, int(checked.removesuffix(" checked")),
                        line.split("] ", 1)[1].rsplit(" (", 1)[0], float(line.rsplit("(", 1)[1][:-2])))
    return out


def _registry_names(args):
    from gbgw.cli import CHECKS, build_parser

    cfg = build_parser().parse_args(["verify", *args])
    return [name for name in (identity(cfg) for _, identity, _ in CHECKS) if name is not None]


# Every registered check, by its identity at default bounds: verify arguments
# and either None (the check compares nothing there, so it must fail) or the
# size of the fixed range it compares there.
REGISTRY_CASES = {
    "schur-q/pfaffian-vs-closed-weight<=9": (["--weight-max", "0"], None),
    "affine/wronskian-suite-order-20": (["--weight-max", "3", "--window", "8"], 4),
    "affine/pfaffian-vs-expansion-weights": (["--weight-max", "0", "--window", "8"], None),
    "affine/generating-series-closed-vs-direct": (["--weight-max", "3", "--window", "2"], None),
    "affine/cycle-sum-vs-virasoro-bridge-weight<=9": (["--arity-max", "0", "--window", "8"], None),
    "affine/trivialization-at-u=1/4": (["--u", "1/4", "--weight-max", "3", "--window", "8"], 83),
    "virasoro/one-point-closed-form": (["--weight-max", "5"], 3),
    "virasoro/two-point-closed-form": (["--weight-max", "1"], None),
    "virasoro/distinguished-part-independence": (["--weight-max", "1"], None),
    "virasoro/special-deformation": (["--weight-max", "0"], 20),  # nu = () at e = -1..-20
    "eo/closed-form-invariants": (["--genus-max", "1", "--arity-max", "3", "--weight-max", "3"], 2),
    "eo/equivalence-with-virasoro-weight<=9": (["--weight-max", "0"], None),
    "eo/residue-vs-coefficient-recursion": (["--genus-max", "0", "--arity-max", "0"], None),
    "eo/kernel-comparison": (["--genus-max", "1", "--arity-max", "1"], None),
    "qsc/annihilation-through-20": (["--window", "4"], 5),  # z^-1 .. z^-5
    "qsc/canonical-commutator": (["--window", "4"], 21),
    "qsc/span-stability": (["--window", "1"], None),
    "qsc/semiclassical-factorization": (["--window", "4"], 75),  # the (z, p, s) grid
}


def test_registry_cases_cover_every_check():
    # a new check with no vacuity case or no planted defect here fails this test
    assert _registry_names(["--u", "1/4"]) == list(REGISTRY_CASES) == list(DEFECT_CASES)
    assert _registry_names([]) == [name for name in DEFECT_CASES
                                   if name != "affine/trivialization-at-u=1/4"]


@pytest.mark.parametrize("default_name", list(REGISTRY_CASES))
def test_registered_check_fails_on_nothing_or_counts_its_range(tmp_path, capsys, default_name):
    from gbgw.cli import CHECKS

    args, size = REGISTRY_CASES[default_name]
    index = _registry_names(["--u", "1/4"]).index(default_name)
    suite = CHECKS[index][0]
    rc, text = run_cli(["verify", "--suite", suite, *args], tmp_path, "v.json")
    name = _registry_names(["--u", "1/4", *args])[index]
    check = next(c for c in json.loads(text)["checks"] if c["identity"] == name)
    status, checked = next((s, c) for s, c, ident, _ in _report_lines(capsys.readouterr().err)
                           if ident == name)
    if size is None:
        assert rc == 1
        assert (check["status"], check["detail"], status, checked) == (
            "fail", "no instance checked", "FAIL", 0)
    else:
        assert (check["status"], status, checked) == ("pass", "pass", size)


# The checked count of every check of verify --suite all, in registry order
CHECKED_COUNTS = {
    (): [32, 4, 32, 108, 20, 5, 10, 51, 1120, 2, 90, 7, 6, 21, 21, 539, 75],
    ("--weight-max", "5", "--window", "12"): [9, 4, 9, 60, 9, 3, 3, 15, 240, 2, 24, 7, 6, 13, 21, 203, 75],
}


@pytest.mark.parametrize("args", [list(key) for key in CHECKED_COUNTS])
def test_stderr_report_matches_out(tmp_path, capsys, args):
    # the benchmark reads each check's identity and seconds from this line
    rc, text = run_cli(["verify", "--suite", "all", *args], tmp_path, "all.json")
    assert rc == 0
    lines = _report_lines(capsys.readouterr().err)
    identities = [c["identity"] for c in json.loads(text)["checks"]]
    assert [ident for _, _, ident, _ in lines] == identities == _registry_names(args)
    assert all(status == "pass" for status, _, _, _ in lines)
    assert [checked for _, checked, _, _ in lines] == CHECKED_COUNTS[tuple(args)]


def _failed(text):
    return {c["identity"]: c["detail"] for c in json.loads(text)["checks"] if c["status"] == "fail"}


class Prefix(str):
    """An expected detail that the reported detail need only start with."""


def _wrap(target, edit):
    """A plant: every result of the function at ``target`` ("module.name" in
    gbgw) passes through edit(result, *args) on its way to the caller."""
    module, name = f"gbgw.{target}".rsplit(".", 1)

    def plant(monkeypatch):
        real = getattr(importlib.import_module(module), name)
        monkeypatch.setattr(f"gbgw.{target}", lambda *args, **kw: edit(real(*args, **kw), *args, **kw))
    plant.__name__ = target
    return plant


def _doubled(p):
    return ParamPoly({key: 2 * q for key, q in p.terms.items()})


def _closed_entry(monkeypatch):
    # one stored (1,2) entry of the coefficient route off by one
    import gbgw.eo as eo

    planted = dict(eo._closed(1, 2))
    planted[(0, 0)] += 1
    monkeypatch.setitem(eo._closed_cache, (1, 2), planted)


# Every registered check, by its identity at default bounds: the defects
# planted into the code it checks (never into the check), each a row
# (plant, verify arguments, {identity: detail} of every check that must
# fail).  Every other check must pass; a Prefix detail is compared as a prefix.
DEFECT_CASES = {
    "schur-q/pfaffian-vs-closed-weight<=9": [
        (_wrap("schurq.Q_delta_closed", lambda q, parts: q + (1 if parts == (3, 1) else 0)),
         ["--suite", "schurq", "--weight-max", "5"],
         {"schur-q/pfaffian-vs-closed-weight<=5": "mismatch at (3, 1)"}),
    ],
    "affine/wronskian-suite-order-20": [
        # phi1 off at z^-3; the closed form of the generating series reads the same basis
        (_wrap("affine._int_basis", lambda b, T: (b[0], {**b[1], -3: u_add(b[1][-3], (b[0],))}, *b[2:])),
         ["--suite", "affine", "--weight-max", "3", "--window", "8"],
         {"affine/wronskian-suite-order-8":
          "{'wronskian_2z': False, 'det_g_one': False, 'phi1_ode': False, 'phi2_from_phi1': False}",
          "affine/generating-series-closed-vs-direct":
          "exception: nonzero remainder dividing by (w + x): convention bug"}),
    ],
    "affine/pfaffian-vs-expansion-weights": [
        # a_{2,1} and a_{1,2} doubled change the Pfaffian of lambda = (2, 1) only;
        # the direct generating series and the cycle sums read the same coordinates
        (_wrap("affine.affine_coeff", lambda rp, n, m: (2 * rp[0], rp[1]) if {n, m} == {1, 2} else rp),
         ["--suite", "affine", "--weight-max", "3", "--window", "8"],
         {"affine/pfaffian-vs-expansion-weights": "mismatch at (2, 1)",
          "affine/generating-series-closed-vs-direct": "A mismatch at (-2, -1)",
          "affine/cycle-sum-vs-virasoro-bridge-weight<=3": "1 mismatches of 6"}),
    ],
    "affine/generating-series-closed-vs-direct": [
        # the quotient of the closed form off by one at (-2, -3): + 1 to its
        # packed entry is + 1 to the constant u-coefficient; the v-part
        # quotient (no wx) is left alone
        (_wrap("affine._antisym_quotient", lambda qb, p1, p2, T, wx=0:
               ({**qb[0], (-2, -3): qb[0].get((-2, -3), 0) + 1}, qb[1]) if wx else qb),
         ["--suite", "all"],
         {"affine/generating-series-closed-vs-direct": "A mismatch at (-2, -3)"}),
    ],
    "affine/cycle-sum-vs-virasoro-bridge-weight<=9": [
        # every bridge value has h-degree |mu| > 0, so + 1 is a new constant term
        (_wrap("npoint.bridge", lambda v, mu, u_value=None:
               ParamPoly({**v.terms, (0, 0, 0, 0): Fraction(1)}) if tuple(mu) == (3, 1) else v),
         ["--suite", "all"],
         {"affine/cycle-sum-vs-virasoro-bridge-weight<=9": "1 mismatches of 20"}),
    ],
    "affine/trivialization-at-u=1/4": [
        # a_{2,3} + 1 does not vanish at u = 1/4; weight 3 keeps it out of the
        # Pfaffians and the cycle sums, and the direct generating series reads it.
        # With r = num / den, r P + 1 = (num P + den) / den at h = 1
        (_wrap("affine.affine_coeff", lambda rp, n, m: (
            Fraction(1, rp[0].denominator), u_add(u_scale(rp[1], rp[0].numerator), (rp[0].denominator,)))
            if (n, m) == (2, 3) else rp),
         ["--suite", "affine", "--u", "1/4", "--weight-max", "3", "--window", "8"],
         {"affine/trivialization-at-u=1/4": "a[2,3] nonzero",
          "affine/generating-series-closed-vs-direct": "A mismatch at (-2, -3)"}),
    ],
    "virasoro/one-point-closed-form": [
        (_wrap("correlators.one_point_closed", lambda p, n: _doubled(p) if n == 2 else p),
         ["--suite", "virasoro", "--weight-max", "5"],
         {"virasoro/one-point-closed-form": "n=2"}),
    ],
    "virasoro/two-point-closed-form": [
        # one entry missing from the table: the check reads every closed-form entry
        (_wrap("correlators.wgn", lambda t, g, n, w:
               SparseTensor(n, {key: v for key, v in t.coeffs.items() if key != (-4, -2)})),
         ["--suite", "virasoro", "--weight-max", "5"],
         {"virasoro/two-point-closed-form": "mismatch at (-4, -2)"}),
    ],
    "virasoro/distinguished-part-independence": [
        # every step that distinguishes a part other than the largest is off by one
        (_wrap("correlators._expand", lambda c, g, parts, pick: c + (1 if pick > 0 else 0)),
         ["--suite", "all"],
         {"virasoro/distinguished-part-independence":
          "exception: <p_(1, 1)>_2 = 1/64 at negative s-exponent -1"}),
    ],
    "virasoro/special-deformation": [
        (_wrap("correlators._dF0_series", lambda out, nu, xlo:
               {**out, -4: out.get(-4, 0) + 1} if nu == (1,) else out),
         ["--suite", "all"],
         {"virasoro/special-deformation":
          "[((1,), -4, Fraction(-2, 1)), ((1,), -6, Fraction(-1, 1)), ((1,), -8, Fraction(1, 4))]"}),
    ],
    "eo/closed-form-invariants": [
        # the public omega_{1,1} broken; the kernel comparison skips (1, 1), so
        # it needs arity 2 to have the pair (1, 2) to compare, and reads no
        # omega table; the comparison of the two routes reads the stored tables
        (_wrap("eo.omega", lambda t, g, n:
               SparseTensor(1, {(0,): ParamPoly.const(Fraction(1, 3))}) if (g, n) == (1, 1) else t),
         ["--suite", "eo", "--genus-max", "1", "--arity-max", "2", "--weight-max", "3"],
         {"eo/closed-form-invariants": "omega_{1,1}"}),
    ],
    "eo/equivalence-with-virasoro-weight<=9": [
        # the weight of a shift 0 -> 1 of one index off by one; the other EO
        # checks never read the flat-coordinate transform
        (_wrap("eo._flat_weights", lambda rows, lmax:
               [[w + 1 if (k, m) == (0, 1) else w for m, w in enumerate(row)] for k, row in enumerate(rows)]),
         ["--suite", "eo", "--genus-max", "3", "--arity-max", "4", "--weight-max", "13"],
         {"eo/equivalence-with-virasoro-weight<=13": Prefix("(0,3): [((0, 0, 1), ")}),
        # both EO routes solve only the orbits that eo._orbits lists, so a
        # defect there moves both alike and only the Virasoro equivalence can
        # see it.  The orbits at sum == total are dropped where total > 0; the
        # one (0,3) orbit, at total 0, stays, since the coefficient route seeds
        # (0,3) and would differ there.  (1,2) loses its orbit (2,)
        (_wrap("eo._orbits", lambda orbits, length, total, top:
               [kk for kk in orbits if sum(kk) < total or not total]),
         ["--suite", "all"],
         {"eo/equivalence-with-virasoro-weight<=9": Prefix("(1,2): [((0, 2), ")}),
        # both EO routes read every sub-table through eo._grouped.  Both store
        # omega_{1,1} as {(0,): -1, (1,): 1}; its grouped view off by one at
        # k_0 = 1 moves both routes alike, so their comparison cannot see it.
        # The closed-form check reads the public omega_{1,1} and omega_{0,3},
        # neither built from that view, and the kernel comparison reads the
        # omega_{0,2} stream, so neither can; only the Virasoro equivalence
        # sees (1,2) move
        (_wrap("eo._grouped", lambda out, table, shift=0:
               {**out, (): [(j, v + (j == 1 + shift)) for j, v in out[()]]}
               if table == {(0,): -1, (1,): 1} else out),
         ["--suite", "all"],
         {"eo/equivalence-with-virasoro-weight<=9":
          "(1,2): [((0, 1), Fraction(-21, 16), Fraction(-15, 16)), "
          "((0, 2), Fraction(275, 64), Fraction(175, 64))]"}),
    ],
    "eo/residue-vs-coefficient-recursion": [
        (_closed_entry,
         ["--suite", "eo", "--genus-max", "1", "--arity-max", "3", "--weight-max", "5"],
         {"eo/residue-vs-coefficient-recursion": "(1,2)"}),
    ],
    "eo/kernel-comparison": [
        # the type-B omega_{0,2} stream off by one at z^2: the recursion never
        # reads it, so only the kernel comparison can see it
        (_wrap("eo._omega02_streams", lambda streams, top:
               {**streams, "typeB": [(m, v + 1 if m == 2 else v) for m, v in streams["typeB"]]}),
         ["--suite", "all"],
         {"eo/kernel-comparison":
          "[(0, 3, 'typeB'), (1, 2, 'typeB'), (1, 3, 'typeB'), (2, 1, 'typeB'), (2, 2, 'typeB'), "
          "(2, 3, 'typeB')]"}),
        # omega_{0,2} off by one at k = 1 where the bracket reads it: the residue
        # tables above (0,3) move with it, so the checks that read them fail too;
        # omega_{0,3} reads only k = 0, so its closed form still holds
        (_wrap("eo._factor", lambda f, gf, nf, top: {**f, (1,): [(-1, 4)]} if (gf, nf) == (0, 1) else f),
         ["--suite", "all"],
         {"eo/equivalence-with-virasoro-weight<=9":
          "(1,2): [((0, 1), Fraction(-19, 16), Fraction(-15, 16)), "
          "((0, 2), Fraction(215, 64), Fraction(175, 64))]",
          "eo/residue-vs-coefficient-recursion": "(1,2)",
          "eo/kernel-comparison": Prefix(
              "[(0, 3, 'standard, sigma=+1'), (0, 3, 'standard, sigma=-1'), (0, 3, 'typeB'), ")}),
    ],
    "qsc/annihilation-through-20": [
        # PhiB_0 off by one at z^-3; P moves the defect to z^-4 and z^-5, and
        # span stability reads the same basis
        (_wrap("quantum._basis", lambda b, k, depth:
               (b[0], {**b[1], -3: u_add(b[1][-3], (b[0],))}) if k == 0 else b),
         ["--suite", "qsc", "--window", "4"],
         {"qsc/annihilation-through-4": "[-4, -5]",
          "qsc/span-stability":
          "[('P', 0, [-4]), ('Q', 0, [-3, -2]), ('P', 1, [-3]), ('Q', 1, [-3]), ('P', 2, [-3]), "
          "('Q', 2, [-3])]"}),
    ],
    "qsc/canonical-commutator": [
        # a pruned z^k entry must fail the check, not pass it vacuously
        (_wrap("quantum.commutator_on_monomial", lambda terms, k:
               [(e, v) for e, v in terms if (e, k) != (3, 3)]),
         ["--suite", "qsc", "--window", "4"],
         {"qsc/canonical-commutator": "k=3: no z^k entry"}),
    ],
    "qsc/span-stability": [
        # PhiB_2 off by one at z^-3; the annihilation check reads PhiB_0 only
        (_wrap("quantum._basis", lambda b, k, depth:
               (b[0], {**b[1], -3: u_add(b[1].get(-3, ()), (1,))}) if k == 2 else b),
         ["--suite", "all"],
         {"qsc/span-stability":
          "[('Q', 1, [-3]), ('P', 2, [-5, -4]), ('Q', 2, [-2]), ('P', 3, [-3]), ('P', 4, [-3])]"}),
    ],
    "qsc/semiclassical-factorization": [
        # -1/16 in place of -1/32 at z^(k-2) of P(z^k): only the classical limit reads p_monomial
        (_wrap("quantum.p_monomial", lambda terms, k: [terms[0], (terms[1][0], _doubled(terms[1][1]))]),
         ["--suite", "qsc", "--window", "4"],
         {"qsc/semiclassical-factorization":
          "{'shift_matches_curve': False, 'factor_product': False}"}),
    ],
}


@pytest.mark.parametrize("default_name, plant, args, want", [
    pytest.param(name, *case, id=f"{name}:{case[0].__name__}")
    for name, cases in DEFECT_CASES.items() for case in cases])
def test_planted_defect(fresh_caches, monkeypatch, tmp_path, default_name, plant, args, want):
    plant(monkeypatch)
    rc, text = run_cli(["verify", *args], tmp_path, "v.json")
    assert rc == 1
    # the check a row is keyed by, named at the row's bounds, is one that fails
    assert _registry_names(["--u", "1/4", *args])[list(DEFECT_CASES).index(default_name)] in want
    failed = _failed(text)
    assert {name: detail[:len(want[name])] if isinstance(want.get(name), Prefix) else detail
            for name, detail in failed.items()} == want
