import hashlib
import json
import subprocess
import sys
from fractions import Fraction

import pytest

from gbgw.cli import main


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


def test_verify_failure_exit_code(monkeypatch, tmp_path):
    # force a failure by breaking one golden value; the kernel comparison
    # skips (1, 1), so it needs arity 2 to have the pair (1, 2) to compare,
    # and it reads no omega table, so it passes
    import gbgw.cli as cli
    from gbgw.poly import ParamPoly
    from gbgw.series import SparseTensor

    real = cli.eo.omega

    def broken(g, n):
        if (g, n) == (1, 1):
            return SparseTensor(1, {(0,): ParamPoly.const(Fraction(1, 3))})
        return real(g, n)

    monkeypatch.setattr(cli.eo, "omega", broken)
    rc, text = run_cli(["verify", "--suite", "eo", "--genus-max", "1", "--arity-max", "2",
                        "--weight-max", "3"], tmp_path, "f.json")
    assert rc == 1
    assert _failed(text) == {"eo/closed-form-invariants": "omega_{1,1}",
                             "eo/residue-vs-coefficient-recursion": "(1,1)"}


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


def test_span_stability_fails_when_nothing_compared(monkeypatch, tmp_path):
    import gbgw.cli as cli

    def empty(k_max, depth):
        return {"p_ok": True, "q_ok": True, "failures": [], "p_checked": 0, "q_checked": 0}

    monkeypatch.setattr(cli.quantum, "verify_ks", empty)
    rc, text = run_cli(["verify", "--suite", "qsc", "--window", "4"], tmp_path, "qsc.json")
    assert rc == 1
    checks = {c["identity"]: c for c in json.loads(text)["checks"]}
    assert checks["qsc/span-stability"]["detail"] == "no instance checked"


def test_coefficient_recursion_check_fails_on_a_planted_entry(monkeypatch, tmp_path):
    # one stored (1,2) entry off by one, and (1,3) rebuilt from it
    import gbgw.eo as eo

    planted = dict(eo._closed(1, 2))
    planted[(0, 0)] += 1
    monkeypatch.setitem(eo._closed_cache, (1, 2), planted)
    monkeypatch.delitem(eo._closed_cache, (1, 3), raising=False)
    rc, text = run_cli(["verify", "--suite", "eo", "--genus-max", "1", "--arity-max", "3",
                        "--weight-max", "5"], tmp_path, "eo.json")
    assert rc == 1
    checks = {c["identity"]: c for c in json.loads(text)["checks"]}
    assert checks["eo/residue-vs-coefficient-recursion"]["status"] == "fail"
    assert checks["eo/residue-vs-coefficient-recursion"]["detail"] == "(1,2)"


def test_equivalence_check_fails_on_a_planted_flat_weight(monkeypatch, tmp_path):
    # the weight of a shift 0 -> 1 of one index off by one; the other EO
    # checks never read the flat-coordinate transform
    import gbgw.cli as cli

    real = cli.eo._flat_weights

    def planted(lmax, sign):
        rows = real(lmax, sign)
        rows[0][1] += 1
        return rows

    monkeypatch.setattr(cli.eo, "_flat_weights", planted)
    rc, text = run_cli(["verify", "--suite", "eo", "--genus-max", "3", "--arity-max", "4",
                        "--weight-max", "13"], tmp_path, "eo.json")
    assert rc == 1
    failed = _failed(text)
    assert set(failed) == {"eo/equivalence-with-virasoro-weight<=13"}
    assert failed["eo/equivalence-with-virasoro-weight<=13"].startswith("(0,3): [((0, 0, 1), ")


def test_commutator_check_needs_the_z_k_entry(monkeypatch, tmp_path):
    # a pruned z^k entry must fail the check, not pass it vacuously
    import gbgw.cli as cli

    real = cli.quantum.commutator_on_monomial

    def pruned(k):
        return [(e, v) for e, v in real(k) if (e, k) != (3, 3)]

    monkeypatch.setattr(cli.quantum, "commutator_on_monomial", pruned)
    rc, text = run_cli(["verify", "--suite", "qsc", "--window", "4"], tmp_path, "qsc.json")
    assert rc == 1
    checks = {c["identity"]: c for c in json.loads(text)["checks"]}
    assert checks["qsc/canonical-commutator"]["detail"] == "k=3: no z^k entry"


def test_semiclassical_check_reads_p(monkeypatch, tmp_path):
    # -1/16 in place of -1/32 at z^(k-2) of P(z^k): only the classical limit reads p_monomial
    import gbgw.cli as cli
    from gbgw.poly import ParamPoly

    real = cli.quantum.p_monomial

    def doubled(k):
        (e1, c1), (e2, c2) = real(k)
        return [(e1, c1), (e2, ParamPoly({key: 2 * q for key, q in c2.terms.items()}))]

    monkeypatch.setattr(cli.quantum, "p_monomial", doubled)
    rc, text = run_cli(["verify", "--suite", "qsc", "--window", "4"], tmp_path, "qsc.json")
    assert rc == 1
    failed = {c["identity"]: c["detail"] for c in json.loads(text)["checks"] if c["status"] == "fail"}
    assert failed == {"qsc/semiclassical-factorization":
                      "{'shift_matches_curve': False, 'factor_product': False}"}


def test_annihilation_check_fails_on_a_planted_coefficient(monkeypatch, tmp_path):
    # PhiB_0 off by one at z^-3; P moves the defect to z^-4 and z^-5
    import gbgw.cli as cli

    real = cli.quantum._basis

    def planted(k, depth):
        d, coeffs = real(k, depth)
        if k == 0:
            c = coeffs[-3]
            coeffs[-3] = (c[0] + d,) + c[1:]
        return d, coeffs

    monkeypatch.setattr(cli.quantum, "_basis", planted)
    rc, text = run_cli(["verify", "--suite", "qsc", "--window", "4"], tmp_path, "qsc.json")
    assert rc == 1
    failed = {c["identity"]: c["detail"] for c in json.loads(text)["checks"] if c["status"] == "fail"}
    assert failed["qsc/annihilation-through-4"] == "[-4, -5]"
    # span stability reads the same basis; the commutator and the classical limit do not
    assert set(failed) == {"qsc/annihilation-through-4", "qsc/span-stability"}


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


def test_two_point_check_reads_every_closed_form_entry(monkeypatch, tmp_path):
    import gbgw.cli as cli

    wgn = cli.corr.wgn

    def missing_entry(g, n, max_weight):
        t = wgn(g, n, max_weight)
        del t.coeffs[(-4, -2)]
        return t

    monkeypatch.setattr(cli.corr, "wgn", missing_entry)
    rc, text = run_cli(["verify", "--suite", "virasoro", "--weight-max", "5"], tmp_path, "v.json")
    assert rc == 1
    checks = {c["identity"]: c for c in json.loads(text)["checks"]}
    assert checks["virasoro/two-point-closed-form"]["detail"] == "mismatch at (-4, -2)"


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
    # a new check with no case here fails this test
    assert _registry_names(["--u", "1/4"]) == list(REGISTRY_CASES)
    assert _registry_names([]) == [name for name in REGISTRY_CASES
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


def test_schur_q_check_fails_on_a_planted_closed_form(monkeypatch, tmp_path):
    import gbgw.cli as cli

    real = cli.schurq.Q_delta_closed
    monkeypatch.setattr(cli.schurq, "Q_delta_closed",
                        lambda parts: real(parts) + (1 if parts == (3, 1) else 0))
    rc, text = run_cli(["verify", "--suite", "schurq", "--weight-max", "5"], tmp_path, "s.json")
    assert rc == 1
    assert _failed(text) == {"schur-q/pfaffian-vs-closed-weight<=5": "mismatch at (3, 1)"}


def test_one_point_check_fails_on_a_planted_closed_form(monkeypatch, tmp_path):
    import gbgw.cli as cli
    from gbgw.poly import ParamPoly

    real = cli.corr.one_point_closed
    monkeypatch.setattr(cli.corr, "one_point_closed",
                        lambda n: ParamPoly({key: 2 * q for key, q in real(n).terms.items()})
                        if n == 2 else real(n))
    rc, text = run_cli(["verify", "--suite", "virasoro", "--weight-max", "5"], tmp_path, "v.json")
    assert rc == 1
    assert _failed(text) == {"virasoro/one-point-closed-form": "n=2"}


def test_pfaffian_expansion_check_fails_on_a_planted_coordinate(monkeypatch, tmp_path):
    # a_{2,1} and a_{1,2} doubled change the Pfaffian of lambda = (2, 1) only;
    # the direct generating series and the cycle sums read the same coordinates
    import gbgw.cli as cli

    real = cli.affine.affine_coeff

    def doubled(n, m):
        r, p = real(n, m)
        return (2 * r, p) if {n, m} == {1, 2} else (r, p)

    monkeypatch.setattr(cli.affine, "affine_coeff", doubled)
    rc, text = run_cli(["verify", "--suite", "affine", "--weight-max", "3", "--window", "8"],
                       tmp_path, "a.json")
    assert rc == 1
    assert _failed(text) == {"affine/pfaffian-vs-expansion-weights": "mismatch at (2, 1)",
                             "affine/generating-series-closed-vs-direct": "At mismatch at (-2, -1)",
                             "affine/cycle-sum-vs-virasoro-bridge-weight<=3": "1 mismatches of 6"}


def test_trivialization_check_fails_on_a_planted_coordinate(monkeypatch, tmp_path):
    # a_{2,3} + 1 does not vanish at u = 1/4; weight 3 keeps it out of the Pfaffians
    # and the cycle sums, and the direct generating series reads it
    import gbgw.cli as cli
    from gbgw.poly import u_add, u_scale

    real = cli.affine.affine_coeff

    def planted(n, m):
        # r P + 1 = (num P + den) / den at h = 1, with r = num / den
        r, p = real(n, m)
        if (n, m) != (2, 3):
            return r, p
        return Fraction(1, r.denominator), u_add(u_scale(p, r.numerator), (r.denominator,))

    monkeypatch.setattr(cli.affine, "affine_coeff", planted)
    rc, text = run_cli(["verify", "--suite", "affine", "--u", "1/4", "--weight-max", "3",
                        "--window", "8"], tmp_path, "a.json")
    assert rc == 1
    assert _failed(text) == {"affine/trivialization-at-u=1/4": "a[2,3] nonzero",
                             "affine/generating-series-closed-vs-direct": "At mismatch at (-2, -3)"}


def test_wronskian_check_fails_on_a_planted_basis_coefficient(monkeypatch, tmp_path):
    # phi1 off at z^-3; the closed form of the generating series reads the same basis
    import gbgw.cli as cli
    from gbgw.poly import u_add

    real = cli.affine._int_basis

    def planted(T):
        d1, p1, d2, p2u, p2v = real(T)
        return d1, {**p1, -3: u_add(p1[-3], (d1,))}, d2, p2u, p2v

    monkeypatch.setattr(cli.affine, "_int_basis", planted)
    rc, text = run_cli(["verify", "--suite", "affine", "--weight-max", "3", "--window", "8"],
                       tmp_path, "a.json")
    assert rc == 1
    failed = _failed(text)
    assert "'phi1_ode': False" in failed.pop("affine/wronskian-suite-order-8")
    assert set(failed) == {"affine/generating-series-closed-vs-direct"}


def _plant_independence(monkeypatch):
    # every step that distinguishes a part other than the largest is off by one
    import gbgw.correlators as corr

    real = corr._expand
    monkeypatch.setattr(corr, "_expand", lambda g, parts, pick: real(g, parts, pick) + (1 if pick > 0 else 0))


def _plant_bridge(monkeypatch):
    import gbgw.npoint as npoint
    from gbgw.poly import ParamPoly

    real = npoint.bridge

    def planted(mu, u_value=None):
        # every bridge value has h-degree |mu| > 0, so + 1 is a new constant term
        value = real(mu, u_value=u_value)
        return ParamPoly({**value.terms, (0, 0, 0, 0): Fraction(1)}) if tuple(mu) == (3, 1) else value

    monkeypatch.setattr(npoint, "bridge", planted)


def _plant_closed_quotient(monkeypatch):
    # the quotient of the closed form off by one at (-2, -3); the v-part
    # quotient (no wx) is left alone
    import gbgw.affine as affine
    from gbgw.poly import u_add

    real = affine._antisym_quotient

    def planted(p1, p2, T, wx=0):
        q = real(p1, p2, T, wx)
        if wx:
            q[(-2, -3)] = u_add(q.get((-2, -3), ()), (1,))
        return q

    monkeypatch.setattr(affine, "_antisym_quotient", planted)


def _plant_special_deformation(monkeypatch):
    import gbgw.correlators as corr

    real = corr._dF0_series

    def planted(nu, xlo):
        out = real(nu, xlo)
        if nu == (1,):
            out[-4] = out.get(-4, 0) + 1
        return out

    monkeypatch.setattr(corr, "_dF0_series", planted)


def _plant_type_b_stream(monkeypatch):
    # the type-B omega_{0,2} stream off by one at z^2: the recursion never
    # reads it, so only the kernel comparison can see it
    import gbgw.eo as eo

    real = eo._omega02_streams

    def planted(top):
        streams = real(top)
        m, v = streams["typeB"][2]
        streams["typeB"][2] = (m, v + 1)
        return streams

    monkeypatch.setattr(eo, "_omega02_streams", planted)


def _plant_span_basis(monkeypatch):
    # PhiB_2 off by one at z^-3; the annihilation check reads PhiB_0 only
    import gbgw.quantum as quantum
    from gbgw.poly import u_add

    real = quantum._basis

    def planted(k, depth):
        d, coeffs = real(k, depth)
        if k == 2:
            coeffs = {**coeffs, -3: u_add(coeffs.get(-3, ()), (1,))}
        return d, coeffs

    monkeypatch.setattr(quantum, "_basis", planted)


@pytest.mark.parametrize("identity, plant", [
    ("virasoro/distinguished-part-independence", _plant_independence),
    ("affine/cycle-sum-vs-virasoro-bridge-weight<=9", _plant_bridge),
    ("affine/generating-series-closed-vs-direct", _plant_closed_quotient),
    ("virasoro/special-deformation", _plant_special_deformation),
    ("eo/kernel-comparison", _plant_type_b_stream),
    ("qsc/span-stability", _plant_span_basis),
])
def test_check_fails_alone_on_its_planted_defect(monkeypatch, tmp_path, identity, plant):
    # the defect goes into the code under check, never into the check; the
    # memos are emptied so that no table built with it outlives the test
    import gbgw

    gbgw.reset_caches()
    try:
        plant(monkeypatch)
        rc, text = run_cli(["verify", "--suite", "all"], tmp_path, "all.json")
    finally:
        gbgw.reset_caches()
    assert rc == 1
    assert set(_failed(text)) == {identity}


def test_kernel_comparison_fails_on_a_planted_omega02_factor(monkeypatch, tmp_path):
    # omega_{0,2} off by one at k = 1 where the bracket reads it: the residue
    # tables above (0,3) move with it, so the checks that read them fail too.
    # omega_{0,3} reads only k = 0, so its closed form still holds
    import gbgw
    import gbgw.eo as eo

    real = eo._factor

    def planted(gf, nf, top):
        factor = real(gf, nf, top)
        if (gf, nf) == (0, 1):
            factor[(1,)] = [(-1, 4)]
        return factor

    gbgw.reset_caches()
    try:
        monkeypatch.setattr(eo, "_factor", planted)
        rc, text = run_cli(["verify", "--suite", "all"], tmp_path, "all.json")
    finally:
        gbgw.reset_caches()
    assert rc == 1
    failed = _failed(text)
    assert set(failed) == {"eo/equivalence-with-virasoro-weight<=9",
                           "eo/residue-vs-coefficient-recursion", "eo/kernel-comparison"}
    assert failed["eo/kernel-comparison"].startswith(
        "[(0, 3, 'standard, sigma=+1'), (0, 3, 'standard, sigma=-1'), (0, 3, 'typeB'), ")


def test_equivalence_check_fails_on_a_defect_in_the_shared_orbits(monkeypatch, tmp_path):
    # both EO routes solve only the orbits that eo._orbits lists, so a defect
    # there moves both routes alike: eo/residue-vs-coefficient-recursion cannot
    # see it, and the Virasoro equivalence must.  The orbits at sum == total are
    # dropped where total > 0; the one (0,3) orbit, at total 0, stays, since the
    # coefficient route seeds (0,3) and would differ there.  (1,2) loses its
    # orbit (2,): its entries at (0, 2) are gone, and (1,3) and up are built on it
    import gbgw
    import gbgw.eo as eo

    real = eo._orbits

    def planted(length, total, top):
        return [kk for kk in real(length, total, top) if sum(kk) < total or not total]

    gbgw.reset_caches()
    try:
        monkeypatch.setattr(eo, "_orbits", planted)
        rc, text = run_cli(["verify", "--suite", "all"], tmp_path, "all.json")
    finally:
        gbgw.reset_caches()
    assert rc == 1
    failed = _failed(text)
    assert set(failed) == {"eo/equivalence-with-virasoro-weight<=9"}
    assert failed["eo/equivalence-with-virasoro-weight<=9"].startswith("(1,2): [((0, 2), ")
