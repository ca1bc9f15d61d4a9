import json
import subprocess
import sys

import pytest

from discweil import cli
from discweil.fqmod import hyperbolic_pair
from discweil.weilrep import invariant_space


def run_cli(*args, env=None):
    import os

    full = dict(os.environ)
    if env:
        full.update(env)
    return subprocess.run(
        [sys.executable, "-m", "discweil.cli", *args],
        capture_output=True,
        text=True,
        env=full,
    )


def test_invariants_dimension():
    r = run_cli("invariants", "--N", "6", "--Nprime", "1")
    assert r.returncode == 0
    obj = json.loads(r.stdout)
    assert obj["dimension"] == 4
    assert obj["selfdual_family_rank"] == 4
    assert len(obj["basis"]) == 4


def test_output_is_deterministic():
    for args in (
        ["discform", "--N", "6", "--Nprime", "2"],
        ["lnn", "selfdual", "--N", "4", "--Nprime", "2"],
        ["eta", "expand", "--d", "1/2", "--shift", "1/3", "--prec", "8"],
        ["lift", "--N", "2", "--coeffs", '{"0,0,0,0":1,"1,0,0,0":1}', "--prec", "9"],
    ):
        a = run_cli(*args)
        b = run_cli(*args)
        assert a.returncode == 0
        assert a.stdout == b.stdout and a.stdout.strip()


def test_streams_are_one_object_per_line():
    r = run_cli("subgroups", "--N", "3")
    assert r.returncode == 0
    lines = r.stdout.strip().split("\n")
    assert len(lines) == 6  # (Z/3)^2 has 3 + 3 subgroups
    for ln in lines:
        obj = json.loads(ln)
        assert set(obj) >= {"order", "elements", "class"}


def test_relations_output():
    r = run_cli("lnn", "relations", "--N", "2", "--p", "2")
    assert r.returncode == 0
    assert json.loads(r.stdout) == [1, -1, -1, 1, -1, 1]


def test_lift_output_shape():
    r = run_cli(
        "lift", "--N", "2", "--coeffs", '{"0,0,0,0":1,"1,0,0,0":1}', "--prec", "6"
    )
    obj = json.loads(r.stdout)
    assert obj["weight"] == "1/2"
    assert obj["weyl"] == ["1/24", "1/24"]
    assert obj["constant"] == "1"
    assert obj["eta1"]["factors"] == [{"exponent": 1, "scale": [1, 1], "shift": [0, 1]}]


def test_verify_eta_exit_codes():
    r = run_cli("verify-eta", "--p", "2", "--prec", "40")
    assert r.returncode == 0
    assert json.loads(r.stdout)["verified"] is True
    r = run_cli("verify-eta", "--p", "4", "--prec", "40")
    assert r.returncode == 1  # not a prime: input error


def test_usage_errors_exit_1():
    assert run_cli().returncode == 1
    assert run_cli("bogus").returncode == 1
    assert run_cli("invariants", "--N", "0").returncode == 1
    assert run_cli("eta", "expand", "--d", "x").returncode == 1
    assert run_cli("lift", "--N", "2", "--coeffs", "{bad json").returncode == 1


def test_non_invariant_lift_input_exits_1():
    r = run_cli("lift", "--N", "2", "--coeffs", '{"1,1,0,0":1}')
    assert r.returncode == 1
    assert "not invariant" in r.stderr


def _refused(capsys, argv):
    """Exit code 1, one error line on stderr and nothing on stdout."""
    assert cli.main(argv) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    return err


@pytest.mark.parametrize(
    "coeffs", ['{"0,0,0,0": 0.5, "0,1,0,0": 0.5}', '{"0,0,0,0": true}', '{"0,0,0,0": "1"}']
)
def test_non_integer_coefficients_exit_1(capsys, coeffs):
    # int(0.5) == 0 once turned this input into the lift of the zero form
    err = _refused(capsys, ["lift", "--N", "2", "--coeffs", coeffs])
    assert "not a JSON integer" in err


def test_coefficient_keys_of_the_wrong_length_exit_1(capsys):
    # a 5-coordinate key was once cut to 4, printing the lift of another input
    coeffs = '{"0,0,0,0,7": 1, "0,1,0,0,9": 1}'
    err = _refused(capsys, ["lift", "--N", "2", "--coeffs", coeffs])
    assert "one entry per generator" in err


@pytest.mark.parametrize("entry", ["1_0", " 1", "+1", "1 ", "\u0661"])
def test_key_entries_must_be_plain_decimal_integers(capsys, entry):
    # int() takes each of these, and "0,1_0,0,0" once named (0,0,0,0) on D_{2,1}
    coeffs = json.dumps({"0,0,0,0": 1, "0,%s,0,0" % entry: 1})
    err = _refused(capsys, ["lift", "--N", "2", "--coeffs", coeffs])
    assert "plain decimal integer" in err


@pytest.mark.parametrize("key", ["0,3,0,0", "0,-1,0,0", "0,2,0,0"])
def test_key_entries_out_of_range_exit_1(capsys, key):
    # reduced mod 2, each key once printed the lift of {"0,0,0,0":1,"0,1,0,0":1}
    err = _refused(capsys, ["lift", "--N", "2", "--coeffs", '{"0,0,0,0": 1, "%s": 1}' % key])
    assert "outside [0, order)" in err


@pytest.mark.parametrize(
    "module,field",
    [('{"orders": [2, 2]}', "q_gen"), ("[1]", "orders"), ('{"orders": "22", "q_gen": [], "b_gram": []}', "orders")],
)
def test_malformed_module_json_exits_1(capsys, module, field):
    err = _refused(capsys, ["invariants", "--module", module])
    assert field in err


def test_repro_check_number_out_of_range_exits_1(capsys):
    err = _refused(capsys, ["repro", "--only", "10"])
    assert "from 1 to 9" in err


def test_bound_exceeded_exits_3():
    r = run_cli("subgroups", "--N", "30", "--Nprime", "30")
    assert r.returncode == 3
    # and the env var really is the bound
    r = run_cli("subgroups", "--N", "4", env={"WEILREP_MAX_D": "10"})
    assert r.returncode == 3
    r = run_cli("subgroups", "--N", "4", env={"WEILREP_MAX_D": "16"})
    assert r.returncode == 0


def test_lnn_selfdual_obeys_the_bound():
    # the catalog of D_{4,1} has |D| = 16: refused under a bound of 10 with
    # one error line and nothing printed, streamed under a bound of 16
    r = run_cli("lnn", "selfdual", "--N", "4", env={"WEILREP_MAX_D": "10"})
    assert r.returncode == 3 and r.stdout == ""
    assert r.stderr.startswith("error: |D| = ") and r.stderr.count("\n") == 1
    r = run_cli("lnn", "selfdual", "--N", "4", env={"WEILREP_MAX_D": "16"})
    assert r.returncode == 0 and r.stdout


@pytest.mark.parametrize("bound", ["abc", "1e4", "-5", " 16", "1_6"])
def test_malformed_bound_names_the_variable(monkeypatch, capsys, bound):
    # int() once rejected "abc" with a message that named no variable, and
    # took " 16" and "1_6" as 16
    monkeypatch.setenv("WEILREP_MAX_D", bound)
    err = _refused(capsys, ["subgroups", "--N", "4"])
    assert "WEILREP_MAX_D" in err
    r = run_cli("invariants", "--N", "2", env={"WEILREP_MAX_D": bound})
    assert r.returncode == 1 and r.stdout == ""
    assert r.stderr.startswith("error: ") and r.stderr.count("\n") == 1 and "WEILREP_MAX_D" in r.stderr


def test_oversized_module_exits_3_before_it_is_built(monkeypatch, capsys):
    # a 20000^4-element module would not fit in memory: the bound is checked
    # from the orders, before any FqModule (and its element table) exists
    def refuse(*args, **kwargs):
        raise AssertionError("FqModule built for an oversized request")

    monkeypatch.setattr(cli.FqModule, "__init__", refuse)
    big = ["--N", "20000", "--Nprime", "20000"]
    zero = [["0", "0"], ["0", "0"]]
    module = json.dumps({"orders": [20000, 20000], "q_gen": ["0", "0"], "b_gram": zero})
    for argv in (
        ["discform", *big],
        ["subgroups", *big],
        ["invariants", *big],
        ["invariants", "--module", module],
        ["lift", *big, "--coeffs", "{}"],
        ["lnn", "selfdual", "--N", "20000"],
    ):
        assert cli.main(argv) == 3
        err = capsys.readouterr().err
        assert err.startswith("error: |D| = ") and err.count("\n") == 1


def test_verification_mismatch_exits_2(monkeypatch, capsys):
    # exercised in-process: a report that fails must map to exit code 2
    monkeypatch.setattr(
        cli, "verify_eta_prime", lambda p, prec: {"verified": False, "p": p}
    )
    rc = cli.main(["verify-eta", "--p", "2", "--prec", "10"])
    assert rc == 2
    assert json.loads(capsys.readouterr().out)["verified"] is False


def test_repro_single_check(capsys):
    rc = cli.main(["repro", "--only", "9"])
    out = capsys.readouterr().out
    assert rc == 0
    assert out.splitlines()[0].startswith("ok   9. pentagonal-oracle")
    assert out.splitlines()[-1] == "1/1 checks passed"


def test_invariants_prints_invariant_space(capsys):
    # the basis is printed as the library returns it: lists of |D| ints
    m = hyperbolic_pair(3, 3)
    want = invariant_space(m)
    assert want and all(len(v) == m.size for v in want)
    assert all(type(c) is int for v in want for c in v)
    assert cli.main(["invariants", "--module", json.dumps(m.to_json())]) == 0
    assert json.loads(capsys.readouterr().out)["basis"] == want


def test_module_json_round_trip_through_cli():
    r = run_cli("discform", "--N", "4", "--Nprime", "2")
    mod = json.loads(r.stdout)["module"]
    r2 = run_cli("invariants", "--module", json.dumps(mod))
    assert r2.returncode == 0
    assert json.loads(r2.stdout)["dimension"] == 8


VERIFY_ETA_P2_PREC40 = (
    '{"constant":"1*z48^1","direct":{"checked_to":"40","equal":true,"first_mismatch":null},'
    '"identity":"eta(tau + 1/2) = 1*z48^1 * eta(2*tau)^3 * eta(tau)^-1 * eta(4*tau)^-1","p":2,'
    '"relation":{"N":2,"p":2,"product_of_constants_is_one":true,'
    '"tau1":{"checked_to":"239/6","constant":"1","first_mismatch":null,'
    '"quotient":"1*z48^1 * eta(2*tau1) * eta(4*tau1)^-1 * eta(tau1)^-1 * eta(2*tau1)'
    ' * eta(tau1 + 1/2)^-1 * eta(2*tau1)","verified":true},'
    '"tau2":{"checked_to":"479/12","constant":"1","first_mismatch":null,'
    '"quotient":"1*z48^47 * eta(1/2*tau2) * eta(tau2)^-1 * eta(tau2)^-1 * eta(2*tau2)'
    ' * eta(tau2)^-1 * eta(1/2*tau2 + 1/2)","verified":true},"verified":true},"verified":true}\n'
)


def test_verify_eta_stdout_is_pinned():
    r = run_cli("verify-eta", "--p", "2", "--prec", "40")
    assert r.returncode == 0
    assert r.stdout == VERIFY_ETA_P2_PREC40


LIFT_SHIFTED_MEMBER = (
    '{"constant":{"conductor":48,"terms":[[7,"1/1"],[15,"-1/1"]]},'
    '"eta1":{"factors":[{"exponent":1,"scale":[1,1],"shift":[1,2]}],'
    '"prefactor":{"conductor":48,"terms":[[7,"1/1"],[15,"-1/1"]]}},'
    '"eta2":{"factors":[{"exponent":1,"scale":[1,1],"shift":[0,1]}],"prefactor":[1,1]},'
    '"psi1":{"exp_den":48,"terms":{"2":[1,1],"50":[1,1],"98":[-1,1]},"trunc":[3,1]},'
    '"psi2":{"exp_den":48,"terms":{"2":[1,1],"50":[-1,1],"98":[-1,1]},"trunc":[3,1]},'
    '"weight":"1/2","weyl":["1/12","1/48"]}\n'
)


def test_lift_stdout_with_cyclotomic_constant_is_pinned():
    # a self-dual member of D_{2,2} whose tau_1 side carries eta(tau + 1/2),
    # so its constant is e(-1/48) = zeta_48^7 - zeta_48^15 in the power basis
    coeffs = '{"0,0,0,0":1,"0,1,0,1":1,"1,0,1,0":1,"1,1,1,1":1}'
    r = run_cli("lift", "--N", "2", "--Nprime", "2", "--coeffs", coeffs, "--prec", "3")
    assert r.returncode == 0
    assert r.stdout == LIFT_SHIFTED_MEMBER


def test_two_main_calls_in_one_process_print_the_same(capsys):
    # the parser is built once per process and reused by every main call
    assert cli.build_parser() is cli.build_parser()
    outs = []
    for _ in range(2):
        assert cli.main(["discform", "--N", "2", "--Nprime", "1"]) == 0
        assert cli.main(["lnn", "relations", "--N", "2", "--p", "2"]) == 0
        assert cli.main(["verify-eta", "--p", "2", "--prec", "40"]) == 0
        with pytest.raises(SystemExit) as exc:
            cli.main(["invariants", "--N", "0"])
        assert exc.value.code == 1
        outs.append(capsys.readouterr())
    assert outs[0] == outs[1]
    lines = outs[0].out.splitlines()
    assert json.loads(lines[0])["size"] == 4
    assert lines[1] == "[1,-1,-1,1,-1,1]"
    assert lines[2] + "\n" == VERIFY_ETA_P2_PREC40
    assert outs[0].err.startswith("usage: discweil") and "must be >= 1" in outs[0].err
