import hashlib
import os
import subprocess
import sys
import threading

import pytest

import edcred
from edcred.credential import PresentationSignature, check_equation
from edcred.curve import OpCounter, Point, production_curve
from edcred.params import _COMB_AT, IssuerKey, ParamsCheck, SystemParams, setup, validate_params

from conftest import make_rng
from oracles import enumerate_points


def test_setup_key_matches_public(toy_deploy):
    params, key = toy_deploy
    assert key.x * params.curve.base == params.p_pub
    assert params.p_pub.on_curve()
    assert 1 <= key.x.v < params.curve.q


def test_setup_is_deterministic_under_seed(toy):
    a = setup(toy, make_rng("det"))
    b = setup(toy, make_rng("det"))
    assert a[1].x == b[1].x and a[0].p_pub == b[0].p_pub


def test_params_file_roundtrip(tmp_path, toy_deploy):
    params, _ = toy_deploy
    path = tmp_path / "params.txt"
    params.save(path)
    again = SystemParams.load(path)
    assert again.p_pub == params.p_pub
    assert again.curve == params.curve
    assert again.digest() == params.digest()


def test_loaded_prod_params_use_the_shipped_table(tmp_path, prod_deploy):
    params, _ = prod_deploy
    path = tmp_path / "params.txt"
    params.save(path)
    again = SystemParams.load(path)
    assert again.curve is production_curve()
    assert again.digest() == params.digest()
    with OpCounter() as ops:
        _ = 12345 * again.curve.base
    # the comb: no doubling and at most one addition per row, not ~250
    # wNAF doublings
    assert ops.inner_doubles == 0 and ops.inner_adds < 42
    # loading builds no table: Ppub gets one at its _COMB_AT-th check
    assert again.p_pub._table is None


def test_table_built_under_threads(toy_deploy):
    # threads share one verifier's params: a count lost to a race may
    # delay Ppub's build or cost a rebuild, but every verdict stays exact
    # and the table is built
    params, key = toy_deploy
    verifier = SystemParams.parse_file(params.format_file())
    c = verifier.curve
    rng = make_rng("ppub-threads")
    sigs = []
    for i in range(4 * _COMB_AT):
        rho, h = c.random_nonzero(rng), c.random_nonzero(rng)
        ok = i % 3 != 0
        sigs.append((PresentationSignature(rho * c.base, h * key.x + rho + int(not ok), h), ok))
    results = {}

    def work(t):
        for i in range(t, len(sigs), 4):
            results[i] = check_equation(sigs[i][0], verifier)

    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(t,)) for t in range(4)]
        for th in threads:
            th.start()
        for th in threads:
            th.join(timeout=30)
    finally:
        sys.setswitchinterval(old)
    assert not any(th.is_alive() for th in threads)
    assert isinstance(verifier.p_pub._table, list)
    assert [results[i] for i in range(len(sigs))] == [ok for _, ok in sigs]


def test_digest_distinguishes_deployments(toy_deploy, prod_deploy):
    assert toy_deploy[0].digest() != prod_deploy[0].digest()
    other = setup(toy_deploy[0].curve, make_rng("other"))[0]
    assert other.digest() != toy_deploy[0].digest()
    assert len(toy_deploy[0].digest()) == 32


def test_digest_is_the_hash_of_the_file_form(toy_deploy, prod_deploy):
    # computed once per object, on first use, also for one made by __new__
    for params, _ in (toy_deploy, prod_deploy):
        expect = hashlib.sha256(params.format_file().encode()).digest()
        assert params.digest() == expect
        assert params.digest() is params.digest()
        again = SystemParams.parse_file(params.format_file())
        assert again.digest() == expect
        bare = SystemParams.__new__(SystemParams)
        bare.curve, bare.p_pub, bare.k = params.curve, params.p_pub, params.k
        assert bare.digest() == expect


def test_issuer_key_file_roundtrip(tmp_path, toy_deploy):
    params, key = toy_deploy
    path = tmp_path / "issuer.key"
    key.save(path, params)
    # the file's copy of the params is checked against the given ones
    assert IssuerKey.load(path, params).x == key.x


def test_issuer_key_file_rejects_other_deployment(tmp_path, toy_deploy):
    params, key = toy_deploy
    other = setup(params.curve, make_rng("otherdeploy"))[0]
    path = tmp_path / "issuer.key"
    key.save(path, params)
    with pytest.raises(ValueError, match="params differ"):
        IssuerKey.load(path, other)


def test_issuer_key_file_rejects_mismatched_x(tmp_path, toy_deploy):
    params, key = toy_deploy
    path = tmp_path / "issuer.key"
    wrong = (key.x.v % (params.curve.q - 1)) + 1  # anything but x
    path.write_text(params.format_file() + f"x={wrong}\n")
    with pytest.raises(ValueError):
        IssuerKey.load(path, params)


def test_issuer_key_file_rejects_out_of_range_x(tmp_path, toy_deploy):
    # x + q and x - q stand for the same secret mod q, but the file must
    # hold x as setup drew it, in [1, q-1], as user.key must hold m0
    params, key = toy_deploy
    q = params.curve.q
    path = tmp_path / "issuer.key"
    for v in (key.x.v + q, key.x.v - q, 0, q, -1):
        path.write_text(params.format_file() + f"x={v}\n")
        with pytest.raises(ValueError, match="out of range"):
            IssuerKey.load(path, params)


def test_params_file_rejects_off_curve_key(tmp_path, toy_deploy):
    params, _ = toy_deploy
    text = params.format_file().replace(f"Ppubx={params.p_pub.x}", "Ppubx=2")
    with pytest.raises(ValueError):
        SystemParams.parse_file(text)


def test_unsupported_hash_rejected(toy_deploy):
    params, _ = toy_deploy
    text = params.format_file()
    assert "hash=sha256\n" in text
    with pytest.raises(ValueError, match="unsupported hash"):
        SystemParams.parse_file(text.replace("hash=sha256", "hash=md5"))


def test_validate_params_accepts_good(toy_deploy, prod_deploy):
    assert validate_params(toy_deploy[0]).ok
    check = validate_params(prod_deploy[0])
    assert check and not check.problems


def test_validate_params_flags_bad_subgroup(toy_deploy):
    params, _ = toy_deploy
    c = params.curve
    outside = Point(0, c.p - 1, c)  # order 2, not in the q-subgroup
    bad = SystemParams.__new__(SystemParams)
    bad.curve, bad.p_pub, bad.k = c, outside, params.k
    check = validate_params(bad)
    assert not check.ok
    assert any("subgroup" in p for p in check.problems)


def test_validate_params_flags_composite_modulus(toy_deploy):
    params, _ = toy_deploy
    c = params.curve
    from edcred.curve import CurveParams

    # (0, p - 1) is on every such curve, whatever p
    broken = CurveParams("bad", 1007, c.d, 0, 1006, c.q, c.cofactor)
    bad = SystemParams.__new__(SystemParams)
    bad.curve, bad.p_pub, bad.k = broken, broken.base, params.k
    problems = validate_params(bad).problems
    assert any("p is not prime" in p for p in problems)


def test_load_refuses_a_cofactor_off_the_hasse_bound(tmp_path, toy_deploy):
    # a cofactored check scales its scalars by the cofactor, so any
    # cofactor would do, but cofactor * q must be a group order for p:
    # with the toy q = 131 only 8 lies in the Hasse window, so a file that
    # states another never loads and validate_params never sees it
    params, _ = toy_deploy
    path = tmp_path / "params.txt"
    params.save(path)
    text = path.read_text()
    assert "cofactor=8\n" in text
    for cofactor in (2, 4, 6, 7, 9, 12, 16):
        path.write_text(text.replace("cofactor=8\n", f"cofactor={cofactor}\n"))
        with pytest.raises(ValueError, match="Hasse bound"):
            SystemParams.load(path)


def test_security_level_autofill(toy_deploy, prod_deploy):
    # setup claims the generic-group estimate: half the subgroup bit length
    assert toy_deploy[0].k == toy_deploy[0].curve.q.bit_length() // 2
    assert prod_deploy[0].k == 124
    # the constructor takes a k in [1, bits(q)] and nothing else
    params = toy_deploy[0]
    bits = params.curve.q.bit_length()
    for k in (1, bits):
        assert SystemParams(params.curve, params.p_pub, k).k == k
    text = params.format_file()
    for k in (0, -1, bits + 1):
        with pytest.raises(ValueError, match=f"k must lie in \\[1, {bits}\\]"):
            SystemParams.parse_file(text.replace(f"k={params.k}\n", f"k={k}\n"))
        with pytest.raises(ValueError, match="k must lie in"):
            SystemParams(params.curve, params.p_pub, k)


# each breaks a rule that needs no exponentiation and no multiple: the
# cases of tests/test_cli.py's test_degenerate_params_file_is_exit_2, a
# neutral base point or public key, and k = bits(q) + 1 (the toy q = 131
# has 8 bits)
@pytest.mark.parametrize("edits", [
    {"p": 0}, {"q": 1}, {"cofactor": 0},
    {"k": 0}, {"k": -1}, {"k": 9},
    {"cofactor": 1}, {"cofactor": 2}, {"cofactor": 3}, {"cofactor": 1000},
    {"q": 1009}, {"q": 2**70},
    {"Px": 2}, {"Ppubx": 2},
    {"Px": 0, "Py": 1}, {"Ppubx": 0, "Ppuby": 1},
], ids=lambda edits: ",".join(f"{k}={v}" for k, v in edits.items()))
def test_parse_file_refuses_degenerate_params(toy_deploy, edits):
    params, _ = toy_deploy
    assert params.curve.q == 131
    fields = dict(line.split("=", 1) for line in params.format_file().splitlines())
    fields.update(edits)
    text = "".join(f"{k}={v}\n" for k, v in fields.items())
    with pytest.raises(ValueError):
        SystemParams.parse_file(text)


@pytest.mark.parametrize("name", ["toy", "prod"])
def test_constructor_refuses_every_torsion_public_key(name, request):
    # under a Ppub of small order h*Ppub vanishes for some h, and the
    # cofactored checks drop it for every h, so s*P == R passes with no
    # key: the neutral point and every other point of order dividing the
    # cofactor are refused, and a key of order q with torsion added is not
    c = request.getfixturevalue(name)
    if name == "toy":
        torsion = [pt for pt in enumerate_points(c) if (c.cofactor * pt).is_neutral()]
    else:
        torsion = [c.neutral(), Point(0, c.p - 1, c), Point(1, 0, c), Point(c.p - 1, 0, c)]
        assert all((4 * t).is_neutral() for t in torsion)
    assert len(torsion) == c.cofactor
    k = c.q.bit_length() // 2
    for t in torsion:
        with pytest.raises(ValueError, match="public key is neutral or of small order"):
            SystemParams(c, t, k)
    key = make_rng(f"torsion-key:{name}").randrange(1, c.q) * c.base
    for t in torsion:
        assert SystemParams(c, key + t, k).p_pub == key + t


def test_params_import_is_lean():
    # package exports load on first use, so set-up in a fresh process
    # compiles neither the protocol engines nor the harness; every
    # exported name still resolves
    code = (
        "import sys, edcred.params\n"
        "print(' '.join(sorted(m for m in sys.modules if m.startswith('edcred'))))\n"
        "import edcred\n"
        "assert all(getattr(edcred, n) is not None for n in edcred.__all__)\n"
    )
    src = os.path.dirname(os.path.dirname(edcred.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                            timeout=60, env=env)
    assert result.returncode == 0, result.stderr
    loaded = result.stdout.split()
    assert "edcred.params" in loaded
    assert "edcred.harness" not in loaded and "edcred.protocol" not in loaded


def test_setup_path_imports_no_dataclasses(tmp_path, prod_deploy):
    # each step in a fresh interpreter, since pytest has already imported
    # dataclasses: creating a deployment, and starting from its saved
    # params.txt, must not import it
    path = tmp_path / "params.txt"
    prod_deploy[0].save(path)
    steps = (
        "from edcred.params import setup; setup('prod', random.Random(1))",
        f"from edcred.params import SystemParams; SystemParams.load({str(path)!r})",
    )
    src = os.path.dirname(os.path.dirname(edcred.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    for step in steps:
        code = f"import random, sys\n{step}\nassert 'dataclasses' not in sys.modules\n"
        result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                                timeout=60, env=env)
        assert result.returncode == 0, (step, result.stderr)


def test_params_check_lists_are_not_shared():
    a, b = ParamsCheck(), ParamsCheck()
    a.note("p is not prime")
    assert not a and a.problems == ["p is not prime"]
    assert b and b.problems == []
