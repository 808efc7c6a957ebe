"""Command line protocol harness.

    edcred setup      --curve toy|prod --out DIR
    edcred issue      --params DIR --attrs FILE --out CRED
                      [--connect SOCK] [--interactive] [--transcript FILE]
    edcred serve      --params DIR --listen SOCK [--transcript FILE]
    edcred verify     --params DIR --token FILE
    edcred randomize  --params DIR --cred FILE --out TOKEN
    edcred present    --params DIR --cred FILE --disclose 2,3 --out TOKEN
    edcred bench      --attrs N [--repeat K] [--curve toy|prod]

Exit codes: 0 success or accept, 1 verification reject, 2 malformed input
or a socket peer silent for SESSION_TIMEOUT seconds.
Every command but serve takes --seed, for reproducible test runs: the same
seed and inputs produce byte-identical output files. setup --seed and the
first issue --seed derive issuer.key and user.key from the seed, so such
keys are only as secret as the seed. Every other secret a seeded command
draws (nonces, blinding factors) also hashes the key or attribute it
guards, so a guessed seed alone does not give it. serve takes no seed:
its nonce meets a peer, and two sessions under one seed give the issuer
key away.

Attribute files carry one label per line; the first line names the master
secret, whose value is drawn at the first issue and kept in user.key next
to the params. Remaining labels are hashed to attribute scalars.
"""

from __future__ import annotations

import argparse
import os
import random
import stat
import sys

from .credential import (
    Credential,
    PresentationToken,
    make_presentation,
    verify_credential,
    verify_presentation,
)
from .curve import Scalar, curve_by_name
from .disclosure import DisclosureToken, present as build_disclosure, verify_disclosure
from .errors import InvalidProofError, IssuerMisbehavior, ProtocolError, WireError
from .hashing import attr_to_scalar
from .params import IssuerKey, SystemParams, read_secret, setup, validate_params, write_secret
from .protocol import request_issuance, run_issuance, serve_issuance
from .wire import (
    MSG_DISCLOSE,
    MSG_PRESENT,
    WireMessage,
    decode_message,
    encode_message,
)

PARAMS_FILE = "params.txt"
ISSUER_KEY_FILE = "issuer.key"
USER_KEY_FILE = "user.key"
# Seconds that serve and issue --connect wait on a connected peer before
# they give up with exit 2; a session step takes milliseconds, so only a
# peer that stalls meets it.
SESSION_TIMEOUT = 30.0


def _rng(seed, role: str):
    if seed is None:
        return random.SystemRandom()
    return random.Random(f"{role}:{seed}")


def _load_params(dirpath) -> SystemParams:
    return SystemParams.load(os.path.join(dirpath, PARAMS_FILE))


def _load_issuer(dirpath, params) -> IssuerKey:
    # checked against params.txt, not parsed a second time
    return IssuerKey.load(os.path.join(dirpath, ISSUER_KEY_FILE), params)


def _read(path) -> bytes:
    with open(path, "rb") as fh:
        return fh.read()


def _write(path, data: bytes) -> None:
    with open(path, "wb") as fh:
        fh.write(data)


def _write_token(path, msg_type: int, token, params) -> None:
    _write(path, encode_message(WireMessage(msg_type, token.session_id, token.to_bytes(params))))


def _read_labels(path) -> list:
    with open(path) as fh:
        labels = [ln.strip() for ln in fh if ln.strip() and not ln.strip().startswith("#")]
    if not labels:
        raise ValueError("attribute file has no labels")
    return labels


def _master_secret(dirpath, curve, rng) -> Scalar:
    """Load the user's master secret, drawing and storing it on first use.

    The draw uses its own rng, never the issuance stream: otherwise the
    second run with the same seed would find the key file, skip the draw,
    and blind with different randomness than the first.
    """
    path = os.path.join(dirpath, USER_KEY_FILE)
    if os.path.exists(path):
        return read_secret(path, "m0", curve.q)[0]
    m0 = curve.random_nonzero(rng)
    write_secret(path, f"m0={m0.v}\n")
    return m0


def _attr_scalars(labels, dirpath, curve, seed):
    m0 = _master_secret(dirpath, curve, _rng(seed, "userkey"))
    return [m0] + [attr_to_scalar(label, curve) for label in labels[1:]]


# -- commands ----------------------------------------------------------------

def cmd_setup(args) -> int:
    rng = _rng(args.seed, "setup")
    params, key = setup(curve_by_name(args.curve), rng)
    check = validate_params(params)
    if not check:
        print("; ".join(check.problems), file=sys.stderr)
        return 2
    os.makedirs(args.out, exist_ok=True)
    params.save(os.path.join(args.out, PARAMS_FILE))
    key.save(os.path.join(args.out, ISSUER_KEY_FILE), params)
    print(f"params written to {args.out} (curve {params.curve.name})")
    return 0


def cmd_issue(args) -> int:
    params = _load_params(args.params)
    labels = _read_labels(args.attrs)
    user_rng = _rng(args.seed, "user")
    attrs = _attr_scalars(labels, args.params, params.curve, args.seed)

    if args.connect:
        import socket  # only here and in serve: most commands never need it

        with socket.socket(socket.AF_UNIX, socket.SOCK_STREAM) as conn:
            conn.connect(args.connect)
            conn.settimeout(SESSION_TIMEOUT)
            cred, transcript = request_issuance(
                conn, params, attrs, user_rng, interactive=args.interactive
            )
    else:
        key = _load_issuer(args.params, params)
        issuer_rng = _rng(args.seed, "issuer")
        cred, transcript = run_issuance(
            params, key, attrs, issuer_rng, user_rng, interactive=args.interactive
        )

    _write(args.out, cred.to_bytes(params))
    if args.transcript:
        _write(args.transcript, transcript.to_bytes())
    print(f"credential with {len(attrs)} attributes written to {args.out}")
    return 0


def cmd_serve(args) -> int:
    import socket

    params = _load_params(args.params)
    key = _load_issuer(args.params, params)
    rng = random.SystemRandom()
    if os.path.lexists(args.listen):
        if not stat.S_ISSOCK(os.lstat(args.listen).st_mode):
            raise ValueError(f"{args.listen} exists and is not a socket")
        os.unlink(args.listen)
    with socket.socket(socket.AF_UNIX, socket.SOCK_STREAM) as server:
        server.bind(args.listen)
        try:
            server.listen(1)
            print(f"issuer listening on {args.listen}", flush=True)
            conn, _ = server.accept()
            with conn:
                conn.settimeout(SESSION_TIMEOUT)
                transcript = serve_issuance(conn, params, key, rng)
        finally:
            os.unlink(args.listen)
    if args.transcript:
        _write(args.transcript, transcript.to_bytes())
    print("one credential issued")
    return 0


def cmd_verify(args) -> int:
    params = _load_params(args.params)
    data = _read(args.token)
    if data[:4] == Credential.MAGIC:
        # a raw credential carries its attributes, so h is recomputed too
        ok = verify_credential(Credential.from_bytes(data, params), params)
    else:
        msg = decode_message(data)
        if msg.msg_type == MSG_PRESENT:
            token = PresentationToken.from_bytes(msg.body, params, msg.session_id)
            ok = verify_presentation(token, params)
        elif msg.msg_type == MSG_DISCLOSE:
            token = DisclosureToken.from_bytes(msg.body, params, msg.session_id)
            ok = verify_disclosure(token, params)
        else:
            raise WireError(f"file is not a token (type 0x{msg.msg_type:02x})")
    print("accept" if ok else "reject")
    return 0 if ok else 1


def cmd_randomize(args) -> int:
    params = _load_params(args.params)
    cred = Credential.from_bytes(_read(args.cred), params)
    rng = _rng(args.seed, "present")
    token = make_presentation(cred, params, rng, fresh=True)
    _write_token(args.out, MSG_PRESENT, token, params)
    print(f"presentation token written to {args.out}")
    return 0


def cmd_present(args) -> int:
    params = _load_params(args.params)
    cred = Credential.from_bytes(_read(args.cred), params)
    rng = _rng(args.seed, "present")
    disclose = [int(part) for part in args.disclose.split(",") if part.strip()]
    token = build_disclosure(cred, disclose, params, rng)
    _write_token(args.out, MSG_DISCLOSE, token, params)
    hidden = len(token.hidden_points)
    print(f"disclosure token written to {args.out} ({len(disclose)} shown, {hidden} proven)")
    return 0


def cmd_bench(args) -> int:
    from .harness import opcount_bench, render_table

    rng = _rng(args.seed, "bench")
    params, key = setup(curve_by_name(args.curve), rng)
    rows = []
    for n in [int(part) for part in args.attrs.split(",")]:
        rows += opcount_bench(n, params, key, rng, repeat=args.repeat)
    print(render_table(rows))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="edcred", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, fn, seeded=True, **kwargs):
        p = sub.add_parser(name, **kwargs)
        p.set_defaults(func=fn)
        if seeded:
            p.add_argument("--seed", type=int, default=None,
                           help="for reproducible test runs: equal seeds give identical files, "
                                "and setup and a first issue derive issuer.key and user.key "
                                "from the seed; every other secret also hashes the key or "
                                "attribute it guards")
        return p

    p = add("setup", cmd_setup, help="create params and issuer key")
    p.add_argument("--curve", choices=("toy", "prod"), default="prod")
    p.add_argument("--out", required=True)

    p = add("issue", cmd_issue, help="run blind issuance and store the credential")
    p.add_argument("--params", required=True)
    p.add_argument("--attrs", required=True, help="label file, master secret first")
    p.add_argument("--out", required=True)
    p.add_argument("--connect", default=None, help="unix socket of a serving issuer")
    p.add_argument("--interactive", action="store_true", help="interactive proof round")
    p.add_argument("--transcript", default=None, help="record wire transcript here")

    p = add("serve", cmd_serve, seeded=False, help="serve one issuance on a unix socket")
    p.add_argument("--params", required=True)
    p.add_argument("--listen", required=True, help="unix socket path to create")
    p.add_argument("--transcript", default=None)

    p = add("verify", cmd_verify, help="verify a credential or token file")
    p.add_argument("--params", required=True)
    p.add_argument("--token", required=True)

    p = add("randomize", cmd_randomize, help="make a randomized presentation token")
    p.add_argument("--params", required=True)
    p.add_argument("--cred", required=True)
    p.add_argument("--out", required=True)

    p = add("present", cmd_present, help="make a selective disclosure token")
    p.add_argument("--params", required=True)
    p.add_argument("--cred", required=True)
    p.add_argument("--disclose", default="", help="comma separated indices to reveal")
    p.add_argument("--out", required=True)

    p = add("bench", cmd_bench, help="count group operations against the published costs")
    p.add_argument("--attrs", default="1,5,10,20", help="attribute counts, comma separated")
    p.add_argument("--repeat", type=int, default=1)
    p.add_argument("--curve", choices=("toy", "prod"), default="prod")

    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 2
    try:
        return args.func(args)
    except WireError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (InvalidProofError, IssuerMisbehavior) as exc:
        print(f"rejected: {exc}", file=sys.stderr)
        return 1
    except (ProtocolError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
