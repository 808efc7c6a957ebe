"""Every parser refuses malformed bytes with WireError and nothing else.

Each record below is cut at every length, extended by one byte, and
edited at every position (one seeded replacement byte each). A mutated
input may still parse, for instance when an edit lands on another valid
scalar; otherwise the parser must raise WireError, never a bare ValueError,
IndexError or anything else. On curve1174 a credential, presentation or
disclosure token that still parses after an edit must then be refused by
its verifier; the toy curve's 1/q soundness lets chance edits pass there.
"""

import pytest

from edcred import setup
from edcred.credential import (
    PresentationToken,
    make_presentation,
    verify_credential,
    verify_presentation,
)
from edcred.disclosure import DisclosureToken, present, verify_disclosure
from edcred.errors import WireError
from edcred.issuance import Credential
from edcred.protocol import decode_request, run_issuance
from edcred.wire import MSG_ISS2, Transcript, decode_message, encode_message

from conftest import make_rng


def mutations(data: bytes, rng):
    for n in range(len(data)):
        yield data[:n]
    yield data + bytes((rng.randrange(256),))
    for i in range(len(data)):
        yield data[:i] + bytes((data[i] ^ rng.randrange(1, 256),)) + data[i + 1 :]


def records(params, key, rng):
    """(name, bytes, parser, how many truncations parse, verifier or None)
    for one record of each kind, each token parsed with its own session
    id. A transcript cut between entries is a shorter transcript."""
    attrs = [params.curve.random_nonzero(rng) for _ in range(3)]
    cred, transcript = run_issuance(params, key, attrs, rng, rng)
    iss2 = next(e.message for e in transcript if e.message.msg_type == MSG_ISS2)
    show = make_presentation(cred, params, rng)
    disc = present(cred, [2], params, rng)
    return [
        ("credential", cred.to_bytes(params), lambda b: Credential.from_bytes(b, params), 0,
         verify_credential),
        ("presentation", show.to_bytes(params),
         lambda b: PresentationToken.from_bytes(b, params, show.session_id), 0,
         verify_presentation),
        ("disclosure", disc.to_bytes(params),
         lambda b: DisclosureToken.from_bytes(b, params, disc.session_id), 0,
         verify_disclosure),
        ("ISS2 body", iss2.body, lambda b: decode_request(b, params), 0, None),
        ("message", encode_message(iss2), decode_message, 0, None),
        ("transcript", transcript.to_bytes(), Transcript.from_bytes, len(transcript), None),
    ]


@pytest.mark.parametrize("deploy", ["toy_deploy", "prod_deploy"])
def test_every_parser_refuses_malformed_bytes_with_wire_error(deploy, request):
    params, key = request.getfixturevalue(deploy)
    rng = make_rng(f"malformed:{deploy}")
    for name, data, parse, cuts_that_parse, verify in records(params, key, rng):
        if deploy == "toy_deploy":
            verify = None
        parsed = parse(data)
        assert verify is None or verify(parsed, params), name
        parsed_cuts = verified = 0
        for bad in mutations(data, rng):
            try:
                parsed = parse(bad)
            except WireError:
                continue
            except Exception as exc:  # anything else is the defect tested for
                pytest.fail(f"{name}: {type(exc).__name__}: {exc} on {bad.hex()}")
            parsed_cuts += len(bad) < len(data)
            if verify is not None:
                assert not verify(parsed, params), f"{name}: edit accepted: {bad.hex()}"
                verified += 1
        assert parsed_cuts == cuts_that_parse, name
        assert verify is None or verified, name


def test_records_refuse_another_deployment(toy_deploy):
    """A credential and both kinds of token lead with their deployment's
    digest: read under another deployment, each is refused with the one
    WireError of Reader.deployment."""
    params, key = toy_deploy
    other, _ = setup("toy", make_rng("malformed:other deployment"))
    assert other.digest() != params.digest()
    rng = make_rng("malformed:deployment")
    attrs = [params.curve.random_nonzero(rng) for _ in range(2)]
    cred, _ = run_issuance(params, key, attrs, rng, rng)
    show = make_presentation(cred, params, rng)
    disc = present(cred, [1], params, rng)
    for data, parse in (
        (cred.to_bytes(params), lambda b, ps: Credential.from_bytes(b, ps)),
        (show.to_bytes(params), lambda b, ps: PresentationToken.from_bytes(b, ps, show.session_id)),
        (disc.to_bytes(params), lambda b, ps: DisclosureToken.from_bytes(b, ps, disc.session_id)),
    ):
        parse(data, params)
        with pytest.raises(WireError, match="^record was made under different parameters$"):
            parse(data, other)
