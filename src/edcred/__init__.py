"""Attribute credentials with blind issuance on complete Edwards curves.

The issuer signs a product of attribute hashes without seeing the blinded
half of the signature, holders re-randomize what they show, and selective
disclosure proves the hidden attributes still live inside the signed
product. Everything runs over a twisted Edwards curve whose addition law
has no special cases, so the group code is total functions on points.

Typical round trip:

    import random
    from edcred import setup, run_issuance, signature_of, check_equation
    params, key = setup("toy", random.Random(1))
    cred, _ = run_issuance(params, key, attrs, issuer_rng, user_rng)
    assert check_equation(signature_of(cred), params)
"""

from importlib import import_module

# Every public name and the submodule that defines it. They load on first
# use (PEP 562), so `from edcred.params import setup` compiles the modules
# set-up needs and not the protocol, harness or command line.
_EXPORTS = {
    "curve": ("CurveParams", "OpCounter", "Point", "Scalar", "curve_by_name",
              "production_curve", "toy_curve"),
    "credential": ("Credential", "PresentationToken", "check_equation", "make_presentation",
                   "randomize", "signature_of", "verify_credential", "verify_presentation"),
    "disclosure": ("DisclosureToken", "present", "verify_disclosure"),
    "errors": ("InvalidProofError", "IssuerMisbehavior", "ProtocolError", "RngError",
               "SessionError", "WireError"),
    "harness": ("opcount_bench", "render_table"),
    "hashing": ("attr_to_scalar", "hash_block", "hash_points"),
    "issuance": ("issuer_start", "user_blind", "user_unblind"),
    "params": ("IssuerKey", "SystemParams", "setup"),
    "protocol": ("IssuerEngine", "UserEngine", "request_issuance", "run_issuance",
                 "serve_issuance"),
    "schnorr": ("fs_prove", "fs_verify", "pk_commit", "pk_respond", "pk_verify"),
    "wire": ("Transcript", "WireMessage", "decode_message", "encode_message"),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}


def __getattr__(name):
    module = _HOME.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(_HOME))


__version__ = "0.1.0"

__all__ = sorted(_HOME)
