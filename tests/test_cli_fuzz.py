"""Argument vectors drawn for every command: cli.run answers or refuses.

Every vector must end in exit code 0 or 1 (an answer or a verdict) or 2 (a
usage error), never in an exception.  Half the vectors are well formed with
small sizes; the other half draw zero, negative and huge integers, malformed
forms and missing arguments.  Huge sizes lie past every cap, so each request
stays cheap.
"""
import contextlib
import io

from hypothesis import given, settings, strategies as st

from hclassnum import cli

# sizes and arguments of a well-formed request: small, so each answers at once
_SMALL = st.integers(1, 12)
# of a wild one: also zero, negative, mid-sized, or far past every cap
_WILD = st.one_of(st.integers(-3, 12), st.integers(-10**30, -4),
                  st.integers(13, 5000), st.integers(10**12, 10**30))
_FORMS = ["psi2", "psi3", "psi4", "D", "E2", "theta:1:6", "theta:0:1"]
_BAD_FORMS = st.one_of(
    st.sampled_from(["theta:1", "theta:a:b", "theta:1:0", "theta:1:-3", "theta::",
                     "psi5", "", "-x"]),
    st.text(max_size=8),
)
# the subcommands the parser offers, in a fixed order
_COMMANDS = sorted(next(action.choices for action in cli.build_parser()._actions
                        if action.dest == "command"))


@st.composite
def _argv(draw):
    wild = draw(st.booleans())

    def size():
        return str(draw(_WILD if wild else _SMALL))

    def anyint():
        return str(draw(_WILD if wild else st.integers(-5000, 5000)))

    command = draw(st.sampled_from(_COMMANDS))
    if command == "hurwitz":
        args = [anyint()]
    elif command == "hurwitz-table":
        args = ["--limit", size()]
    elif command == "qexp":
        form = draw(_BAD_FORMS if wild else st.sampled_from(_FORMS))
        args = ["--form", form, "--terms", size()]
    elif command == "lattice-sum":
        variant = draw(st.sampled_from(["lambda", "G", "T", "mu"]))
        args = ["--variant", variant, "--ell", size(), "--modulus", size(),
                "--terms", size()]
        for flag in ("--m", "--a", "--b"):
            if draw(st.booleans()) if wild else (flag == "--m") != (variant == "mu"):
                args += [flag, anyint()]
    elif command == "hsum":
        args = ["--modulus", draw(st.sampled_from(["6", "8", "5"])), "--m", anyint(),
                "--p", anyint()]
        if draw(st.booleans()):
            args.append("--explain")
    elif command == "cross-check":
        args = ["--modulus", draw(st.sampled_from(["6", "8", "7"])), "--pmax", size()]
    elif command == "verify":
        suite = draw(st.sampled_from(["mod6", "mod8", "lemmas", "classical", "ec", "all"]))
        overshoot = st.one_of(st.integers(-1, 1), st.integers(10**12, 10**30)) if wild \
            else st.just(1)
        args = ["--suite", suite, "--pmax", size(), "--overshoot", str(draw(overshoot))]
    else:
        args = ["--p", anyint()]
    # now and then a wild request loses an argument
    if wild and draw(st.integers(0, 4)) == 0:
        del args[draw(st.integers(0, len(args) - 1))]
    return [command, *args, "--format", draw(st.sampled_from(["text", "json"]))]


@settings(derandomize=True, deadline=None, max_examples=300)
@given(_argv())
def test_every_drawn_request_answers_or_refuses(argv):
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()):
        code = cli.run(argv)
    assert code in (0, 1, 2), (argv, code)
