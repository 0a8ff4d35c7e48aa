"""Random input files and option strings through the CLI: every input ends
in exit 0, 1 or 2, no exception escapes `cli.main`, and exit 2 comes with an
`error:` line.

The examples are derandomized, so every run draws the same inputs.
"""

import io
from contextlib import redirect_stderr, redirect_stdout

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from twistcap.cli import _COMMANDS, main
from twistcap.complexes import corpus, dumps_complex

COMPLEX_COMMANDS = ("validate", "orientation", "fundamental-class", "lemma1",
                    "lemma2", "phi-check", "cap-identity", "verify-duality")
SYSTEM_COMMANDS = ("verify-duality", "cap-identity")
RINGS = {"Z": "ring Z", "Q": "ring Q", "Z/3": "ring Zmod 3",
         "Z/4": "ring Zmod 4"}
# corpus complexes on at most 8 vertices, the starting points for mutation
SMALL = ("circle", "sphere2", "rp2", "sphere3")
BAD_COMPLEX_LINES = ("simplex 2 1", "simplex -1", "simplex a b", "simplex",
                     "dim x", "dim -1", "foo 1 2", "simplex 0 1 2 3 4 5",
                     "simplex 0 0")
BAD_SYSTEM_LINES = ("edge 1 0", "edge 0 99", "rank 0", "ring R", "edge a b",
                    "1/0", "x", "1 2 3", "ring Zmod 4",
                    "rank 99999999999999999999", "rank \u00b2")

SETTINGS = settings(max_examples=200, derandomize=True, database=None,
                    deadline=None,
                    suppress_health_check=[HealthCheck.too_slow,
                                           HealthCheck.function_scoped_fixture])


def run(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def assert_contract(code, err):
    assert code in (0, 1, 2)
    if code == 2:
        assert any(line.startswith("error:") for line in err.splitlines())


@st.composite
def mutated(draw, lines, bad_lines):
    """lines with up to two dropped and up to two malformed ones inserted;
    half of the draws leave them as they are."""
    lines = list(lines)
    for _ in range(draw(st.sampled_from((0, 0, 1, 2)))):
        if lines:
            del lines[draw(st.integers(0, len(lines) - 1))]
    for _ in range(draw(st.sampled_from((0, 0, 1, 2)))):
        lines.insert(draw(st.integers(0, len(lines))),
                     draw(st.sampled_from(bad_lines)))
    return "\n".join(lines) + "\n"


@st.composite
def complex_files(draw):
    if draw(st.booleans()):
        text = dumps_complex(corpus(draw(st.sampled_from(SMALL))))
        return draw(mutated(text.splitlines(), BAD_COMPLEX_LINES))
    dim = draw(st.integers(0, 3))
    simplices = draw(st.lists(
        st.lists(st.integers(0, 7), min_size=1, max_size=dim + 1,
                 unique=True).map(sorted), max_size=10))
    lines = [f"dim {dim}"] + ["simplex " + " ".join(map(str, s))
                              for s in simplices]
    return draw(mutated(lines, BAD_COMPLEX_LINES))


@st.composite
def system_files(draw):
    """(complex name, ring, system file text) with random edge matrices."""
    name = draw(st.sampled_from(SMALL))
    ring = draw(st.sampled_from(sorted(RINGS)))
    rank = draw(st.integers(1, 2))
    lines = [RINGS[ring], f"rank {rank}"]
    entry = st.sampled_from(("1", "1", "-1", "-1", "0", "2", "3", "1/2"))
    for u, v in corpus(name).faces(1):
        if draw(st.booleans()):
            lines.append(f"edge {u} {v}")
            for _ in range(rank):
                lines.append(" ".join(draw(entry) for _ in range(rank)))
    return name, ring, draw(mutated(lines, BAD_SYSTEM_LINES))


@SETTINGS
@given(text=complex_files(), command=st.sampled_from(COMPLEX_COMMANDS))
def test_random_complex_files_keep_the_exit_contract(tmp_path, text, command):
    path = tmp_path / "random.cx"
    path.write_text(text)
    argv = [command, "--complex", str(path)]
    if command == "cap-identity":
        argv += ["--trials", "2"]
    assert_contract(*run(argv)[::2])


@SETTINGS
@given(case=system_files(), command=st.sampled_from(SYSTEM_COMMANDS),
       wrong_ring=st.integers(0, 4).map(lambda i: i == 0))
def test_random_system_files_keep_the_exit_contract(tmp_path, case, command,
                                                    wrong_ring):
    name, ring, text = case
    path = tmp_path / "random.ls"
    path.write_text(text)
    argv = [command, "--complex", name, "--system", str(path),
            "--ring", "Q" if wrong_ring else ring]
    if command == "cap-identity":
        argv += ["--trials", "2"]
    assert_contract(*run(argv)[::2])


# Option values: well-formed ones, malformed ones and a little free text.
# Trial counts and the ranks that are accepted stay small, since each costs
# memory or time in proportion to its value; a rank above
# localsystems.MAX_RANK is refused before anything is built.
SPEC_RANKS = ("", "0", "1", "2", "-1", "x", " 2", "2.0",
              "99999999999999999999")
SPEC_SEEDS = ("", "0", "3", "-7", "99999999999999999999", "x")
OPTION_COMMANDS = COMPLEX_COMMANDS + ("check-mv", "diagram6")
OPTION_COMPLEXES = ("circle", "sphere2", "rp2", "torus", "klein", "octahedron",
                    "sphere3", "nope", "")
OPTION_RINGS = ("Z", "Q", "Z/2", "Z/3", "Z/4", "Zmod 5", "Zmod7", "Z/10007",
                "Z/1", "Z/0", "Z/-3", "Z/", "Z/x", "Z/\u00b2", "Z/\u0663",
                "z", "R", "", " Q ")
OPTION_INTS = ("0", "1", "2", "-1", "99999999999999999999", "x", "", "1.5")


@st.composite
def system_specs(draw):
    name = draw(st.sampled_from(("constant", "orientation", "random-flat",
                                 "flat", "", "no/such/file")))
    if name == "random-flat":
        parts = [draw(st.sampled_from(SPEC_SEEDS)),
                 draw(st.sampled_from(SPEC_RANKS))]
    else:
        parts = [draw(st.sampled_from(SPEC_RANKS))]
    parts = parts[:draw(st.integers(0, len(parts)))]
    return ":".join([name] + parts)


def text_or(values):
    return st.one_of(st.sampled_from(values), st.text(max_size=4))


@st.composite
def option_argvs(draw):
    command = draw(st.sampled_from(OPTION_COMMANDS))
    # a ring or seed only where the subcommand takes one, so that the
    # command line reaches its handler
    declared = _COMMANDS[command][1]
    options = {flag: values for flag, values in (
        ("--ring", text_or(OPTION_RINGS)), ("--seed", text_or(OPTION_INTS)),
        ("--format", st.sampled_from(("tsv", "plain", "xml"))))
        if flag in declared}
    if command == "check-mv":
        options["--cover"] = st.sampled_from(("cylinders", "hemispheres",
                                              "bands"))
    if command == "diagram6":
        options["--config"] = st.sampled_from(("torus", "sphere", "klein",
                                               "rp2"))
    else:
        options["--complex"] = text_or(OPTION_COMPLEXES)
    if command in SYSTEM_COMMANDS + ("check-mv", "diagram6"):
        options["--system"] = st.one_of(system_specs(), st.text(max_size=6))
    if command == "cap-identity" or draw(st.integers(0, 9)) == 0:
        options["--trials"] = st.sampled_from(("1", "2", "0", "-1", "x"))
    argv = [command]
    for flag, values in options.items():
        if draw(st.integers(0, 9)):  # one in ten left out
            argv += [flag, draw(values)]
    return argv


@SETTINGS
@given(argv=option_argvs())
def test_random_options_keep_the_exit_contract(argv):
    out, err = io.StringIO(), io.StringIO()
    try:
        with redirect_stdout(out), redirect_stderr(err):
            code = main(argv)
    except SystemExit as exc:  # argparse rejects the command line
        assert exc.code == 2 and ": error: " in err.getvalue()
    else:
        assert_contract(code, err.getvalue())
