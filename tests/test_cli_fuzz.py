"""Random input files through the CLI: every input ends in exit 0, 1 or 2,
no exception escapes `cli.main`, and exit 2 comes with an `error:` line.

The examples are derandomized, so every run draws the same inputs.
"""

import io
from contextlib import redirect_stderr, redirect_stdout

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from twistcap.cli import main
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
                    "1/0", "x", "1 2 3", "ring Zmod 4")

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
