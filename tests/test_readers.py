"""Property test: every reader of outside input either parses or raises
FrontdoorLabError, whatever text or bytes it is given."""

import re
from contextlib import suppress

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from frontdoor_lab.causal_graph import dag_from_text, load_graph
from frontdoor_lab.dataset import dataset_from_csv
from frontdoor_lab.errors import FrontdoorLabError
from frontdoor_lab.frontdoor_estimator import effect_from_csv
from frontdoor_lab.runconfig import load_config, parse_config
from frontdoor_lab.scm_sim import population_from_csv
from frontdoor_lab.spline_smooth import fit_from_json

# one valid input per format; drawn edits of it reach the checks past the header
TERM = (
    '{"degree": 3, "knots": [-1.0, 0.0, 1.0], "coefficients": [0.5, 0.0, 1.0, 2.0, -1.0], '
    '"lambda": 1.0, "edf": 2.5, "gcv": 0.1}'
)
CONFIG = "seed = 1\nn = 10\nm = 2\ngrid = -1:1:3\nsigma_z = 0.5\nmiss_x_a = 2.0 # note\n"
GRAPH = "# comment\nnode U latent\nnode X observed\nnode Z observed\nedge U X\nedge X Z\n"
VALID = {
    dataset_from_csv: "x,z,y\r\n1.0,NA,0.5\r\nNA,2.0,-1.0\r\n0.0,1.5,2.0\r\n",
    population_from_csv: "u,x,z,y\r\n0.1,0.2,0.3,0.4\r\n-1.0,0.0,1.0,2.0\r\n",
    effect_from_csv: (
        "x,oracle_ace,mi_pooled_ace,mi_ace_1,mi_ace_2,mi_q05,mi_q95,cc_ace,cc_q05,cc_q95\r\n"
        "-1.0,1.0,1.0,1.0,1.0,0.5,1.5,1.25,0.75,1.75\r\n"
        "1.0,2.0,2.0,2.0,2.0,1.5,2.5,2.25,1.75,2.75\r\n"
    ),
    load_config: CONFIG,
    parse_config: CONFIG,
    load_graph: GRAPH,
    dag_from_text: GRAPH,
    fit_from_json: (
        '{"intercept": 0.5, "converged": true, "terms": [' + TERM + ", " + TERM + "], "
        '"residuals": [0.1, -0.1, 0.0]}'
    ),
}
# the readers' own vocabulary
TOKENS = [
    "x,z,y", "u,x,z,y", "mi_ace_1", "mi_ace_3", "cc_ace",
    "NA", "nan", "inf", "-inf", "1e999", "0", "-0.0", "1.5", "-2", "3", "5e-324",
    ":", "=", ",", "#", "seed", "n", "m", "grid", "out", "sigma_z", "x_prime_low",
    "node", "edge", "observed", "latent", "X", "Z",
    '"degree"', '"knots"', '"coefficients"', '"lambda"', '"edf"', '"gcv"', '"residuals"',
    '"intercept"', '"converged"', '"terms"', "{", "}", "[", "]", '"', "NaN", "Infinity",
    "true", "null", "9" * 400,
    "\x00", "\ufeff",
]
SEPARATORS = [" ", ",", "\n", "\r\n", ""]


def texts(reader):
    """Arbitrary text, token soup, and the reader's valid input with up to
    four of its tokens or separators replaced (an empty one deletes)."""
    parts = re.split(r"([ ,=:\n])", VALID[reader])
    edit = st.tuples(st.integers(0, len(parts) - 1), st.sampled_from(TOKENS + SEPARATORS))

    def edited(edits):
        out = list(parts)
        for at, token in edits:
            out[at] = token
        return "".join(out)

    soup = st.lists(st.tuples(st.sampled_from(TOKENS), st.sampled_from(SEPARATORS)), max_size=40)
    return st.one_of(
        st.text(max_size=200),
        soup.map(lambda pairs: "".join(token + sep for token, sep in pairs)),
        st.lists(edit, max_size=4).map(edited),
    )


def blobs(reader):
    """The reader's texts as UTF-8, some with a byte that is not UTF-8 spliced in."""
    return st.tuples(texts(reader), st.integers(0, 200), st.booleans()).map(
        lambda drawn: _with_bad_byte(*drawn)
    )


def _with_bad_byte(text: str, at: int, bad: bool) -> bytes:
    raw = text.encode("utf-8")
    if not bad:
        return raw
    at = min(at, len(raw))
    return raw[:at] + b"\xff" + raw[at:]


FILE_READERS = [dataset_from_csv, population_from_csv, effect_from_csv, load_config, load_graph]
TEXT_READERS = [parse_config, dag_from_text, fit_from_json]
# derandomized, so a run checks the same inputs every time
EXAMPLES = settings(max_examples=150, derandomize=True, database=None, deadline=None)


@pytest.mark.parametrize("reader", FILE_READERS, ids=lambda reader: reader.__name__)
def test_file_reader_parses_or_raises_frontdoor_error(reader, tmp_path_factory):
    path = tmp_path_factory.mktemp(reader.__name__) / "input"

    @EXAMPLES
    @given(blobs(reader))
    def check(raw):
        path.write_bytes(raw)
        with suppress(FrontdoorLabError):
            reader(path)

    check()


@pytest.mark.parametrize("reader", TEXT_READERS, ids=lambda reader: reader.__name__)
def test_text_reader_parses_or_raises_frontdoor_error(reader):
    @EXAMPLES
    @given(texts(reader))
    def check(text):
        with suppress(FrontdoorLabError):
            reader(text)

    check()


@pytest.mark.parametrize("reader", list(VALID), ids=lambda reader: reader.__name__)
def test_valid_inputs_parse(reader, tmp_path):
    if reader in FILE_READERS:
        path = tmp_path / "input"
        path.write_text(VALID[reader], encoding="utf-8", newline="")
        reader(path)
    else:
        reader(VALID[reader])
