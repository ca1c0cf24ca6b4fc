import numpy as np
import pytest
from hypothesis import settings, strategies as st
from hypothesis.errors import InvalidArgument

from inkfatigue.model import ALL_SETS, InkSignal, SetId, TASK_IDS, TaskRecord

# Under --hypothesis-profile=ci a failing property prints the
# @reproduce_failure line that replays it. The profile extends the "ci"
# profile of the hypothesis versions that ship one.
try:
    _CI_PARENT = settings.get_profile("ci")
except InvalidArgument:
    _CI_PARENT = None
settings.register_profile("ci", _CI_PARENT, print_blob=True)

SUBJECT_ALPHABET = "ABCDEFGHJKMNPQRSTUVWXYZabcdefghkmnpqrstuvwxyz0123456789_.-"


def random_record(rng: np.random.Generator) -> TaskRecord:
    """One random valid TaskRecord, exercising boundary channel values."""
    n = int(rng.integers(2, 50))
    pressure = rng.integers(0, 2048, size=n)
    # Make pen-up runs and boundary values common.
    pressure[rng.random(n) < 0.3] = 0
    if rng.random() < 0.2:
        pressure[int(rng.integers(0, n))] = 2047
    signal = InkSignal(
        x=rng.integers(-30000, 30000, size=n),
        y=rng.integers(-30000, 30000, size=n),
        pressure=pressure,
        azimuth=rng.integers(0, 360, size=n),
        altitude=rng.integers(0, 91, size=n),
    )
    subject = "."
    while not subject.strip("."):  # an id of dots only is no subject id
        subject = "".join(
            rng.choice(list(SUBJECT_ALPHABET), size=int(rng.integers(1, 12)))
        )
    metadata = {}
    if rng.random() < 0.5:
        metadata["device"] = f"tablet-{int(rng.integers(0, 100))}"
    if rng.random() < 0.3:
        metadata["date"] = f"2024-0{int(rng.integers(1, 10))}-01"
    return TaskRecord(
        subject_id=subject,
        set_id=ALL_SETS[int(rng.integers(0, 5))],
        task=TASK_IDS[int(rng.integers(0, 9))],
        signal=signal,
        metadata=metadata,
    )


def make_record(
    pressure,
    x=None,
    y=None,
    subject="U01",
    set_id=SetId.S1,
    task=1,
) -> TaskRecord:
    """Record with a prescribed pressure series and simple coordinates."""
    n = len(pressure)
    if x is None:
        x = np.arange(n) * 3
    if y is None:
        y = np.arange(n) * 4
    signal = InkSignal(
        x=np.asarray(x),
        y=np.asarray(y),
        pressure=np.asarray(pressure),
        azimuth=np.full(n, 200),
        altitude=np.full(n, 60),
    )
    return TaskRecord(subject_id=subject, set_id=set_id, task=task, signal=signal)


@pytest.fixture
def rng():
    return np.random.default_rng(20240917)


# --- number tokens ------------------------------------------------------------

#: First code point of the digits 0-9 in scripts other than ASCII:
#: Arabic-Indic, Devanagari and fullwidth.
_DIGIT_ZEROS = (0x660, 0x966, 0xFF10)


@st.composite
def lax_numbers(draw, values, padded=True):
    """Number text that float() reads but the ASCII decimal grammar rejects:
    a value of ``values`` with a non-ASCII digit, a ``_`` between digits or
    (when ``padded``) surrounding whitespace; or a spelling of nan or inf."""
    text = repr(draw(values))
    digits = [i for i, c in enumerate(text) if c.isdigit()]
    pairs = [i for i in digits if i + 1 in digits]
    edits = ["special", "digit"] + (["underscore"] if pairs else []) + (["pad"] if padded else [])
    edit = draw(st.sampled_from(edits))
    if edit == "special":
        return draw(st.sampled_from(["nan", "NaN", "-nan", "inf", "-inf", "+inf", "Infinity"]))
    if edit == "digit":
        i = draw(st.sampled_from(digits))
        return text[:i] + chr(draw(st.sampled_from(_DIGIT_ZEROS)) + int(text[i])) + text[i + 1:]
    if edit == "underscore":
        i = draw(st.sampled_from(pairs)) + 1
        return text[:i] + "_" + text[i:]
    space = st.sampled_from(" \t\xa0\u3000")
    return draw(space) + text + draw(st.sampled_from(["", draw(space)]))
