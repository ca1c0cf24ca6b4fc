import os
import threading
import time

import numpy as np
import pytest
from hypothesis import Phase, settings, strategies as st
from hypothesis.errors import InvalidArgument

from inkfatigue.model import ALL_SETS, InkSignal, SetId, StudyCorpus, TASK_IDS, TaskRecord
from inkfatigue.synth import SynthProfile, generate_task

# Under --hypothesis-profile=ci a failing property prints the
# @reproduce_failure line that replays it. The profile extends the "ci"
# profile of the hypothesis versions that ship one.
try:
    _CI_PARENT = settings.get_profile("ci")
except InvalidArgument:
    _CI_PARENT = None
settings.register_profile("ci", _CI_PARENT, print_blob=True)
# tests/mutants.py needs only a failing example, not the smallest one: a
# property that catches a mutant fails at once instead of shrinking first.
settings.register_profile("mutants", phases=[p for p in Phase if p is not Phase.shrink])

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


def sets_corpus(profile: SynthProfile, sets) -> StudyCorpus:
    """The records of ``sets`` alone, each subject's sets in the order given,
    through ``generate_task``: a test needing fewer than five sets skips
    synthesizing the rest."""
    return StudyCorpus(
        generate_task(profile, subject, set_id, task)
        for subject in profile.subject_ids()
        for set_id in sets
        for task in TASK_IDS
    )


def call_beside_fifos(call, fifos, timeout=10.0):
    """``call()`` on a thread of its own, which must return within ``timeout``
    seconds though the named pipes ``fifos`` have no writer. A read of one
    would block; each pipe is then opened and closed for writing until the
    thread ends, so the reader sees end of file and nothing is left behind."""
    result = []

    def run():
        try:
            result.append(call())
        except BaseException as exc:  # raised again on the test's thread
            result.append(exc)

    thread = threading.Thread(target=run, daemon=True)
    thread.start()
    thread.join(timeout)
    hung = thread.is_alive()
    deadline = time.monotonic() + timeout
    while thread.is_alive() and time.monotonic() < deadline:
        for fifo in fifos:
            try:
                os.close(os.open(fifo, os.O_WRONLY | os.O_NONBLOCK))
            except OSError:  # ENXIO: no reader has it open yet
                pass
        thread.join(0.05)
    assert not hung, f"still running after {timeout} s: a named pipe was opened"
    if isinstance(result[0], BaseException):
        raise result[0]
    return result[0]


needs_fifo = pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="os.mkfifo is not available")


def unread_records():
    """A record stream that fails the test if anything reads from it."""
    pytest.fail("a record was read")
    yield


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
