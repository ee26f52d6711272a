import pytest

from lamtrans import corpus_path
from lamtrans.gls import load_gls
from lamtrans.transducer import load_transducer
from lamtrans.treegen import run
from lamtrans.walking import WalkingMachine, load_iptt, load_twt


@pytest.fixture(scope="session")
def count():
    return load_transducer(corpus_path("count.lt"))


@pytest.fixture(scope="session")
def seqnat():
    return load_transducer(corpus_path("seq-nat.lt"))


@pytest.fixture(scope="session")
def bin2bin():
    return load_transducer(corpus_path("bin2bin.lt"))


@pytest.fixture(scope="session")
def listcount():
    return load_transducer(corpus_path("list-count.lt"))


@pytest.fixture(scope="session")
def count_twt():
    return load_twt(corpus_path("count-twt.twt"))


@pytest.fixture(scope="session")
def seqnat_twt():
    return load_twt(corpus_path("seq-nat-twt.twt"))


@pytest.fixture(scope="session")
def bin2unary():
    return load_iptt(corpus_path("bin2unary.iptt"))


@pytest.fixture(scope="session")
def mirror():
    return load_gls(corpus_path("mirror.gls"))


def unary(n):
    """S^n(0) as a tree string."""
    return "S(" * n + "0" + ")" * n


def numeral(n):
    """The msb-first binary encoding of n as a tree string over {0,1,e}."""
    digits = bin(n)[2:] if n else "0"
    return "(".join(digits) + "(e" + ")" * len(digits)


def random_tree(rng, n):
    """A seeded tree over {a:2, b:1, c:0} with exactly n nodes."""
    if n == 1:
        return "c"
    if n == 2 or rng.random() < 1 / 3:
        return f"b({random_tree(rng, n - 1)})"
    k = rng.randint(1, n - 2)
    return f"a({random_tree(rng, k)},{random_tree(rng, n - 1 - k)})"


def run_walking(spec, tau):
    """Run the walking machine of a TWT or IPTT spec on tau to its result."""
    m = WalkingMachine(spec, tau)
    return run(m, m.initial())
