"""Affine lambda-transducers over ranked trees, their token machines, and
compilation to tree-walking and pebble transducers."""

from importlib.resources import files

__version__ = "0.1.0"


def corpus_path(name):
    """Filesystem path of a bundled corpus file, e.g.
    corpus_path("count.lt")."""
    return str(files(__name__) / "corpus" / name)
