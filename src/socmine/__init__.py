"""socmine: hashtag networks, n-gram counts, timelines, vocabulary coding
and lexicon sentiment for small social-media corpora."""

__version__ = "0.1.0"

from .config import load_config

__all__ = ["__version__", "load_config"]
