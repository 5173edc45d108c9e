"""socmine: hashtag networks, n-gram counts, timelines, vocabulary coding
and lexicon sentiment for small social-media corpora."""

__version__ = "0.1.0"

__all__ = ["__version__", "load_config"]


def __getattr__(name: str):
    # load_config is looked up on first use (PEP 562), so `import socmine`
    # imports neither config nor PyYAML.
    if name == "load_config":
        from .config import load_config

        return load_config
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
