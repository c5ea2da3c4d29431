"""Text formats: ofctl-style flow rules."""

from .ofctl import (
    OfctlParseError,
    install_rules,
    parse_rule,
    parse_rules,
)

__all__ = [
    "OfctlParseError",
    "install_rules",
    "parse_rule",
    "parse_rules",
]
