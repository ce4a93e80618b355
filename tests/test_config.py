import pytest

from ipdyn import config
from ipdyn.config import ParseError, ValidationError, parse_config
from ipdyn.dynamics import BadRules, SubstitutionSystem

SYSTEM = "[system S]\nrules = 0 -> 0010; 1 -> 1\n"

# (config text, exception class, exact message): one entry per error path
ERRORS = [
    # syntax
    ("[ ]\n", ParseError, "line 1: empty section header"),
    ("[run]\n= 1\n", ParseError, "line 2: empty key"),
    ("[run]\nwindow = 1\nwindow = 2\n", ParseError, "line 3: duplicate key 'window'"),
    # repeated sections, also when spaced differently
    ("[run]\nwindow = 1\n[run]\nwindow = 5\n", ParseError, "line 3: duplicate section [run]"),
    (
        SYSTEM + "[system  S]\nrules = 0 -> 01; 1 -> 0\n",
        ParseError,
        "line 3: duplicate section [system  S]",
    ),
    # unknown keys, checked before the section is parsed; the first in
    # file order is named
    (
        SYSTEM + "max_word_length = 10\nseed = 1\n",
        ValidationError,
        "section [system S]: unknown key 'max_word_length'",
    ),
    (
        "[system S]\nseed = 1\nrules = 0 -> 1\n",
        ValidationError,
        "section [system S]: unknown key 'seed'",
    ),
    # a system's language is always its subshift's: no fixed depth
    (SYSTEM + "depth = 3\n", ValidationError, "section [system S]: unknown key 'depth'"),
    (
        SYSTEM + "[set U]\nsystem = S\nword = 0\nwrod = 11\n",
        ValidationError,
        "section [set U]: unknown key 'wrod'",
    ),
    ("[poly p]\nexp = n\n", ValidationError, "section [poly p]: unknown key 'exp'"),
    (
        "[gamma g]\nexpr = T1^{n}\nmembers = T1^{n}\n",
        ValidationError,
        "section [gamma g]: unknown key 'members'",
    ),
    (
        "[gamma-system G]\nexpr = T1^{n}\n",
        ValidationError,
        "section [gamma-system G]: unknown key 'expr'",
    ),
    ("[fs F]\ngenerator = 1\n", ValidationError, "section [fs F]: unknown key 'generator'"),
    (
        "[run]\nwindow = 5\nbase_power = 2\n",
        ValidationError,
        "section [run]: unknown key 'base_power'",
    ),
    # unnamed sections
    ("[system]\nrules = 0 -> 1\n", ValidationError, "section [system] needs a name"),
    ("[set]\nsystem = S\n", ValidationError, "section [set] needs a name"),
    ("[poly]\nexpr = n\n", ValidationError, "section [poly] needs a name"),
    ("[gamma]\nexpr = T1^{n}\n", ValidationError, "section [gamma] needs a name"),
    (
        "[gamma-system]\nmembers = T1^{n}\n",
        ValidationError,
        "section [gamma-system] needs a name",
    ),
    ("[fs]\ngenerators = 1\n", ValidationError, "section [fs] needs a name"),
    # missing required keys
    ("[poly p]\n", ValidationError, "section [poly p]: missing 'expr'"),
    ("[gamma g]\n", ValidationError, "section [gamma g]: missing 'expr'"),
    (
        "[gamma-system G]\n",
        ValidationError,
        "section [gamma-system G]: missing 'members'",
    ),
    ("[fs F]\n", ValidationError, "section [fs F]: missing 'generators'"),
    # [system]
    (
        "[system S]\nseeds = 0\n",
        ValidationError,
        "section [system S]: substitution systems need a 'rules' entry",
    ),
    (
        "[system S]\nkind = rotation\nrules = 0 -> 1\n",
        ValidationError,
        "section [system S]: unknown system kind 'rotation'",
    ),
    (
        "[system S]\nrules = 0 0010\n",
        ValidationError,
        "section [system S]: rule '0 0010' lacks '->'",
    ),
    (
        "[system S]\nrules = 01 -> 0\n",
        ValidationError,
        "section [system S]: rule source must be one symbol: '01'",
    ),
    (
        "[system S]\nrules = 0 -> 1; 0 -> 11\n",
        ValidationError,
        "section [system S]: duplicate rule for '0'",
    ),
    (
        "[system S]\nrules = ;\n",
        ValidationError,
        "section [system S]: no rules found in ';'",
    ),
    (
        "[system S]\nrules = 0 ->\n",
        ValidationError,
        "section [system S]: rule for '0' is erasing",
    ),
    (
        "[system S]\nrules = 0 -> 01\n",
        ValidationError,
        "section [system S]: rule for '0' uses unknown symbol '1'",
    ),
    (
        SYSTEM + "seeds = 2\n",
        ValidationError,
        "section [system S]: seed '2' has no rule",
    ),
    (
        SYSTEM + "seeds = ,\n",
        ValidationError,
        "section [system S]: at least one seed is required",
    ),
    (
        SYSTEM + "max-word-length = 0\n",
        ValidationError,
        "section [system S]: max word length must be >= 1, got 0",
    ),
    (
        SYSTEM + "max-word-length = 1e3\n",
        ValidationError,
        "section [system S], key 'max-word-length': not an integer: '1e3'",
    ),
    # [poly]
    (
        "[poly p]\nexpr = n/2\n",
        ValidationError,
        "section [poly p]: not an integral polynomial: "
        "coefficient of C(n,1) is 1/2, not an integer",
    ),
    (
        "[poly p]\nexpr = n +\n",
        ValidationError,
        "section [poly p]: expected a term in 'n +', got ''",
    ),
    # [gamma] and [gamma-system]
    (
        "[gamma g]\nexpr = X\n",
        ValidationError,
        "section [gamma g]: expected a factor like 'T1^{n^2}', got 'X'",
    ),
    (
        "[gamma g]\nexpr = T1^{n/2}\n",
        ValidationError,
        "section [gamma g]: coefficient of C(n,1) is 1/2, not an integer",
    ),
    (
        "[gamma-system G]\nmembers = ;\n",
        ValidationError,
        "section [gamma-system G]: empty system expression ';'",
    ),
    (
        "[gamma-system G]\nmembers = T1^{n}; T0^{n}\n",
        ValidationError,
        "section [gamma-system G]: generator index must be >= 1: T0",
    ),
    # [fs]
    (
        "[fs F]\ngenerators = 1, x\n",
        ValidationError,
        "section [fs F], key 'generators': not an integer: 'x'",
    ),
    (
        "[fs F]\ngenerators = ,\n",
        ValidationError,
        "section [fs F], key 'generators': empty list",
    ),
    # unknown section kind
    ("[bogus X]\nkey = 1\n", ValidationError, "unknown section kind [bogus X]"),
    # [set]
    ("[set U]\nword = 0\n", ValidationError, "section [set U]: missing 'system'"),
    (
        "[set U]\nsystem = nope\nword = 0\n",
        ValidationError,
        "section [set U]: undefined system 'nope'",
    ),
    (
        SYSTEM + "[set U]\nsystem = S\n",
        ValidationError,
        "section [set U]: missing 'word'",
    ),
    (
        SYSTEM + "[set U]\nsystem = S\nword = 11\n",
        ValidationError,
        "section [set U]: word '11' is not admissible",
    ),
    # undefined [run] references, single and list
    *[
        (
            f"[run]\n{key} = nope\n",
            ValidationError,
            f"section [run], key {key!r}: undefined reference 'nope'",
        )
        for key in (
            "system", "u", "v", "gamma-system", "vs", "polys", "gammas", "truncations"
        )
    ],
    (
        "[poly p]\nexpr = n\n[run]\npolys = p, q\n",
        ValidationError,
        "section [run], key 'polys': undefined reference 'q'",
    ),
]


@pytest.mark.parametrize(("text", "error", "message"), ERRORS)
def test_config_errors(text, error, message):
    with pytest.raises(error) as info:
        parse_config(text)
    assert type(info.value) is error
    assert str(info.value) == message


def test_one_name_in_two_kinds_is_no_repeat():
    cfg = parse_config("[poly p]\nexpr = n\n[fs p]\ngenerators = 1\n")
    assert cfg.truncations == {"p": (1,)} and str(cfg.polys["p"]) == "n"


class TestSystemSections:
    def test_parse_rules(self):
        assert config.parse_rules("0 -> 0010; 1 -> 1") == {"0": "0010", "1": "1"}
        with pytest.raises(BadRules):
            config.parse_rules("0 0010")
        with pytest.raises(BadRules):
            config.parse_rules("0 -> 1; 0 -> 11")

    def test_build_system(self):
        sub = config.build_system({"kind": "substitution", "rules": "0 -> 01; 1 -> 0"})
        assert isinstance(sub, SubstitutionSystem)
        with pytest.raises(BadRules):
            config.build_system({"kind": "rotation", "modulus": "7", "step": "3"})
        with pytest.raises(BadRules):
            config.build_system({"kind": "nonsense"})
