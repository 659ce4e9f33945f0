"""Semantics of the validated environment parsers (repro.core.env)."""

from __future__ import annotations

import pytest

from repro.core.env import env_flag, env_float, env_int, env_str

VAR = "REPRO_TEST_KNOB"


# ----------------------------------------------------------------------
# env_flag
# ----------------------------------------------------------------------
def test_flag_unset_returns_default(monkeypatch):
    monkeypatch.delenv(VAR, raising=False)
    assert env_flag(VAR) is False
    assert env_flag(VAR, default=True) is True


@pytest.mark.parametrize("raw", ["1", "true", "YES", " on "])
def test_flag_truthy_spellings(monkeypatch, raw):
    monkeypatch.setenv(VAR, raw)
    assert env_flag(VAR) is True


@pytest.mark.parametrize("raw", ["", "0", "false", "No", " OFF "])
def test_flag_falsy_spellings(monkeypatch, raw):
    monkeypatch.setenv(VAR, raw)
    assert env_flag(VAR, default=True) is False


def test_flag_malformed_names_variable(monkeypatch):
    monkeypatch.setenv(VAR, "maybe")
    with pytest.raises(ValueError, match=VAR):
        env_flag(VAR)


# ----------------------------------------------------------------------
# env_int
# ----------------------------------------------------------------------
def test_int_unset_returns_default(monkeypatch):
    monkeypatch.delenv(VAR, raising=False)
    assert env_int(VAR, 42) == 42


def test_int_parses_value(monkeypatch):
    monkeypatch.setenv(VAR, " 17 ")
    assert env_int(VAR, 0) == 17


def test_int_malformed_names_variable(monkeypatch):
    monkeypatch.setenv(VAR, "12MB")
    with pytest.raises(ValueError, match=VAR):
        env_int(VAR, 0, what="size bound")


def test_int_empty_is_malformed_by_default(monkeypatch):
    monkeypatch.setenv(VAR, "")
    with pytest.raises(ValueError, match=VAR):
        env_int(VAR, 0)


def test_int_empty_warns_falls_back(monkeypatch):
    monkeypatch.setenv(VAR, "   ")
    with pytest.warns(UserWarning, match=VAR):
        assert env_int(VAR, 99, empty_warns=True) == 99


def test_int_minimum_zero_message(monkeypatch):
    monkeypatch.setenv(VAR, "-3")
    with pytest.raises(ValueError, match="non-negative"):
        env_int(VAR, 0, minimum=0)


def test_int_minimum_general_message(monkeypatch):
    monkeypatch.setenv(VAR, "3")
    with pytest.raises(ValueError, match="at least 8"):
        env_int(VAR, 16, minimum=8)
    monkeypatch.setenv(VAR, "8")
    assert env_int(VAR, 16, minimum=8) == 8


# ----------------------------------------------------------------------
# env_str
# ----------------------------------------------------------------------
def test_str_unset_and_empty_return_default(monkeypatch):
    monkeypatch.delenv(VAR, raising=False)
    assert env_str(VAR) is None
    assert env_str(VAR, "fallback") == "fallback"
    monkeypatch.setenv(VAR, "")
    assert env_str(VAR, "fallback") == "fallback"


def test_str_choices_enforced(monkeypatch):
    monkeypatch.setenv(VAR, "fork")
    assert env_str(VAR, choices=("fork", "spawn")) == "fork"
    monkeypatch.setenv(VAR, "thread")
    with pytest.raises(ValueError, match=VAR):
        env_str(VAR, choices=("fork", "spawn"))


# ----------------------------------------------------------------------
# env_float
# ----------------------------------------------------------------------
def test_float_unset_returns_default(monkeypatch):
    monkeypatch.delenv(VAR, raising=False)
    assert env_float(VAR, 0.25) == 0.25


@pytest.mark.parametrize("raw,value", [("0.7", 0.7), (" 2 ", 2.0),
                                       ("1e-2", 0.01), ("-3.5", -3.5)])
def test_float_parses_value(monkeypatch, raw, value):
    monkeypatch.setenv(VAR, raw)
    assert env_float(VAR, 0.0) == value


@pytest.mark.parametrize("raw", ["", "fast", "0.7x", "nan", "inf",
                                 "-inf"])
def test_float_malformed_or_non_finite_names_variable(monkeypatch, raw):
    monkeypatch.setenv(VAR, raw)
    with pytest.raises(ValueError, match=VAR):
        env_float(VAR, 1.0)
