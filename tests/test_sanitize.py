"""Tests for ``repro-lint --sanitize``, the runtime contract shim and
its ``live_resources`` probe.

Each behavioural test builds a miniature package under ``tmp_path``,
sanitizes it, and imports the shadow copy under a unique package name so
the instrumented wrappers execute for real — the closest in-process
analogue of running the suite with ``PYTHONPATH=build/sanitized``.
"""

from __future__ import annotations

import importlib
import itertools
import os
import subprocess
import sys
import textwrap
import types
from pathlib import Path

import pytest

import repro
from repro.analysis import _contracts_runtime as runtime
from repro.analysis._contracts_runtime import ProbeViolation, probe
from repro.analysis.sanitize import sanitize_package

SRC_REPRO = Path(repro.__file__).resolve().parent

_COUNTER = itertools.count()


def _build(tmp_path: Path, kern_source: str, extra: dict[str, str] | None = None):
    """Write a one-module package and return (package dir, shadow outdir)."""
    name = f"sanipkg_{next(_COUNTER)}"
    package = tmp_path / "input" / name
    package.mkdir(parents=True)
    (package / "__init__.py").write_text("")
    (package / "kern.py").write_text(textwrap.dedent(kern_source))
    for relpath, source in (extra or {}).items():
        (package / relpath).write_text(textwrap.dedent(source))
    return package, tmp_path / "shadow"


def _import_shadow(monkeypatch, package: Path, outdir: Path):
    """Sanitize ``package`` and import the shadow's ``kern`` module."""
    report = sanitize_package(package, outdir)
    monkeypatch.syspath_prepend(str(outdir))
    kern = importlib.import_module(f"{package.name}.kern")
    runtime = importlib.import_module(f"{package.name}._contracts_runtime")
    return kern, runtime, report


class TestRuntimeContracts:
    def test_pure_violation_raises(self, tmp_path, monkeypatch):
        package, outdir = _build(
            tmp_path,
            """\
            def leaky(values: list) -> list:
                '''Pure: (falsely).'''
                values.append(1)
                return values
            """,
        )
        kern, runtime, report = _import_shadow(monkeypatch, package, outdir)
        assert report.functions_instrumented == 1
        with pytest.raises(runtime.ContractViolation, match="'values'"):
            kern.leaky([1, 2])

    def test_honest_pure_passes(self, tmp_path, monkeypatch):
        package, outdir = _build(
            tmp_path,
            """\
            def total(values: list) -> int:
                '''Pure:'''
                return sum(values)
            """,
        )
        kern, _, _ = _import_shadow(monkeypatch, package, outdir)
        assert kern.total([1, 2, 3]) == 6
        assert kern.total.__wrapped__ is not None

    def test_mutates_allows_declared_and_catches_undeclared(
        self, tmp_path, monkeypatch
    ):
        package, outdir = _build(
            tmp_path,
            """\
            def push(store: list, item: int, log: list) -> None:
                '''Mutates: store'''
                store.append(item)


            def sneaky(store: list, item: int, log: list) -> None:
                '''Mutates: store'''
                store.append(item)
                log.append(item)
            """,
        )
        kern, runtime, _ = _import_shadow(monkeypatch, package, outdir)
        store: list = []
        kern.push(store, 7, [])
        assert store == [7]
        with pytest.raises(runtime.ContractViolation, match="'log'"):
            kern.sneaky(store, 8, [])

    def test_monotone_probe_enforced(self, tmp_path, monkeypatch):
        package, outdir = _build(
            tmp_path,
            """\
            class Box:
                def __init__(self) -> None:
                    self.items: set[int] = set()

                def __iter__(self):
                    return iter(set(self.items))

                def contains(self, item: int) -> bool:
                    return item in self.items

                def add(self, item: int) -> None:
                    '''Mutates: self

                    Monotone: self via contains
                    '''
                    self.items.add(item)

                def drop(self, item: int) -> None:
                    '''Mutates: self

                    Monotone: self via contains
                    '''
                    self.items.discard(item)
            """,
        )
        kern, runtime, report = _import_shadow(monkeypatch, package, outdir)
        assert report.functions_instrumented == 2
        box = kern.Box()
        box.add(1)
        box.add(2)  # old member 1 still contained: fine
        with pytest.raises(runtime.ContractViolation, match="contains"):
            box.drop(1)

    def test_check_budget_turns_wrapper_into_passthrough(
        self, tmp_path, monkeypatch
    ):
        monkeypatch.setenv("REPRO_CONTRACTS_MAX_CHECKS", "0")
        package, outdir = _build(
            tmp_path,
            """\
            def leaky(values: list) -> list:
                '''Pure: (falsely).'''
                values.append(1)
                return values
            """,
        )
        kern, _, _ = _import_shadow(monkeypatch, package, outdir)
        assert kern.leaky([1]) == [1, 1]  # budget exhausted: no check ran

    def test_exceptions_propagate_without_after_checks(self, tmp_path, monkeypatch):
        package, outdir = _build(
            tmp_path,
            """\
            def explode(values: list) -> None:
                '''Pure:'''
                values.append(1)
                raise RuntimeError("boom")
            """,
        )
        kern, _, _ = _import_shadow(monkeypatch, package, outdir)
        with pytest.raises(RuntimeError, match="boom"):
            kern.explode([1])


class TestSanitizeStructure:
    def test_shadow_tree_layout(self, tmp_path, monkeypatch):
        package, outdir = _build(
            tmp_path,
            """\
            def total(values: list) -> int:
                '''Pure:'''
                return sum(values)
            """,
            extra={"plain.py": "UNTOUCHED = 1\n"},
        )
        _, _, report = _import_shadow(monkeypatch, package, outdir)
        shadow = outdir / package.name
        assert (shadow / "_contracts_runtime.py").exists()
        instrumented = (shadow / "kern.py").read_text()
        assert "Generated by `repro-lint --sanitize`" in instrumented
        assert "@_repro_contract__(pure=True)" in instrumented
        assert "from ._contracts_runtime import contract as _repro_contract__" in (
            instrumented
        )
        # Contract-free files are copied byte-for-byte.
        assert (shadow / "plain.py").read_text() == (package / "plain.py").read_text()
        assert report.files_instrumented == 1
        assert report.files_copied == 2  # __init__.py + plain.py

    def test_file_pragmas_survive_unparse(self, tmp_path):
        package, outdir = _build(
            tmp_path,
            """\
            # repro-lint: disable-file=RPR002
            def masked(index: int, sink: list) -> None:
                '''Mutates: sink'''
                sink.append(1 << index)
            """,
        )
        sanitize_package(package, outdir)
        instrumented = (outdir / package.name / "kern.py").read_text()
        assert "# repro-lint: disable-file=RPR002" in instrumented

    def test_ordered_pragmas_become_a_file_level_pass(self, tmp_path):
        # ast.unparse loses the site-level `# pragma: repro-lint ordered`
        # comments RPR107 reads, so an instrumented module that had any
        # must carry a file-level RPR107 pass in the shadow copy.
        package, outdir = _build(
            tmp_path,
            """\
            def merge(parts: list) -> set:
                '''Pure: parts'''
                return set(parts)  # pragma: repro-lint ordered
            """,
        )
        sanitize_package(package, outdir)
        instrumented = (outdir / package.name / "kern.py").read_text()
        assert "disable-file=RPR107" in instrumented

    def test_inline_disables_become_a_file_level_pass(self, tmp_path):
        package, outdir = _build(
            tmp_path,
            """\
            def masked(index: int, sink: list) -> None:
                '''Mutates: sink'''
                sink.append(1 << index)  # repro-lint: disable=RPR002, RPR005
            """,
        )
        sanitize_package(package, outdir)
        instrumented = (outdir / package.name / "kern.py").read_text()
        assert "# repro-lint: disable-file=RPR002,RPR005" in instrumented

    def test_grammar_error_contracts_are_skipped_not_enforced(self, tmp_path):
        package, outdir = _build(
            tmp_path,
            """\
            def contradictory(values: list) -> None:
                '''Pure:
                Mutates: values
                '''
            """,
        )
        report = sanitize_package(package, outdir)
        assert report.skipped_contracts == ["kern.py:contradictory"]
        assert report.files_instrumented == 0
        # The broken-contract module falls back to a verbatim copy.
        assert (outdir / package.name / "kern.py").read_text() == (
            package / "kern.py"
        ).read_text()

    def test_rejects_non_package_directory(self, tmp_path):
        bare = tmp_path / "bare"
        bare.mkdir()
        with pytest.raises(ValueError, match="__init__.py"):
            sanitize_package(bare, tmp_path / "out")


class TestRealPackage:
    def test_sanitized_repro_covers_smoke(self, tmp_path):
        """The sanitized real package imports and enforces the cover contracts."""
        outdir = tmp_path / "shadow"
        report = sanitize_package(SRC_REPRO, outdir)
        assert report.functions_instrumented >= 15
        script = textwrap.dedent(
            """\
            from repro.fd.covers import NegativeCover
            from repro.fd.fd import FD

            cover = NegativeCover(num_attributes=4)
            assert hasattr(NegativeCover.add, "__wrapped__"), "not instrumented"
            assert cover.add(FD.of([0, 1], 2))
            assert cover.covers(FD.of([0], 2))
            print("SANITIZED-OK")
            """
        )
        env = dict(os.environ)
        env["PYTHONPATH"] = str(outdir)
        completed = subprocess.run(
            [sys.executable, "-c", script],
            capture_output=True,
            text=True,
            env=env,
        )
        assert completed.returncode == 0, completed.stderr
        assert "SANITIZED-OK" in completed.stdout


class _FakePool:
    def __init__(self):
        self._published = {}
        self._executor = None

    def close(self):
        return None


class TestLiveResourcesProbe:
    @pytest.fixture
    def wrapped_close(self, monkeypatch):
        # Keep the decorate-time atexit registration out of the test
        # process; the exit check is exercised directly below.
        monkeypatch.setitem(runtime._EXIT_CHECK, "registered", True)

        def close(pool):
            return pool.close()

        return probe("live_resources")(close)

    def test_clean_close_passes(self, wrapped_close):
        assert wrapped_close(_FakePool()) is None

    def test_surviving_publication_violates(self, wrapped_close):
        pool = _FakePool()
        pool._published = {1: object()}
        with pytest.raises(ProbeViolation, match="publications survived"):
            wrapped_close(pool)

    def test_surviving_executor_violates(self, wrapped_close):
        pool = _FakePool()
        pool._executor = object()
        with pytest.raises(ProbeViolation, match="executor survived"):
            wrapped_close(pool)

    def test_exit_check_passes_when_clean(self, monkeypatch):
        exits: list[int] = []
        monkeypatch.setattr(runtime.os, "_exit", exits.append)
        runtime._exit_live_resources_check("nosuchpkg.parallel")
        assert exits == []

    def test_exit_check_flags_leaked_segments(self, monkeypatch, capsys):
        exits: list[int] = []
        monkeypatch.setattr(runtime.os, "_exit", exits.append)
        monkeypatch.setattr(
            runtime, "_own_segments", lambda prefix: {"repro_mmap_1_leak"}
        )
        runtime._exit_live_resources_check("nosuchpkg.parallel")
        assert exits == [70]
        assert "leaked past interpreter exit" in capsys.readouterr().err

    def test_exit_check_flags_unbalanced_contexts(self, monkeypatch, capsys):
        exits: list[int] = []
        monkeypatch.setattr(runtime.os, "_exit", exits.append)
        context = types.ModuleType("fakepkg.context")
        context._ACTIVE = types.SimpleNamespace(stack=[object()])
        monkeypatch.setitem(sys.modules, "fakepkg.context", context)
        runtime._exit_live_resources_check("fakepkg.parallel")
        assert exits == [70]
        assert "context stack unbalanced" in capsys.readouterr().err
