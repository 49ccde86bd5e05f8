"""Span tracing by wrapping named ``nilaa`` functions from outside.

``Tracer.install`` replaces each target with a wrapper in the module or
class that defines it, in every ``nilaa`` module that imported it under
any name, and in module-level dicts that hold it (such as a dispatch
table).  ``Tracer.uninstall`` puts every original object back.

Each wrapper records a span (id, request, name, start, end, parent) and
accumulates the call count and self time of its target.  Self time is the
span's duration minus the duration of the traced spans directly inside it.
Aggregates cover every call; the span list itself is kept in memory up to
``SPAN_CAP`` entries and written out by ``write_spans``.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from array import array

PACKAGE = "nilaa"
DEFECT_MAP = "nilgrp.NilpotentGroup.defect_map"
SPAN_CAP = 20_000     # spans kept for writing out; aggregates count all


def _resolve(target: str):
    """Return (owner, attribute name, original) for 'module.qualname'."""
    module_name, _, qualname = target.partition(".")
    owner = importlib.import_module(f"{PACKAGE}.{module_name}")
    *path, attr = qualname.split(".")
    for part in path:
        owner = getattr(owner, part)
    if isinstance(owner, type):
        if attr not in owner.__dict__:
            raise AttributeError(f"{target} is not defined on its class")
        return owner, attr, owner.__dict__[attr]
    return owner, attr, getattr(owner, attr)


class Tracer:
    """Wraps the named targets while installed; see the module doc."""

    def __init__(self, targets):
        self.names = list(targets)
        self.calls = [0] * len(self.names)
        self.self_s = [0.0] * len(self.names)
        self.total_s = [0.0] * len(self.names)
        self.request = -1           # set by the caller per operation
        self.span_id = array("q")
        self.span_request = array("q")
        self.span_name = array("H")
        self.span_parent = array("q")
        self.span_start = array("d")
        self.span_end = array("d")
        self.spans_seen = 0
        self.defect_monomials: list[int] = []  # per defect_map result
        self._stack: list = []      # [span id, child seconds] per open span
        self._defect = (self.names.index(DEFECT_MAP)
                        if DEFECT_MAP in self.names else -1)
        self._patches: list = []    # (container, key, original)

    # ---- patching ----

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        try:
            for index, target in enumerate(self.names):
                owner, attr, original = _resolve(target)
                wrapper = self._wrap(index, original)
                self._patch(owner, attr, original, wrapper)
                if not isinstance(owner, type):
                    self._patch_importers(original, wrapper)
        except BaseException:
            self.uninstall()
            raise

    def _patch(self, container, key, original, wrapper) -> None:
        self._patches.append((container, key, original))
        if isinstance(container, dict):
            container[key] = wrapper
        else:
            setattr(container, key, wrapper)

    def _patch_importers(self, original, wrapper) -> None:
        for name, module in list(sys.modules.items()):
            if module is None or not (name == PACKAGE
                                      or name.startswith(PACKAGE + ".")):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._patch(module, attr, original, wrapper)
                elif isinstance(value, dict) and not attr.startswith("__"):
                    for key, item in list(value.items()):
                        if item is original:
                            self._patch(value, key, original, wrapper)

    def uninstall(self) -> None:
        while self._patches:
            container, key, original = self._patches.pop()
            if isinstance(container, dict):
                container[key] = original
            else:
                setattr(container, key, original)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    # ---- recording ----

    def _wrap(self, index: int, fn):
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span_id = self.spans_seen
            self.spans_seen += 1
            parent = stack[-1][0] if stack else -1
            frame = [span_id, 0.0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                if stack:
                    stack[-1][1] += duration
                self.calls[index] += 1
                self.self_s[index] += duration - frame[1]
                self.total_s[index] += duration
                if len(self.span_start) < SPAN_CAP:
                    self.span_id.append(span_id)
                    self.span_request.append(self.request)
                    self.span_name.append(index)
                    self.span_parent.append(parent)
                    self.span_start.append(start)
                    self.span_end.append(end)
            if index == self._defect:
                self.defect_monomials.append(
                    sum(len(p.monomials()) for p in result.entries))
            return result

        return traced

    def write_spans(self, path) -> None:
        """Write the kept spans as tab-separated values, one per line."""
        with open(path, "w", encoding="utf-8") as out:
            out.write(f"# spans kept {len(self.span_start)} of "
                      f"{self.spans_seen}; times in seconds; parent -1 "
                      f"is a root\n")
            out.write("span\trequest\tname\tstart\tend\tparent\n")
            for i in range(len(self.span_start)):
                out.write(f"{self.span_id[i]}\t{self.span_request[i]}\t"
                          f"{self.names[self.span_name[i]]}\t"
                          f"{self.span_start[i]:.9f}\t{self.span_end[i]:.9f}"
                          f"\t{self.span_parent[i]}\n")
