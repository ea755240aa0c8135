"""Spans around orbitatlas's public functions, recorded from outside the package.

`Tracer.install` wraps each hooked function and rebinds *every* module-level
name that refers to it inside the loaded `orbitatlas` modules, because modules
import one another's functions by name (`from .linalg import rank_int_rows`);
patching only the defining module would miss those call paths.  Methods are
patched on their class.  A hook whose target no longer exists is recorded as
absent and its metrics are left out instead of failing the run.

Spans (name, start, end, parent) are kept in memory.  A span's self time is its
duration minus the durations of its direct children; spans nest because the
package runs on one thread.
"""

from __future__ import annotations

import functools
import sys
import time
from dataclasses import dataclass
from typing import Callable

_clock = time.perf_counter


@dataclass(frozen=True)
class Hook:
    name: str  # span name, "<layer>.<function>"
    module: str
    qualname: str  # "func" or "Class.method"
    kind: str = "span"  # "span", "rank" (rank_int_rows) or "modp" (rank_mod_p counter)
    key: Callable | None = None  # args -> hashable, for distinct-call ratios per cli.main call
    tag: Callable | None = None  # args -> str, kept on the span


def _flag_key(a, pd, *_, **__):
    return str(pd)


def _weights_key(rs, hw, *_, **__):
    return (str(rs.cartan_type), tuple(int(h) for h in hw))


def _row_tag(a, *_, **__):
    return str(a.rs.cartan_type)


HOOKS = (
    Hook("cli.main", "orbitatlas.cli", "main"),
    Hook("classify.table1_row", "orbitatlas.classify", "table1_row", tag=_row_tag),
    Hook("classify.classify_ss_low_cohom", "orbitatlas.flags", "classify_ss_low_cohom"),
    Hook("flags.flag_cohom", "orbitatlas.flags", "flag_cohom", key=_flag_key),
    Hook("cohom.cohom_adjoint", "orbitatlas.cohom", "cohom_adjoint"),
    Hook("cohom.sample_orbit_point", "orbitatlas.cohom", "sample_orbit_point"),
    Hook("cohom.real_orbit_dim", "orbitatlas.cohom", "real_orbit_dim"),
    Hook("sl2.complete_triple", "orbitatlas.sl2", "complete_triple"),
    Hook("sl2.triple_centralizer", "orbitatlas.sl2", "triple_centralizer"),
    Hook("sl2.isotypic_decomposition", "orbitatlas.sl2", "isotypic_decomposition"),
    Hook("sl2.w_isotypic_action", "orbitatlas.sl2", "w_isotypic_action"),
    Hook("sl2.commutant_dim", "orbitatlas.sl2", "commutant_dim"),
    Hook("orbits.representative", "orbitatlas.orbits", "representative"),
    Hook("chevalley.build_algebra", "orbitatlas.chevalley", "build_algebra"),
    Hook("chevalley.centralizer_dim", "orbitatlas.chevalley", "ChevalleyAlgebra.centralizer_dim"),
    Hook("branching.branch_adjoint", "orbitatlas.branching", "branch_adjoint"),
    Hook("branching.weight_multiplicities", "orbitatlas.branching", "weight_multiplicities",
         key=_weights_key),
    Hook("roots.build_root_system", "orbitatlas.roots", "build_root_system"),
    Hook("roots.root_centralizer_subsystem", "orbitatlas.roots", "root_centralizer_subsystem"),
    Hook("roots.identify_subsystem", "orbitatlas.roots", "identify_subsystem"),
    Hook("linalg.rank", "orbitatlas.linalg", "rank_int_rows", kind="rank"),
    Hook("linalg.kernel", "orbitatlas.linalg", "kernel_basis_int"),
    Hook("linalg.solve", "orbitatlas.linalg", "solve_linear"),
    Hook("modp.rank_mod_p", "orbitatlas._modp", "rank_mod_p", kind="modp"),
)

# rank_int_rows spans are renamed when they close, by the route they took
RANK_EXACT = "linalg.rank_exact"
RANK_MULTIPRIME = "linalg.rank_multiprime"
# the heaviest row of the table1 workload; its inclusive time is reported
ROW_TAG = "E7"


def _resolve(module: str, qualname: str):
    mod = sys.modules.get(module)
    owner, obj = None, mod
    for part in qualname.split("."):
        if obj is None:
            return None, None
        owner, obj = obj, getattr(obj, part, None)
    return owner, obj


class Tracer:
    """Collects spans and counters while installed; `uninstall` restores."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index, tag]
        self._stack: list[int] = []
        self._rank_frames: list[dict] = []
        self._patched: list[tuple] = []
        self.absent: list[str] = []
        self.keys: dict[str, list] = {}  # (cli.main call number, key) per hook
        self.invocations = 0
        self.cells = 0
        self.max_entry_bits = 0
        self.primes = 0
        self.useful_primes = 0

    # -- patching --------------------------------------------------------------

    def install(self):
        mods = [m for n, m in list(sys.modules.items())
                if m is not None and (n == "orbitatlas" or n.startswith("orbitatlas."))]
        for hook in HOOKS:
            owner, orig = _resolve(hook.module, hook.qualname)
            if orig is None or not callable(orig):
                self.absent.append(hook.name)
                continue
            wrapper = self._wrap(hook, orig)
            if isinstance(owner, type):
                attr = hook.qualname.rsplit(".", 1)[1]
                self._patched.append((owner, attr, orig))
                setattr(owner, attr, wrapper)
                continue
            for m in mods:
                for attr, val in list(vars(m).items()):
                    if val is orig:
                        self._patched.append((m, attr, orig))
                        setattr(m, attr, wrapper)

    def uninstall(self):
        for owner, attr, orig in reversed(self._patched):
            setattr(owner, attr, orig)
        self._patched.clear()

    def _wrap(self, hook: Hook, orig):
        if hook.kind == "modp":
            return self._wrap_modp(orig)
        spans, stack = self.spans, self._stack
        is_rank = hook.kind == "rank"

        @functools.wraps(orig)
        def wrapper(*args, **kwargs):
            if hook.name == "cli.main":
                self.invocations += 1
            if hook.key is not None:
                key = (self.invocations, hook.key(*args, **kwargs))
                self.keys.setdefault(hook.name, []).append(key)
            if is_rank:
                self._rank_stats(*args, **kwargs)
                self._rank_frames.append({"primes": 0, "best": 0})
            tag = hook.tag(*args, **kwargs) if hook.tag is not None else None
            idx = len(spans)
            spans.append([hook.name, 0.0, 0.0, stack[-1] if stack else -1, tag])
            stack.append(idx)
            start = _clock()
            try:
                return orig(*args, **kwargs)
            finally:
                end = _clock()
                stack.pop()
                rec = spans[idx]
                rec[1], rec[2] = start, end
                if is_rank:
                    frame = self._rank_frames.pop()
                    rec[0] = RANK_MULTIPRIME if frame["primes"] else RANK_EXACT

        return wrapper

    def _wrap_modp(self, orig):
        @functools.wraps(orig)
        def wrapper(*args, **kwargs):
            r = orig(*args, **kwargs)
            self.primes += 1
            if self._rank_frames:
                frame = self._rank_frames[-1]
                frame["primes"] += 1
                if r > frame["best"]:
                    frame["best"] = r
                    self.useful_primes += 1
            return r

        return wrapper

    def _rank_stats(self, rows, ncols, *_, **__):
        self.cells += len(rows) * ncols
        bits = max((abs(v).bit_length() for row in rows for v in row), default=0)
        if bits > self.max_entry_bits:
            self.max_entry_bits = bits

    # -- aggregation -----------------------------------------------------------

    def self_times(self) -> list[float]:
        out = [s[2] - s[1] for s in self.spans]
        for s in self.spans:
            if s[3] >= 0:
                out[s[3]] -= s[2] - s[1]
        return out

    def metrics(self) -> dict:
        """Per-layer metrics: `<span>.calls`, `<span>.s` and derived counts."""
        names = [h.name for h in HOOKS if h.kind == "span" and h.name not in self.absent]
        rank_ok = "linalg.rank" not in self.absent
        if rank_ok:
            names += [RANK_EXACT, RANK_MULTIPRIME]
        calls = dict.fromkeys(names, 0)
        self_s = dict.fromkeys(names, 0.0)
        for s, st in zip(self.spans, self.self_times()):
            calls[s[0]] += 1
            self_s[s[0]] += st
        out = {}
        for n in names:
            out[f"{n}.calls"] = calls[n]
            out[f"{n}.s"] = self_s[n]
        if rank_ok:
            out["linalg.rank.cells"] = self.cells
            out["linalg.rank.max_entry_bits"] = self.max_entry_bits
        if "modp.rank_mod_p" not in self.absent and rank_ok:
            multi = calls[RANK_MULTIPRIME]
            out["modp.primes"] = self.primes
            out["modp.primes_per_rank"] = self.primes / multi if multi else 0.0
            out["modp.useful_prime_ratio"] = (
                self.useful_primes / self.primes if self.primes else 0.0
            )
        if "orbits.representative" in calls and "chevalley.centralizer_dim" in calls:
            attempts = sum(
                1 for i, s in enumerate(self.spans)
                if s[0] == "chevalley.centralizer_dim"
                and self._has_ancestor(i, "orbits.representative")
            )
            reps = calls["orbits.representative"]
            out["orbits.representative.accept_ratio"] = reps / attempts if attempts else 0.0
        for n in ("flags.flag_cohom", "branching.weight_multiplicities"):
            if n in calls:
                keys = self.keys.get(n, [])
                out[f"{n}.distinct_ratio"] = len(set(keys)) / len(keys) if keys else 0.0
        if "classify.table1_row" in calls:
            out[f"classify.table1_row_{ROW_TAG}.total_s"] = sum(
                s[2] - s[1] for s in self.spans
                if s[0] == "classify.table1_row" and s[4] == ROW_TAG
            )
        return out

    def _has_ancestor(self, i: int, name: str) -> bool:
        p = self.spans[i][3]
        while p >= 0:
            if self.spans[p][0] == name:
                return True
            p = self.spans[p][3]
        return False

    def shares(self, within: float) -> dict:
        """Self-time share of each span name among spans under a `cli.main` root."""
        tot: dict[str, float] = {}
        for i, (s, st) in enumerate(zip(self.spans, self.self_times())):
            if s[0] == "cli.main" or self._has_ancestor(i, "cli.main"):
                tot[s[0]] = tot.get(s[0], 0.0) + st
        return {k: v / within for k, v in sorted(tot.items(), key=lambda kv: -kv[1])}
