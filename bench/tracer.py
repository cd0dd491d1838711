"""In-memory spans around calls into mdssd's layers.

`instrument` swaps each traced function, in every mdssd module namespace that
holds it, for a wrapper that records a span (name, start, end, parent, job)
and any counts derived from the call's arguments.  Leaving the context
restores the originals, so untraced rounds run the program unchanged.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
from collections import Counter, defaultdict
from math import comb
from time import perf_counter

MODULES = ("field", "grs", "constructions", "verify", "census", "cli")


def _count_locators(counts, args, result):
    m = len(args[0].points)
    counts["grs.locator_products"] += m * (m - 1)


def _count_matrix(counts, args, result):
    counts["grs.matrix_entries"] += len(result) * len(result[0])


def _count_json(counts, args, result):
    counts["grs.json_bytes"] += len(result)


def _count_gram(counts, args, result):
    k, n = len(args[1]), len(args[1][0])
    counts["verify.gram_products"] += k * k * n


def _count_rank(counts, args, result):
    counts["verify.rank_calls"] += 1


def _count_minors(counts, args, result):
    counts["verify.minor_subsets"] += comb(args[0].n, args[0].k)


def _count_codewords(counts, args, result):
    art = args[0]
    counts["verify.codewords"] += art.ctx.q ** art.k - 1


def _count_spot_checks(counts, args, result):
    counts["census.spot_checks"] += len(result.spot_checks)


# (defining module, function, span name, counter)
TRACED = (
    ("constructions", "validate", "constructions.validate", None),
    ("constructions", "select_coset_reps", "constructions.select_coset_reps", None),
    ("constructions", "build", "constructions.build", None),
    ("constructions", "construct_from_params", "constructions.build", None),
    ("grs", "assemble_self_dual_grs", "grs.assemble", None),
    ("grs", "assemble_self_dual_xgrs", "grs.assemble", None),
    ("grs", "all_locators", "grs.all_locators", _count_locators),
    ("grs", "grs_generator_matrix", "grs.generator_matrix", _count_matrix),
    ("grs", "xgrs_generator_matrix", "grs.generator_matrix", _count_matrix),
    ("grs", "artifact_to_dict", "grs.serialize", None),
    ("grs", "to_json", "grs.serialize", _count_json),
    ("grs", "artifact_from_dict", "grs.artifact_from_dict", None),
    ("verify", "verify_artifact", "verify.verify_artifact", None),
    ("verify", "gram_is_zero", "verify.gram", _count_gram),
    ("verify", "field_rank", "verify.rank", _count_rank),
    ("verify", "check_mds_minors", "verify.minors", _count_minors),
    ("verify", "min_distance", "verify.min_distance", _count_codewords),
    ("census", "census_report", "census.census_report", _count_spot_checks),
    ("census", "_prior_rules", "census.rules", None),
    ("census", "_new_rules", "census.rules", None),
    ("census", "prior_lengths", "census.census_report", None),
    ("census", "new_lengths", "census.census_report", None),
)
GENERATORS = (
    ("constructions", "iter_valid_params", "constructions.iter_valid_params",
     "constructions.param_tuples"),
)
JOB_SPAN = "cli.job"


class Tracer:
    def __init__(self):
        self.spans: list = []  # (name, start, end, parent index, job id)
        self.stack: list[int] = []
        self.counts: Counter = Counter()
        self.job: str | None = None

    def _open(self, name: str) -> int:
        idx = len(self.spans)
        self.spans.append([name, perf_counter(), None, self.stack[-1] if self.stack else None,
                           self.job])
        self.stack.append(idx)
        return idx

    def _close(self, idx: int) -> None:
        self.spans[idx][2] = perf_counter()
        self.stack.pop()

    @contextlib.contextmanager
    def job_span(self, job_id: str):
        self.job = job_id
        idx = self._open(JOB_SPAN)
        try:
            yield
        finally:
            self._close(idx)
            self.job = None

    def wrap(self, fn, name, count):
        @functools.wraps(fn)
        def traced(*args, **kw):
            idx = self._open(name)
            try:
                result = fn(*args, **kw)
            finally:
                self._close(idx)
            if count is not None:
                count(self.counts, args, result)
            return result
        return traced

    def wrap_field(self, fn, name):
        # make_field is cached; only a miss builds tables
        @functools.wraps(fn)
        def traced(p, d):
            misses = fn.cache_info().misses
            idx = self._open(name)
            try:
                result = fn(p, d)
            finally:
                self._close(idx)
            if fn.cache_info().misses > misses:
                self.counts["field.elements_tabulated"] += p**d
            return result
        return traced

    def wrap_generator(self, fn, name, counter):
        # one span per item, so the consumer's work between items stays
        # outside the generator's spans
        @functools.wraps(fn)
        def traced(*args, **kw):
            it = fn(*args, **kw)
            while True:
                idx = self._open(name)
                try:
                    item = next(it)
                except StopIteration:
                    return
                finally:
                    self._close(idx)
                self.counts[counter] += 1
                yield item
        return traced

    @contextlib.contextmanager
    def instrument(self):
        mods = {m: importlib.import_module(f"mdssd.{m}") for m in MODULES}
        saved = []
        try:
            make_field = mods["field"].make_field
            saved += self._patch(mods, make_field, self.wrap_field(make_field, "field.make_field"))
            for home, attr, name, count in TRACED:
                orig = getattr(mods[home], attr)
                saved += self._patch(mods, orig, self.wrap(orig, name, count))
            for home, attr, name, counter in GENERATORS:
                orig = getattr(mods[home], attr)
                saved += self._patch(mods, orig, self.wrap_generator(orig, name, counter))
            yield
        finally:
            for mod, attr, orig in reversed(saved):
                setattr(mod, attr, orig)

    @staticmethod
    def _patch(mods, orig, wrapper):
        done = []
        for mod in mods.values():
            for attr, val in list(vars(mod).items()):
                if val is orig:
                    setattr(mod, attr, wrapper)
                    done.append((mod, attr, orig))
        return done


def layer_times(spans, scales) -> dict[str, float]:
    """Total seconds per span name, self seconds per layer, the census spot
    checks (census_report time outside rule evaluation) and the CLI overhead
    (job time outside every layer call).  A span's time is multiplied by
    scales[its job id]."""
    dur = [(end - start) * scales[job] for _, start, end, _, job in spans]
    children = defaultdict(float)
    rules_in = defaultdict(float)
    for idx, (name, _, _, parent, _) in enumerate(spans):
        if parent is not None:
            children[parent] += dur[idx]
            if name == "census.rules":
                rules_in[parent] += dur[idx]
    out: dict[str, float] = defaultdict(float)
    for idx, (name, _, _, _, _) in enumerate(spans):
        self_time = dur[idx] - children[idx]
        if name == JOB_SPAN:
            out["cli.overhead_s"] += self_time
            continue
        out[f"{name}_s"] += dur[idx]
        out[f"{name.split('.')[0]}.self_s"] += self_time
        if name == "census.census_report":
            out["census.spot_checks_s"] += dur[idx] - rules_in[idx]
    return out
