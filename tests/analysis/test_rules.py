"""Per-rule fixtures: snippets that must flag, near-misses that must not."""

from __future__ import annotations

import textwrap

from repro.analysis import analyze_source
from repro.analysis.rules import RULES_BY_ID


def run_rule(rule_id, source, path):
    findings = analyze_source(
        textwrap.dedent(source), path, rules=[RULES_BY_ID[rule_id]]
    )
    return [(f.rule, f.line) for f in findings], findings


class TestGlobalRngRule:
    def test_numpy_global_seed_flags(self):
        hits, findings = run_rule(
            "REP-DET01",
            """
            import numpy as np

            np.random.seed(0)
            """,
            "src/pkg/module.py",
        )
        assert hits == [("REP-DET01", 4)]
        assert "numpy global RNG" in findings[0].message

    def test_numpy_draws_flag_under_any_alias(self):
        hits, _ = run_rule(
            "REP-DET01",
            """
            import numpy

            x = numpy.random.rand(4)
            y = numpy.random.shuffle(x)
            """,
            "src/pkg/module.py",
        )
        assert [h[0] for h in hits] == ["REP-DET01", "REP-DET01"]

    def test_from_import_of_global_fn_flags(self):
        hits, _ = run_rule(
            "REP-DET01",
            """
            from numpy.random import seed

            seed(3)
            """,
            "src/pkg/module.py",
        )
        assert hits == [("REP-DET01", 4)]

    def test_stdlib_global_random_flags(self):
        hits, _ = run_rule(
            "REP-DET01",
            """
            import random

            random.seed(7)
            value = random.random()
            """,
            "src/pkg/module.py",
        )
        assert len(hits) == 2

    def test_default_rng_and_seedsequence_do_not_flag(self):
        hits, _ = run_rule(
            "REP-DET01",
            """
            import numpy as np

            rng = np.random.default_rng(0)
            children = np.random.SeedSequence(7).spawn(4)
            local = __import__("random").Random(3)
            value = rng.random()
            """,
            "src/pkg/module.py",
        )
        assert hits == []

    def test_instance_methods_named_like_globals_do_not_flag(self):
        # rng.shuffle / rng.choice are Generator methods, not the globals.
        hits, _ = run_rule(
            "REP-DET01",
            """
            import numpy as np

            rng = np.random.default_rng(0)
            rng.shuffle([1, 2])
            rng.choice([1, 2])
            """,
            "src/pkg/module.py",
        )
        assert hits == []

    def test_seeding_shim_module_is_allowlisted(self):
        hits, _ = run_rule(
            "REP-DET01",
            """
            import numpy as np

            np.random.seed(0)
            """,
            "src/repro/api/seeding.py",
        )
        assert hits == []


class TestWallClockRule:
    def test_wall_clock_in_cache_code_flags(self):
        hits, _ = run_rule(
            "REP-DET02",
            """
            import time

            def cache_key(x):
                return (x, time.time())
            """,
            "src/pkg/parallel/cache.py",
        )
        assert hits == [("REP-DET02", 5)]

    def test_datetime_now_in_checkpoint_code_flags(self):
        hits, _ = run_rule(
            "REP-DET02",
            """
            from datetime import datetime

            def checkpoint_meta():
                return {"at": datetime.now().isoformat()}
            """,
            "src/pkg/agents/checkpoint.py",
        )
        assert hits == [("REP-DET02", 5)]

    def test_monotonic_timing_does_not_flag(self):
        hits, _ = run_rule(
            "REP-DET02",
            """
            import time

            def timed(fn):
                start = time.perf_counter()
                fn()
                return time.monotonic(), time.perf_counter() - start
            """,
            "src/pkg/simulation/sim.py",
        )
        assert hits == []

    def test_wall_clock_outside_critical_paths_does_not_flag(self):
        hits, _ = run_rule(
            "REP-DET02",
            """
            import time

            def request_log_stamp():
                return time.time()
            """,
            "src/pkg/serve/metrics.py",
        )
        assert hits == []


LOCKED_CLASS = """
import threading


class Stats:
    def __init__(self):
        self._lock = threading.Lock()
        self.episodes = 0
        self.by_env = {}

    def record(self, env_id, n):
        with self._lock:
            self.episodes += n
            self.by_env[env_id] = self.by_env.get(env_id, 0) + n
"""


class TestLockDisciplineRule:
    def test_unlocked_write_to_guarded_attribute_flags(self):
        hits, findings = run_rule(
            "REP-LOCK01",
            LOCKED_CLASS
            + """
    def sloppy_fold(self, n):
        self.episodes += n
""",
            "src/pkg/stats.py",
        )
        assert len(hits) == 1
        assert "episodes" in findings[0].message

    def test_unlocked_subscript_write_flags(self):
        hits, _ = run_rule(
            "REP-LOCK01",
            LOCKED_CLASS
            + """
    def sloppy_env_fold(self, env_id, n):
        self.by_env[env_id] = self.by_env.get(env_id, 0) + n
""",
            "src/pkg/stats.py",
        )
        assert len(hits) == 1

    def test_reintroduced_unlocked_fold_on_stats_class_flags(self):
        # Regression fixture: the shape of the pre-gateway ServeStats bug —
        # the tier-delta fold mutated the shared counters outside the lock
        # while every other mutator held it.
        hits, findings = run_rule(
            "REP-LOCK01",
            """
            import threading


            class ServeStats:
                def __init__(self):
                    self._lock = threading.Lock()
                    self.episodes = 0
                    self.surrogate_hits = 0
                    self.trust_rejections = 0
                    self.exact_fallbacks = 0

                def record(self, results):
                    with self._lock:
                        self.episodes += len(results)
                        self.surrogate_hits += 0
                        self.trust_rejections += 0
                        self.exact_fallbacks += 0

                def record_tiers(self, surrogate_hits, trust_rejections, exact_fallbacks):
                    # pre-PR-7 shape: the fold skips the lock entirely
                    self.surrogate_hits += surrogate_hits
                    self.trust_rejections += trust_rejections
                    self.exact_fallbacks += exact_fallbacks
            """,
            "src/pkg/serve/service.py",
        )
        assert len(hits) == 3
        assert {f.line for f in findings} == {22, 23, 24}

    def test_all_locked_writes_do_not_flag(self):
        hits, _ = run_rule("REP-LOCK01", LOCKED_CLASS, "src/pkg/stats.py")
        assert hits == []

    def test_locked_write_in_another_method_does_not_flag(self):
        hits, _ = run_rule(
            "REP-LOCK01",
            LOCKED_CLASS
            + """
    def reset(self):
        with self._lock:
            self.episodes = 0
""",
            "src/pkg/stats.py",
        )
        assert hits == []

    def test_class_without_lock_is_ignored(self):
        hits, _ = run_rule(
            "REP-LOCK01",
            """
            class Plain:
                def __init__(self):
                    self.count = 0

                def bump(self):
                    self.count += 1
            """,
            "src/pkg/plain.py",
        )
        assert hits == []

    def test_noqa_with_caller_rationale_suppresses(self):
        hits, _ = run_rule(
            "REP-LOCK01",
            LOCKED_CLASS
            + """
    def fold(self, n):
        # repro: noqa[REP-LOCK01] caller record_all() holds self._lock
        self.episodes += n
""",
            "src/pkg/stats.py",
        )
        assert hits == []


class TestAtomicWriteRule:
    def test_raw_write_flags(self):
        hits, _ = run_rule(
            "REP-IO01",
            """
            import json

            def save(path, data):
                with open(path, "w", encoding="utf-8") as handle:
                    json.dump(data, handle)
            """,
            "src/pkg/store.py",
        )
        assert hits == [("REP-IO01", 5)]

    def test_binary_write_and_write_text_flag(self):
        hits, _ = run_rule(
            "REP-IO01",
            """
            from pathlib import Path

            def save(path, payload):
                with open(path, "wb") as handle:
                    handle.write(payload)
                Path(path).write_text("done")
            """,
            "src/pkg/store.py",
        )
        assert len(hits) == 2

    def test_scratch_plus_os_replace_in_same_function_is_exempt(self):
        hits, _ = run_rule(
            "REP-IO01",
            """
            import os

            def save(path, payload):
                scratch = str(path) + ".tmp"
                with open(scratch, "wb") as handle:
                    handle.write(payload)
                os.replace(scratch, path)
            """,
            "src/pkg/checkpoint.py",
        )
        assert hits == []

    def test_read_mode_does_not_flag(self):
        hits, _ = run_rule(
            "REP-IO01",
            """
            def load(path):
                with open(path, "r", encoding="utf-8") as handle:
                    return handle.read()

            def load_default_mode(path):
                with open(path) as handle:
                    return handle.read()
            """,
            "src/pkg/store.py",
        )
        assert hits == []

    def test_helper_calls_do_not_flag(self):
        hits, _ = run_rule(
            "REP-IO01",
            """
            from repro.utils import atomic_write_json

            def save(path, data):
                atomic_write_json(path, data, indent=2)
            """,
            "src/pkg/store.py",
        )
        assert hits == []


class TestFloatEqualityRule:
    def test_float_literal_equality_flags(self):
        hits, findings = run_rule(
            "REP-FLT01",
            """
            def check(x):
                return x == 0.5
            """,
            "src/pkg/module.py",
        )
        assert hits == [("REP-FLT01", 3)]
        assert "0.5" in findings[0].message

    def test_inequality_and_reversed_operands_flag(self):
        hits, _ = run_rule(
            "REP-FLT01",
            """
            def check(x, y):
                return x != 1e-12 or 0.0 == y
            """,
            "src/pkg/module.py",
        )
        assert len(hits) == 2

    def test_integer_literal_comparison_does_not_flag(self):
        hits, _ = run_rule(
            "REP-FLT01",
            """
            def check(x):
                return x == 0 or x != 10
            """,
            "src/pkg/module.py",
        )
        assert hits == []

    def test_ordering_comparisons_do_not_flag(self):
        hits, _ = run_rule(
            "REP-FLT01",
            """
            def check(x):
                return x > 0.0 or x <= 1.5
            """,
            "src/pkg/module.py",
        )
        assert hits == []

    def test_tolerance_comparison_does_not_flag(self):
        hits, _ = run_rule(
            "REP-FLT01",
            """
            def check(x):
                return abs(x - 0.5) < 1e-9
            """,
            "src/pkg/module.py",
        )
        assert hits == []

    def test_annotated_sentinel_is_suppressed(self):
        hits, _ = run_rule(
            "REP-FLT01",
            """
            def check(x):
                return x == 0.0  # repro: noqa[REP-FLT01] exact zero sentinel
            """,
            "src/pkg/module.py",
        )
        assert hits == []
