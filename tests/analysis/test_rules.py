"""Per-rule fixture tests: each ORL rule on minimal positive/negative snippets."""

import ast
import textwrap

from repro.analysis.engine import analyze_source
from repro.analysis.findings import Severity
from repro.analysis.rules import default_rules
from repro.analysis.rules.determinism_rules import (
    UnorderedIterationRule,
    UnseededRandomnessRule,
)
from repro.analysis.rules.hygiene_rules import (
    BareExceptRule,
    LiteralMeasurementRule,
    MutableDefaultRule,
)
from repro.analysis.rules.mapreduce_rules import (
    TaskCallableMutationRule,
    TaskCallablePicklableRule,
    _JobCallCollector,
)
from repro.analysis.rules.resource_rules import (
    PlaneLeaseLifecycleRule,
    SharedMemoryLifecycleRule,
)
from repro.analysis.rules.robustness_rules import RetryBackoffRule


def run_rule(rule, source):
    return analyze_source(textwrap.dedent(source), "snippet.py", [rule])


def rule_ids(findings):
    return [f.rule for f in findings]


class TestDefaultRuleSet:
    def test_ten_rules_in_id_order(self):
        ids = [r.rule_id for r in default_rules()]
        assert ids == [f"ORL00{i}" for i in range(1, 10)] + ["ORL010"]
        assert ids == sorted(ids)

    def test_every_rule_documents_its_invariant(self):
        for rule in default_rules():
            assert rule.invariant, rule.rule_id
            assert rule.title, rule.rule_id


class TestORL001Picklable:
    def test_lambda_argument_flagged(self):
        findings = run_rule(
            TaskCallablePicklableRule(),
            """\
            from repro.mapreduce.job import MapReduceJob
            job = MapReduceJob(mapper=lambda s: [], reducer=my_reducer)
            """,
        )
        assert rule_ids(findings) == ["ORL001"]
        assert findings[0].line == 2
        assert findings[0].severity is Severity.ERROR
        assert "lambda" in findings[0].message

    def test_name_bound_to_lambda_flagged(self):
        findings = run_rule(
            TaskCallablePicklableRule(),
            """\
            from repro.mapreduce.job import MapReduceJob
            m = lambda s: []
            job = MapReduceJob(mapper=m, reducer=my_reducer)
            """,
        )
        assert rule_ids(findings) == ["ORL001"]
        assert findings[0].line == 3

    def test_nested_function_flagged(self):
        findings = run_rule(
            TaskCallablePicklableRule(),
            """\
            from repro.mapreduce.job import MapReduceJob

            def build():
                def mapper(split):
                    yield 1, 2
                return MapReduceJob(mapper=mapper, reducer=my_reducer)
            """,
        )
        assert rule_ids(findings) == ["ORL001"]
        assert "nested function" in findings[0].message

    def test_module_level_def_ok(self):
        findings = run_rule(
            TaskCallablePicklableRule(),
            """\
            from repro.mapreduce.job import MapReduceJob

            def mapper(split):
                yield 1, 2

            def reducer(key, values):
                yield key

            job = MapReduceJob(mapper=mapper, reducer=reducer)
            """,
        )
        assert findings == []

    def test_callable_instance_ok(self):
        # Instances pickle by state — the sanctioned way to parameterize.
        findings = run_rule(
            TaskCallablePicklableRule(),
            """\
            from repro.mapreduce.job import MapReduceJob
            job = MapReduceJob(mapper=FragmentMapper(db), reducer=my_reducer)
            """,
        )
        assert findings == []

    def test_positional_arguments_also_checked(self):
        findings = run_rule(
            TaskCallablePicklableRule(),
            """\
            from repro.mapreduce.job import MapReduceJob
            job = MapReduceJob(lambda s: [], lambda k, v: [])
            """,
        )
        assert rule_ids(findings) == ["ORL001", "ORL001"]

    def test_positional_job_name_is_not_a_task_callable(self):
        """Positional index 2 of ``MapReduceJob`` is ``name``, a string."""
        source = textwrap.dedent(
            """\
            from repro.mapreduce.job import MapReduceJob
            job = MapReduceJob(mapper, reducer, "orion/q")
            """
        )
        collector = _JobCallCollector()
        collector.visit(ast.parse(source))
        assert [param for _, param, *_ in collector.sites] == ["mapper", "reducer"]
        assert run_rule(TaskCallablePicklableRule(), source) == []


class TestORL002SharedMutation:
    def test_global_dict_mutation_flagged(self):
        findings = run_rule(
            TaskCallableMutationRule(),
            """\
            from repro.mapreduce.job import MapReduceJob

            STATS = {}

            def mapper(split):
                STATS["n"] = 1
                yield 1, 2

            job = MapReduceJob(mapper=mapper, reducer=my_reducer)
            """,
        )
        assert rule_ids(findings) == ["ORL002"]
        assert findings[0].line == 6
        assert "STATS" in findings[0].message

    def test_mutating_method_on_global_flagged(self):
        findings = run_rule(
            TaskCallableMutationRule(),
            """\
            from repro.mapreduce.job import MapReduceJob

            SEEN = []

            def reducer(key, values):
                SEEN.append(key)
                yield key

            job = MapReduceJob(mapper=my_mapper, reducer=reducer)
            """,
        )
        assert rule_ids(findings) == ["ORL002"]
        assert "SEEN" in findings[0].message

    def test_local_accumulation_ok(self):
        findings = run_rule(
            TaskCallableMutationRule(),
            """\
            from repro.mapreduce.job import MapReduceJob

            def mapper(split):
                acc = []
                acc.append(split)
                yield 1, acc

            job = MapReduceJob(mapper=mapper, reducer=my_reducer)
            """,
        )
        assert findings == []

    def test_unreferenced_function_not_checked(self):
        # Mutation is only an ORL002 problem in *task* callables.
        findings = run_rule(
            TaskCallableMutationRule(),
            """\
            CACHE = {}

            def warm(key):
                CACHE[key] = True
            """,
        )
        assert findings == []


class TestORL003UnseededRandomness:
    def test_stdlib_random_call_flagged(self):
        findings = run_rule(
            UnseededRandomnessRule(),
            """\
            import random
            x = random.random()
            """,
        )
        assert rule_ids(findings) == ["ORL003"]
        assert findings[0].severity is Severity.ERROR

    def test_from_import_flagged(self):
        findings = run_rule(
            UnseededRandomnessRule(),
            """\
            from random import randint
            x = randint(0, 10)
            """,
        )
        assert rule_ids(findings) == ["ORL003"]

    def test_numpy_legacy_global_flagged(self):
        findings = run_rule(
            UnseededRandomnessRule(),
            """\
            import numpy as np
            x = np.random.rand(3)
            """,
        )
        assert rule_ids(findings) == ["ORL003"]

    def test_argless_default_rng_flagged(self):
        findings = run_rule(
            UnseededRandomnessRule(),
            """\
            import numpy as np
            rng = np.random.default_rng()
            """,
        )
        assert rule_ids(findings) == ["ORL003"]
        assert "seed" in findings[0].message

    def test_seeded_default_rng_ok(self):
        findings = run_rule(
            UnseededRandomnessRule(),
            """\
            import numpy as np
            rng = np.random.default_rng(42)
            x = rng.normal(size=10)
            """,
        )
        assert findings == []

    def test_unrelated_name_random_ok(self):
        # A local module/object that happens to be called "random" but was
        # never imported from stdlib random is not flagged.
        findings = run_rule(
            UnseededRandomnessRule(),
            """\
            x = rng.random()
            """,
        )
        assert findings == []


class TestORL004UnorderedIteration:
    def test_for_over_set_literal_flagged(self):
        findings = run_rule(
            UnorderedIterationRule(),
            """\
            for x in {1, 2, 3}:
                print(x)
            """,
        )
        assert rule_ids(findings) == ["ORL004"]
        assert findings[0].severity is Severity.WARNING

    def test_for_over_set_call_flagged(self):
        findings = run_rule(
            UnorderedIterationRule(),
            """\
            for x in set(items):
                out.append(x)
            """,
        )
        assert rule_ids(findings) == ["ORL004"]

    def test_listcomp_over_dict_values_flagged(self):
        findings = run_rule(
            UnorderedIterationRule(),
            """\
            ys = [v for v in d.values()]
            """,
        )
        assert rule_ids(findings) == ["ORL004"]

    def test_list_of_values_flagged(self):
        findings = run_rule(
            UnorderedIterationRule(),
            """\
            ys = list(d.values())
            """,
        )
        assert rule_ids(findings) == ["ORL004"]

    def test_sum_of_values_ok(self):
        findings = run_rule(
            UnorderedIterationRule(),
            """\
            total = sum(v for v in d.values())
            """,
        )
        assert findings == []

    def test_sorted_values_ok(self):
        findings = run_rule(
            UnorderedIterationRule(),
            """\
            ys = sorted(d.values())
            zs = [k for k in sorted(d.keys())]
            """,
        )
        assert findings == []

    def test_setcomp_over_items_ok(self):
        # Result is itself unordered; no order leaks.
        findings = run_rule(
            UnorderedIterationRule(),
            """\
            keys = {k for k, v in d.items()}
            table = {k: v for k, v in d.items()}
            """,
        )
        assert findings == []

    def test_for_over_list_ok(self):
        findings = run_rule(
            UnorderedIterationRule(),
            """\
            for x in [1, 2, 3]:
                print(x)
            """,
        )
        assert findings == []


class TestORL005MutableDefault:
    def test_list_default_flagged(self):
        findings = run_rule(
            MutableDefaultRule(),
            """\
            def f(xs=[]):
                return xs
            """,
        )
        assert rule_ids(findings) == ["ORL005"]
        assert "'f'" in findings[0].message

    def test_dict_call_default_flagged(self):
        findings = run_rule(
            MutableDefaultRule(),
            """\
            def f(*, table=dict()):
                return table
            """,
        )
        assert rule_ids(findings) == ["ORL005"]

    def test_none_default_ok(self):
        findings = run_rule(
            MutableDefaultRule(),
            """\
            def f(xs=None, n=3, name="x"):
                return xs or []
            """,
        )
        assert findings == []


class TestORL006BareExcept:
    def test_bare_except_flagged(self):
        findings = run_rule(
            BareExceptRule(),
            """\
            try:
                work()
            except:
                handle()
            """,
        )
        assert rule_ids(findings) == ["ORL006"]
        assert "bare except" in findings[0].message

    def test_swallowed_exception_flagged(self):
        findings = run_rule(
            BareExceptRule(),
            """\
            try:
                work()
            except ValueError:
                pass
            """,
        )
        assert rule_ids(findings) == ["ORL006"]
        assert "swallows" in findings[0].message

    def test_handled_exception_ok(self):
        findings = run_rule(
            BareExceptRule(),
            """\
            try:
                work()
            except ValueError as exc:
                log(exc)
                raise
            """,
        )
        assert findings == []


class TestORL007LiteralMeasurement:
    def test_literal_records_keyword_flagged(self):
        findings = run_rule(
            LiteralMeasurementRule(),
            """\
            rec = TaskRecord(task_id="t", input_records=1, output_records=n)
            """,
        )
        assert rule_ids(findings) == ["ORL007"]
        assert "input_records" in findings[0].message

    def test_count_keyword_on_record_type_flagged(self):
        findings = run_rule(
            LiteralMeasurementRule(),
            """\
            rec = WorkUnitRecord(hit_count=7)
            """,
        )
        assert rule_ids(findings) == ["ORL007"]

    def test_count_keyword_on_config_call_ok(self):
        # Generation *configuration* is not a measurement (datasets.py).
        findings = run_rule(
            LiteralMeasurementRule(),
            """\
            spec = make_dataset(repeat_family_count=1)
            """,
        )
        assert findings == []

    def test_zero_and_variables_ok(self):
        findings = run_rule(
            LiteralMeasurementRule(),
            """\
            rec = TaskRecord(input_records=0, output_records=len(pairs))
            """,
        )
        assert findings == []


class TestORL008SharedMemoryLifecycle:
    def test_unpaired_create_flagged(self):
        findings = run_rule(
            SharedMemoryLifecycleRule(),
            """\
            from multiprocessing import shared_memory

            def publish(data):
                seg = shared_memory.SharedMemory(create=True, size=len(data))
                seg.buf[: len(data)] = data
                return seg
            """,
        )
        assert rule_ids(findings) == ["ORL008"]
        assert "close/unlink" in findings[0].message

    def test_unpaired_attach_flagged(self):
        findings = run_rule(
            SharedMemoryLifecycleRule(),
            """\
            from multiprocessing.shared_memory import SharedMemory

            def peek(name):
                seg = SharedMemory(name=name)
                return bytes(seg.buf)
            """,
        )
        assert rule_ids(findings) == ["ORL008"]

    def test_release_in_finally_ok(self):
        findings = run_rule(
            SharedMemoryLifecycleRule(),
            """\
            from multiprocessing.shared_memory import SharedMemory

            def publish(data):
                seg = SharedMemory(create=True, size=len(data))
                ok = False
                try:
                    seg.buf[: len(data)] = data
                    ok = True
                    return seg
                finally:
                    if not ok:
                        seg.close()
                        seg.unlink()
            """,
        )
        assert findings == []

    def test_context_manager_ok(self):
        findings = run_rule(
            SharedMemoryLifecycleRule(),
            """\
            from multiprocessing.shared_memory import SharedMemory

            def peek(name):
                with SharedMemory(name=name) as seg:
                    return bytes(seg.buf)
            """,
        )
        assert findings == []

    def test_nested_def_is_its_own_scope(self):
        # A finally in the outer function must not excuse an acquisition
        # inside a nested def (it cannot guard it at runtime).
        findings = run_rule(
            SharedMemoryLifecycleRule(),
            """\
            from multiprocessing.shared_memory import SharedMemory

            def outer():
                seg = None
                try:
                    pass
                finally:
                    if seg is not None:
                        seg.close()

                def inner(name):
                    return SharedMemory(name=name)

                return inner
            """,
        )
        assert rule_ids(findings) == ["ORL008"]

    def test_unrelated_call_ok(self):
        findings = run_rule(
            SharedMemoryLifecycleRule(),
            """\
            def build(name):
                return SomeFactory(name=name)
            """,
        )
        assert findings == []

    def test_segment_made_outside_an_owner_flagged(self):
        findings = run_rule(
            SharedMemoryLifecycleRule(),
            """\
            from repro.mapreduce import shm

            def stash(data):
                shm.write_segment("stash", (data,))
                return shm.create_segment("orionplane_x_codes", len(data))

            class Stash:
                def publish(self, data):
                    shm.write_segment(self.name, (data,))
            """,
        )
        assert rule_ids(findings) == ["ORL008", "ORL008", "ORL008"]
        assert "outside its owner" in findings[0].message

    def test_segment_made_by_an_owner_ok(self):
        findings = run_rule(
            SharedMemoryLifecycleRule(),
            """\
            def _publish_database_segments(names, size):
                return [create_segment(name, size) for name in names]

            class PlaneRegistry:
                @classmethod
                def _create_locked(cls, registry, blob):
                    write_segment(registry, (blob,))
            """,
        )
        assert findings == []


class TestORL010PlaneLeaseLifecycle:
    def test_unpaired_attach_or_create_flagged(self):
        findings = run_rule(
            PlaneLeaseLifecycleRule(),
            """\
            from repro.mapreduce.shm import PlaneRegistry

            def search(db, k):
                lease = PlaneRegistry.attach_or_create(db, k)
                return run_with(lease.handle)
            """,
        )
        assert rule_ids(findings) == ["ORL010"]
        assert "release" in findings[0].message

    def test_release_in_finally_ok(self):
        findings = run_rule(
            PlaneLeaseLifecycleRule(),
            """\
            from repro.mapreduce.shm import PlaneRegistry

            def search(db, k):
                lease = PlaneRegistry.attach_or_create(db, k)
                try:
                    return run_with(lease.handle)
                finally:
                    lease.release()
            """,
        )
        assert findings == []

    def test_context_manager_ok(self):
        findings = run_rule(
            PlaneLeaseLifecycleRule(),
            """\
            from repro.mapreduce.shm import PlaneRegistry

            def search(db, k):
                with PlaneRegistry.attach_or_create(db, k) as lease:
                    return run_with(lease.handle)
            """,
        )
        assert findings == []

    def test_reap_in_finally_ok(self):
        findings = run_rule(
            PlaneLeaseLifecycleRule(),
            """\
            from repro.mapreduce.shm import PlaneRegistry, reap_orphan_planes

            def search(db, k):
                lease = PlaneRegistry.attach_or_create(db, k)
                try:
                    return run_with(lease.handle)
                finally:
                    reap_orphan_planes()
            """,
        )
        assert findings == []

    def test_nested_def_is_its_own_scope(self):
        findings = run_rule(
            PlaneLeaseLifecycleRule(),
            """\
            from repro.mapreduce.shm import PlaneRegistry

            def outer():
                lease = None
                try:
                    pass
                finally:
                    if lease is not None:
                        lease.release()

                def inner(db, k):
                    return PlaneRegistry.attach_or_create(db, k)

                return inner
            """,
        )
        assert rule_ids(findings) == ["ORL010"]

    def test_waiver_comment_suppresses(self):
        findings = run_rule(
            PlaneLeaseLifecycleRule(),
            """\
            from repro.mapreduce.shm import PlaneRegistry

            def adopt(self, db, k):
                self._lease = PlaneRegistry.attach_or_create(  # orionlint: disable=ORL010
                    db, k
                )
            """,
        )
        assert rule_ids(findings) == ["ORL010"]
        assert findings[0].suppressed  # waived, does not fail the run

    def test_unrelated_call_ok(self):
        findings = run_rule(
            PlaneLeaseLifecycleRule(),
            """\
            def build(name):
                return SomeFactory.attach(name=name)
            """,
        )
        assert findings == []


class TestORL009RetryBackoff:
    def test_time_sleep_attribute_call_flagged(self):
        findings = run_rule(
            RetryBackoffRule(),
            """\
            import time

            def backoff():
                time.sleep(1.0)
            """,
        )
        assert rule_ids(findings) == ["ORL009"]
        assert findings[0].line == 4
        assert findings[0].severity is Severity.ERROR
        assert "time.sleep" in findings[0].message

    def test_from_import_sleep_flagged(self):
        findings = run_rule(
            RetryBackoffRule(),
            """\
            from time import sleep

            def backoff():
                sleep(0.5)
            """,
        )
        assert rule_ids(findings) == ["ORL009"]
        assert findings[0].line == 4

    def test_other_sleep_name_not_flagged(self):
        # A local `sleep` that is not time.sleep (e.g. an injected hook)
        # is exactly the blessed pattern; only the stdlib one is flagged.
        findings = run_rule(
            RetryBackoffRule(),
            """\
            def wait(policy, delay):
                policy.sleep(delay)

            def wait2(sleep, delay):
                sleep(delay)
            """,
        )
        assert findings == []

    def test_unbounded_retry_loop_flagged(self):
        findings = run_rule(
            RetryBackoffRule(),
            """\
            def fetch():
                while True:
                    try:
                        return attempt()
                    except OSError:
                        continue
            """,
        )
        assert rule_ids(findings) == ["ORL009"]
        assert findings[0].line == 2
        assert "attempt bound" in findings[0].message

    def test_while_one_also_infinite(self):
        findings = run_rule(
            RetryBackoffRule(),
            """\
            while 1:
                try:
                    step()
                except ValueError:
                    pass
            """,
        )
        assert rule_ids(findings) == ["ORL009"]

    def test_handler_reraise_bounds_the_loop(self):
        # The canonical bounded idiom: count attempts, re-raise at budget.
        findings = run_rule(
            RetryBackoffRule(),
            """\
            def fetch(budget):
                attempt = 0
                while True:
                    try:
                        return step()
                    except OSError:
                        attempt += 1
                        if attempt >= budget:
                            raise
            """,
        )
        assert findings == []

    def test_handler_break_exits_instead_of_retrying(self):
        findings = run_rule(
            RetryBackoffRule(),
            """\
            while True:
                try:
                    step()
                except ValueError:
                    break
            """,
        )
        assert findings == []

    def test_bounded_for_loop_not_flagged(self):
        findings = run_rule(
            RetryBackoffRule(),
            """\
            for attempt in range(3):
                try:
                    step()
                    break
                except OSError:
                    continue
            """,
        )
        assert findings == []

    def test_conditioned_while_not_flagged(self):
        findings = run_rule(
            RetryBackoffRule(),
            """\
            def drain(queue):
                while queue.pending():
                    try:
                        queue.pop()
                    except KeyError:
                        pass
            """,
        )
        assert findings == []

    def test_infinite_loop_without_try_not_flagged(self):
        # Infinite service loops without exception swallowing are the
        # splitter/fragmenter idiom: their bodies break explicitly.
        findings = run_rule(
            RetryBackoffRule(),
            """\
            while True:
                chunk = read()
                if not chunk:
                    break
                emit(chunk)
            """,
        )
        assert findings == []

    def test_nested_def_does_not_excuse_or_implicate(self):
        # A raise inside a nested def cannot bound the enclosing loop,
        # and a sleep inside a nested def is still a sleep.
        findings = run_rule(
            RetryBackoffRule(),
            """\
            import time

            while True:
                try:
                    step()
                except OSError:
                    def explode():
                        raise RuntimeError
            """,
        )
        assert rule_ids(findings) == ["ORL009"]
        assert findings[0].line == 3

    def test_suppression_comment_respected(self):
        findings = run_rule(
            RetryBackoffRule(),
            """\
            import time

            def hang(seconds):
                time.sleep(seconds)  # orionlint: disable=ORL009
            """,
        )
        assert rule_ids(findings) == ["ORL009"]
        assert findings[0].suppressed is True
