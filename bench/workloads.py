"""The four benchmark workloads and the oracles that check their verdicts.

A workload is built from its seed (that is its set-up) and yields the list of
steps that every pass repeats.  A step makes one call into a public entry point of the
package, checks the result against an answer known independently of the code
path it times, and returns an Outcome.  Verdicts are read from the report's
fields, never from a digest of the output.

An operation is a minimal candidate in ``sweep``, a sample in ``sample``, a
semigroup in ``closure`` and a generator fact in ``generators``.  It fails
when its result disagrees with the known answer, when the campaign reports a
violation for it, or when the call raises.  Only a disagreement with an
oracle or a raised error makes the verdict incorrect: a campaign that reports
a violation of a bound the package enforces has still told the truth.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
from collections import Counter
from dataclasses import dataclass, field
from functools import partial

from synideal import cli, dfa, harness, semigroup, witness
from synideal.semigroup import TransformationSemigroup
from synideal.witness import IdealClass


@dataclass
class Outcome:
    attempted: int = 0
    failed: int = 0
    #: oracle disagreements and raised errors; any entry makes the verdict incorrect
    problems: list[str] = field(default_factory=list)
    #: what the pass established, compared between traced and untraced runs
    verdict: list = field(default_factory=list)
    #: counts the package itself reported, compared with the traced counts
    outputs: Counter = field(default_factory=Counter)

    @classmethod
    def error(cls, message: str) -> "Outcome":
        return cls(attempted=1, failed=1, problems=[message], verdict=[("error", message)])

    def add(self, other: "Outcome") -> None:
        self.attempted += other.attempted
        self.failed += other.failed
        self.problems += other.problems
        self.verdict += other.verdict
        self.outputs.update(other.outputs)


def paper_bound(klass: str, n: int) -> int:
    """The paper's syntactic-complexity bounds, written out independently of
    ``witness.bound``."""
    if klass == "right":
        return n ** (n - 1)
    if klass == "left":
        return n ** (n - 1) + n - 1
    return n ** (n - 2) + (n - 2) * 2 ** (n - 2) + 1


# Violations of these checks contradict the oracles; any other campaign
# violation (the special-quotient ``bounds`` checks) fails its operation only.
_ORACLE_CHECKS = frozenset({"tightness", "injection", "sampler"})


def campaign_outcome(data: dict, n: int, operations: int) -> Outcome:
    """Check a campaign report (its JSON fields): per-class maxima within the
    paper's bounds and no injection or sampler violation."""
    o = Outcome(attempted=operations)
    failing = set()
    for v in data["violations"]:
        failing.add(v["dfa"] if "dfa" in v else f"sample {v.get('index')}")
        o.outputs[f"violations.{v['check']}"] += 1
        if v["check"] in _ORACLE_CHECKS:
            o.problems.append(f"{v['check']} violation: {json.dumps(v, sort_keys=True)[:300]}")
    o.failed = len(failing)
    for name, stats in data["per_class"].items():
        limit = paper_bound(name, n)
        if stats["max_sigma"] > limit:
            o.problems.append(f"{name} n={n}: max_sigma {stats['max_sigma']} exceeds {limit}")
    o.verdict.append((
        n,
        tuple(sorted((k, s["count"], s["max_sigma"]) for k, s in data["per_class"].items())),
        o.failed,
    ))
    for key in ("examined", "minimal", "injection_contexts"):
        o.outputs[key] += data[key]
    return o


class Sweep:
    """``synideal enumerate --n 4 --alphabet-size 2 --json`` through
    ``cli.main``: every class and all four checks.  Exhaustive, so the seed
    changes nothing."""

    name = "sweep"

    def __init__(self, seed: int, n: int = 4, alphabet_size: int = 2) -> None:
        self.n = n
        self.argv = ["enumerate", "--n", str(n), "--alphabet-size", str(alphabet_size), "--json"]

    def steps(self) -> list:
        return [self.enumerate]

    def enumerate(self) -> Outcome:
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = cli.main(self.argv)
        if code not in (cli.EXIT_OK, cli.EXIT_VIOLATION):
            return Outcome.error(f"enumerate exited with status {code}")
        data = json.loads(out.getvalue())
        return campaign_outcome(data, self.n, data["minimal"])


SAMPLE_SETTINGS = (
    (IdealClass.LEFT, 3, 2),
    (IdealClass.LEFT, 4, 2),
    (IdealClass.LEFT, 5, 2),
    (IdealClass.LEFT, 6, 2),
    (IdealClass.TWO_SIDED, 4, 2),
    (IdealClass.TWO_SIDED, 5, 2),
    (IdealClass.TWO_SIDED, 6, 2),
    (IdealClass.TWO_SIDED, 4, 3),
    (IdealClass.TWO_SIDED, 5, 3),
    (IdealClass.TWO_SIDED, 6, 3),
    (IdealClass.RIGHT, 5, 2),
)


class Sample:
    """Seeded ``harness.run`` campaigns in SampleMode, one per setting.  The
    SampleMode seeds derive from the workload seed alone, so every pass
    repeats the same campaigns and what a run counts and checks does not
    depend on how many passes fit in its time."""

    name = "sample"

    def __init__(self, seed: int, count: int = 50, settings=SAMPLE_SETTINGS) -> None:
        rng = random.Random(f"sample:{seed}")
        self.specs = [
            harness.CampaignSpec(
                n=n,
                alphabet_size=a,
                class_filter=klass,
                mode=harness.SampleMode(count=count, seed=rng.randrange(2**31)),
            )
            for klass, n, a in settings
        ]

    def steps(self) -> list:
        return [partial(self.campaign, spec) for spec in self.specs]

    def campaign(self, spec: harness.CampaignSpec) -> Outcome:
        report = harness.run(spec)
        o = campaign_outcome(report.to_json_dict(), spec.n, spec.mode.count)
        if report.samples_obtained != spec.mode.count:
            o.problems.append(
                f"{spec.class_filter.value} n={spec.n}: obtained "
                f"{report.samples_obtained} of {spec.mode.count} samples"
            )
        return o


#: DEFAULT_CAP (2,000,000) is below the left n=8 semigroup (2,097,159 elements).
CLOSURE_CAP = 4_000_000

# States the maximal semigroup of each class singles out: swapping one of them
# with another state changes the semigroup, so the relabeling search must work.
_SPECIAL = {
    IdealClass.RIGHT: lambda n: (n - 1,),
    IdealClass.LEFT: lambda n: (0,),
    IdealClass.TWO_SIDED: lambda n: (0, n - 1),
}


def swap_conjugate(images, i: int, j: int) -> frozenset[bytes]:
    """Conjugate packed maps by the transposition (i j)."""
    table = bytearray(range(256))
    table[i], table[j] = j, i
    out = set()
    for e in images:
        v = bytearray(e.translate(table))
        v[i], v[j] = v[j], v[i]
        out.add(bytes(v))
    return frozenset(out)


class Closure:
    """Witness transition semigroups of every class at n=7 and n=8, each
    compared element by element with the closed form and its size with the
    bound; at n <= RELABEL_MAX_N each is also relabeled onto a conjugate of
    the closed form by a seeded transposition."""

    name = "closure"

    def __init__(self, seed: int, sizes=(7, 8)) -> None:
        self.items = []
        for n in sizes:
            for klass in IdealClass:
                swap = None
                if n <= semigroup.RELABEL_MAX_N:
                    rng = random.Random(f"closure:{seed}:{klass.value}:{n}")
                    special = _SPECIAL[klass](n)
                    swap = (
                        rng.choice(special),
                        rng.choice([q for q in range(n) if q not in special]),
                    )
                self.items.append((klass, n, witness.build(klass, n), swap))

    def steps(self) -> list:
        return [partial(self.check, *item) for item in self.items]

    def check(self, klass: IdealClass, n: int, d, swap) -> Outcome:
        s = dfa.transition_semigroup(d, cap=CLOSURE_CAP)
        if not isinstance(s, TransformationSemigroup):
            return Outcome.error(f"{klass.value} n={n}: closure exceeded {CLOSURE_CAP}")
        o = Outcome(attempted=1)
        o.outputs["elements"] += s.size
        expected = witness.expected_semigroup(klass, n)
        if s.size != paper_bound(klass.value, n):
            o.problems.append(f"{klass.value} n={n}: size {s.size} != {paper_bound(klass.value, n)}")
        if s.images != expected.images:
            o.problems.append(f"{klass.value} n={n}: closure differs from the closed form")
        if swap is not None:
            i, j = swap
            target = TransformationSemigroup(
                n=n, images=swap_conjugate(expected.images, i, j), generators=s.generators
            )
            fixed = [q for q in range(n) if q not in swap]
            perm = semigroup.equal_up_to_relabeling(s, target, fixed)
            want = list(range(n))
            want[i], want[j] = j, i
            if perm != tuple(want):
                o.problems.append(f"{klass.value} n={n}: relabeling gave {perm}, not {tuple(want)}")
        o.failed = int(bool(o.problems))
        o.verdict.append((klass.value, n, s.size, o.failed))
        return o


class Generators:
    """Acceptance criterion 6: every witness letter at n=4..6 is necessary,
    and the exact minimal generator counts are 4 (left n=3), None (left n=4,
    k <= 4) and 5 (two-sided n=4, k <= 6)."""

    name = "generators"

    def __init__(
        self,
        seed: int,
        necessity_sizes=(4, 5, 6),
        counts=((IdealClass.LEFT, 3, 4, 4), (IdealClass.LEFT, 4, 4, None), (IdealClass.TWO_SIDED, 4, 6, 5)),
    ) -> None:
        self.necessity = [(k, n, witness.build(k, n)) for k in IdealClass for n in necessity_sizes]
        self.counts = [(k, n, k_max, want, witness.build(k, n)) for k, n, k_max, want in counts]

    def steps(self) -> list:
        return [partial(self.check_necessity, *item) for item in self.necessity] + [
            partial(self.check_count, *item) for item in self.counts
        ]

    def check_necessity(self, klass: IdealClass, n: int, d) -> Outcome:
        s = dfa.transition_semigroup(d)
        flags = semigroup.generator_necessity(s)
        o = Outcome(attempted=len(d.delta), failed=flags.count(False))
        o.outputs["elements"] += s.size
        if o.failed or len(flags) != len(d.delta):
            o.problems.append(f"{klass.value} n={n}: necessity {flags}")
        o.verdict.append((klass.value, n, tuple(flags)))
        return o

    def check_count(self, klass: IdealClass, n: int, k_max: int, want, d) -> Outcome:
        s = dfa.transition_semigroup(d)
        got = semigroup.minimal_generator_count(s, k_max=k_max)
        o = Outcome(attempted=1, failed=int(got != want))
        o.outputs["elements"] += s.size
        if o.failed:
            o.problems.append(f"{klass.value} n={n}: minimal generator count {got}, expected {want}")
        o.verdict.append((klass.value, n, k_max, got))
        return o


WORKLOAD_TYPES = {w.name: w for w in (Sweep, Sample, Closure, Generators)}
