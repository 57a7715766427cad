"""Complete deterministic finite automata over ordered alphabets.

States are 0..n-1, the per-letter transition function is a Transformation,
and every operation treats the automaton as immutable.  Partial transition
tables are a parse error, never silently completed: the transformation view
of the transition semigroup requires totality.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Iterable, Sequence

from .semigroup import TransformationSemigroup, closure
from .transform import Transformation


class DfaParseError(ValueError):
    """Malformed DFA text or JSON."""


@dataclass(frozen=True)
class Dfa:
    """Complete DFA: one Transformation per letter, in alphabet order."""

    alphabet: tuple[str, ...]
    delta: tuple[Transformation, ...]
    initial: int
    finals: frozenset[int]

    def __post_init__(self) -> None:
        object.__setattr__(self, "alphabet", tuple(self.alphabet))
        object.__setattr__(self, "delta", tuple(self.delta))
        object.__setattr__(self, "finals", frozenset(self.finals))
        if not self.alphabet:
            raise ValueError("alphabet must be non-empty")
        if len(set(self.alphabet)) != len(self.alphabet):
            raise ValueError("duplicate letter in alphabet")
        if len(self.delta) != len(self.alphabet):
            raise ValueError("one transformation per letter required")
        n = self.delta[0].n
        for g in self.delta:
            if g.n != n:
                raise ValueError("transition sizes disagree")
        # bool is a subclass of int, and no state index.
        if type(self.initial) is not int or not 0 <= self.initial < n:
            raise ValueError(f"initial state {self.initial!r} is not a state of [0, {n})")
        for q in self.finals:
            if type(q) is not int or not 0 <= q < n:
                raise ValueError(f"final state {q!r} is not a state of [0, {n})")

    @property
    def n(self) -> int:
        return self.delta[0].n

    @cached_property
    def letter_index(self) -> dict[str, int]:
        return {a: i for i, a in enumerate(self.alphabet)}

    @cached_property
    def transitions(self) -> "Transitions":
        """The letters and initial state, packed."""
        if self.n > 256:
            raise ValueError("the packed form holds at most 256 states")
        return Transitions(tuple(g.packed() for g in self.delta), self.initial)

    @cached_property
    def finals_mask(self) -> int:
        """The final states as a mask, bit q for state q."""
        return sum(1 << q for q in self.finals)

    def step(self, q: int, letter: str) -> int:
        return self.delta[self.letter_index[letter]].image[q]

    def run(self, word: Iterable[str], start: int | None = None) -> int:
        q = self.initial if start is None else start
        for a in word:
            q = self.step(q, a)
        return q

    def accepts(self, word: Iterable[str]) -> bool:
        return self.run(word) in self.finals

    def complement(self) -> "Dfa":
        return Dfa(
            alphabet=self.alphabet,
            delta=self.delta,
            initial=self.initial,
            finals=frozenset(range(self.n)) - self.finals,
        )


@dataclass(frozen=True)
class StatePreorder:
    """The relation leq[p][q] iff the language of p is contained in that of q.

    Reflexive and transitive by construction; on a minimal DFA it is also
    antisymmetric, since distinct states have distinct languages.
    """

    n: int
    leq: tuple[tuple[bool, ...], ...]

    def strictly_less(self, p: int, q: int) -> bool:
        return p != q and self.leq[p][q] and not self.leq[q][p]


# ---------------------------------------------------------------------------
# text / JSON / DOT formats


def parse_dfa(text: str) -> Dfa:
    """Parse the line-oriented text format (see ``to_text``)."""
    rows: list[tuple[int, list[str]]] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        body = raw.split("#", 1)[0].strip()
        if body:
            rows.append((lineno, body.split()))
    if not rows:
        raise DfaParseError("empty DFA description")

    def expect(index: int, keyword: str) -> tuple[int, list[str]]:
        if index >= len(rows):
            raise DfaParseError(f"missing '{keyword}' line")
        lineno, tokens = rows[index]
        if tokens[0] != keyword:
            raise DfaParseError(f"line {lineno}: expected '{keyword}', got '{tokens[0]}'")
        return lineno, tokens[1:]

    lineno, args = expect(0, "states")
    if len(args) != 1 or not args[0].isdecimal() or int(args[0]) < 1:
        raise DfaParseError(f"line {lineno}: 'states' needs one positive integer")
    n = int(args[0])

    lineno, letters = expect(1, "alphabet")
    if not letters:
        raise DfaParseError(f"line {lineno}: alphabet must be non-empty")
    if len(set(letters)) != len(letters):
        raise DfaParseError(f"line {lineno}: duplicate letter in alphabet")

    lineno, args = expect(2, "initial")
    initial = _parse_state(args, 1, n, lineno)[0]

    lineno, args = expect(3, "final")
    finals = frozenset(_parse_state(args, None, n, lineno))

    delta: dict[str, Transformation] = {}
    for lineno, tokens in rows[4:]:
        if tokens[0] != "trans":
            raise DfaParseError(f"line {lineno}: expected 'trans', got '{tokens[0]}'")
        if len(tokens) < 2:
            raise DfaParseError(f"line {lineno}: 'trans' needs a letter")
        letter = tokens[1]
        if letter not in letters:
            raise DfaParseError(f"line {lineno}: letter '{letter}' not in alphabet")
        if letter in delta:
            raise DfaParseError(f"line {lineno}: duplicate transitions for '{letter}'")
        images = _parse_state(tokens[2:], n, n, lineno)
        delta[letter] = Transformation(tuple(images))
    missing = [a for a in letters if a not in delta]
    if missing:
        raise DfaParseError(f"missing transition row for letter '{missing[0]}'")
    return Dfa(
        alphabet=tuple(letters),
        delta=tuple(delta[a] for a in letters),
        initial=initial,
        finals=finals,
    )


def _parse_state(tokens: Sequence[str], count: int | None, n: int, lineno: int) -> list[int]:
    if count is not None and len(tokens) != count:
        raise DfaParseError(f"line {lineno}: expected {count} state(s), got {len(tokens)}")
    out = []
    for tok in tokens:
        if not tok.isdecimal():
            raise DfaParseError(f"line {lineno}: bad state index '{tok}'")
        q = int(tok)
        if q >= n:
            raise DfaParseError(f"line {lineno}: state {q} out of range [0, {n})")
        out.append(q)
    return out


def to_text(d: Dfa) -> str:
    lines = [
        f"states {d.n}",
        "alphabet " + " ".join(d.alphabet),
        f"initial {d.initial}",
        ("final " + " ".join(str(q) for q in sorted(d.finals))).rstrip(),
    ]
    for a, g in zip(d.alphabet, d.delta):
        lines.append(f"trans {a} " + " ".join(str(q) for q in g.image))
    return "\n".join(lines) + "\n"


def to_json_dict(d: Dfa) -> dict:
    return {
        "states": d.n,
        "alphabet": list(d.alphabet),
        "initial": d.initial,
        "final": sorted(d.finals),
        "trans": {a: list(g.image) for a, g in zip(d.alphabet, d.delta)},
    }


def from_json_dict(data: dict) -> Dfa:
    try:
        n = data["states"]
        if type(n) is not int:
            raise DfaParseError(f"'states' is {n!r}, not an integer")
        letters = data["alphabet"]
        if type(letters) is not list:
            raise DfaParseError(f"'alphabet' is {letters!r}, not a list of letters")
        for a in letters:
            # A letter is one token of the text format: no whitespace.
            if type(a) is not str or a.split() != [a]:
                raise DfaParseError(f"bad letter {a!r} in alphabet")
        trans = data["trans"]
        for a in trans:
            if a not in letters:
                raise DfaParseError(f"letter '{a}' not in alphabet")
        delta = []
        for a in letters:
            if a not in trans:
                raise DfaParseError(f"missing transition row for letter '{a}'")
            images = trans[a]
            if len(images) != n:
                raise DfaParseError(f"letter '{a}': expected {n} images")
            delta.append(Transformation(tuple(images)))
        return Dfa(
            alphabet=tuple(letters),
            delta=tuple(delta),
            initial=data["initial"],
            finals=frozenset(data["final"]),
        )
    except DfaParseError:
        raise
    except (KeyError, TypeError, ValueError) as exc:
        raise DfaParseError(f"bad DFA JSON: {exc}") from exc


def parse_dfa_json(text: str) -> Dfa:
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise DfaParseError(f"bad JSON: {exc}") from exc
    return from_json_dict(data)


def to_dot(d: Dfa) -> str:
    """Graphviz rendering: doublecircle finals, comma-joined edge labels."""
    lines = [
        "digraph dfa {",
        "  rankdir=LR;",
        '  __start [shape=none, label=""];',
    ]
    for q in range(d.n):
        shape = "doublecircle" if q in d.finals else "circle"
        lines.append(f"  {q} [shape={shape}];")
    lines.append(f"  __start -> {d.initial};")
    for p in range(d.n):
        targets: dict[int, list[str]] = {}
        for a, g in zip(d.alphabet, d.delta):
            targets.setdefault(g.image[p], []).append(a)
        for q in sorted(targets):
            label = ",".join(targets[q])
            lines.append(f'  {p} -> {q} [label="{label}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# the packed form: letters as bytes maps, state sets as int masks


class _fact:
    """An attribute computed on first access and stored on the instance,
    where it then shadows this descriptor: ``functools.cached_property``
    without the lock that Python 3.11 takes on every first access, which a
    sweep pays for each fact of each letter tuple."""

    def __init__(self, compute) -> None:
        self.compute = compute
        self.name = compute.__name__
        self.__doc__ = compute.__doc__

    def __get__(self, instance, owner=None):
        if instance is None:
            return self
        value = instance.__dict__[self.name] = self.compute(instance)
        return value


class Transitions:
    """A DFA's letters and initial state without its final states, packed.

    ``maps[a][q]`` is the image of state q under letter a, one ``bytes`` map
    per letter (so at most 256 states); sets of states are ``int`` masks with
    bit q for state q, and sets of state pairs are masks with bit ``x*n + y``
    for the pair (x, y).  Every fact below depends on the letters and the
    initial state alone, so an exhaustive sweep computes it once per orbit
    of letter sets and initial state of the orbit's least set, and shares
    it across every member that starts there and every final set; each is
    computed on first use.  Containment between the
    languages of p and q under final states F fails exactly when some pair
    reachable from (p, q) lies in ``crossing_pairs(n, F)``, so a union of pair
    masks decides a whole family of containments with one AND; ``preorder``
    walks the same pair graph backward from the crossing pairs to decide
    every containment at once.
    """

    def __init__(self, maps: Sequence[bytes], initial: int = 0) -> None:
        self.maps = tuple(maps)
        self.n = len(self.maps[0])
        self.initial = initial

    @_fact
    def successors(self) -> tuple[int, ...]:
        """successors[q]: the states q.a over the letters a."""
        out = [0] * self.n
        for m in self.maps:
            for q, r in enumerate(m):
                out[q] |= 1 << r
        return tuple(out)

    @_fact
    def reach(self) -> tuple[int, ...]:
        """reach[q]: the states q.w over all words w, the empty word included.

        Warshall's transitive closure of the successor masks: at step k,
        every state whose mask holds k gains k's mask."""
        out = [s | 1 << q for q, s in enumerate(self.successors)]
        for k, via in enumerate(out):
            bit = 1 << k
            for q, r in enumerate(out):
                if r & bit:
                    out[q] = r | via
        return tuple(out)

    @_fact
    def pair_maps(self) -> tuple[tuple[int, ...], ...]:
        """Per letter, ``_pair_map`` of its map."""
        return tuple(map(_pair_map, self.maps))

    def _pairs_reachable(self, sources: Iterable[int], closed: int = 0) -> int:
        """The pairs (p.w, q.w) over every word w, the empty word included,
        and every source pair (p, q), given by its index ``p*n + q``; united
        with ``closed``, a pair mask already closed under the letters, whose
        pairs are not traversed again."""
        pair_maps = self.pair_maps
        seen = closed
        queue = []
        for i in sources:
            if not seen >> i & 1:
                seen |= 1 << i
                queue.append(i)
        for i in queue:
            for step in pair_maps:
                j = step[i]
                if not seen >> j & 1:
                    seen |= 1 << j
                    queue.append(j)
        return seen

    @_fact
    def initial_step_pairs(self) -> int:
        """Pairs reachable from (initial, initial.a) for any letter a.

        Both ``initial_pairs`` and ``step_pairs`` have these among their
        sources, so each grows from this mask instead of traversing it again."""
        n, i = self.n, self.initial
        return self._pairs_reachable(i * n + m[i] for m in self.maps)

    @_fact
    def initial_pairs(self) -> int:
        """Pairs reachable from (initial, q) for any q: the initial state's
        language lies in every state's iff none of them crosses."""
        start = self.initial * self.n
        return self._pairs_reachable(range(start, start + self.n), self.initial_step_pairs)

    @_fact
    def step_pairs(self) -> int:
        """Pairs reachable from (q, q.a) for any state q and letter a."""
        n = self.n
        return self._pairs_reachable(
            (q * n + r for m in self.maps for q, r in enumerate(m)), self.initial_step_pairs
        )

    @_fact
    def ur_depth(self) -> int | None:
        """Length of the longest word whose quotient is uniquely reachable.

        State q is uniquely reachable by wa iff its only incoming transition
        is (p, a) with p uniquely reachable by w; the initial state is
        uniquely reachable by the empty word iff nothing (including itself)
        maps into it.  None when the language itself is not uniquely
        reachable.
        """
        indegree = [0] * self.n
        for m in self.maps:
            for r in m:
                indegree[r] += 1
        if indegree[self.initial]:
            return None
        depth = {self.initial: 0}
        queue = [self.initial]
        for p in queue:
            for m in self.maps:
                q = m[p]
                if q not in depth and indegree[q] == 1:
                    depth[q] = depth[p] + 1
                    queue.append(q)
        return max(depth.values())


def _pair_map(m: bytes) -> tuple[int, ...]:
    """The pair (x, y) of states, as index ``x*n + y``, mapped to the index
    of (m[x], m[y])."""
    n = len(m)
    return tuple([x * n + y for x in m for y in m])


def crossing_pairs(n: int, finals: int) -> int:
    """The pairs (x, y) with x final and y not: a word leading (p, q) into one
    of them puts the word in the language of p but not in that of q."""
    nonfinal = ((1 << n) - 1) & ~finals
    out = 0
    for x in range(n):
        if finals >> x & 1:
            out |= nonfinal << (x * n)
    return out


# ---------------------------------------------------------------------------
# reachability, minimization


def reachable_states(t: Transitions) -> list[int]:
    """States reachable from the initial state, in breadth-first order
    (letters explored in alphabet order)."""
    order = [t.initial]
    seen = 1 << t.initial
    for q in order:
        for m in t.maps:
            r = m[q]
            if not seen >> r & 1:
                seen |= 1 << r
                order.append(r)
    return order


def _partition(maps: Sequence[bytes], finals: int) -> bytes:
    """Moore refinement of all states by language: state -> block id.

    Blocks start as final / non-final (``_start_blocks``).  Each round counts
    the distinct signatures, a state's block with its letter successors'
    blocks (one ``bytes.translate`` per letter), before numbering them: it
    returns the identity once every state's is distinct, the blocks as they
    are once the count stops growing, and else renumbers them in order of
    first appearance.
    """
    n = len(maps[0])
    block, count, identity, pad = _start_blocks(n, finals)
    while True:
        table = block + pad
        images = [m.translate(table) for m in maps]
        refined = len(set(zip(block, *images)))
        if refined == n:
            return identity
        if refined == count:
            return block
        ids: dict = {}
        number = ids.setdefault
        block = bytes([number(sig, len(ids)) for sig in zip(block, *images)])
        count = refined


@lru_cache(maxsize=256)
def _start_blocks(n: int, finals: int) -> tuple[bytes, int, bytes, bytes]:
    """``_partition``'s start blocks (final states in ord("1"), the others in
    ord("0")), their count, the identity and the padding to a 256-byte table;
    memoised, as a sweep asks for each (n, finals) once per letter tuple."""
    block = format(finals, f"0{n}b")[::-1].encode()
    count = 2 if 0 < finals < (1 << n) - 1 else 1
    return block, count, bytes(range(n)), bytes(256 - n)


def quotient_maps(
    maps: Sequence[bytes], finals: int, block: bytes, initial: int = 0
) -> tuple[tuple[bytes, ...], int, list[int]]:
    """The packed DFA of the blocks of a congruence (state -> block id, as
    ``_partition`` returns it) reachable from the initial state's block,
    numbered breadth-first with letters explored in order, initial state 0,
    and the new state of every state whose block is reached (0 for others).

    On the ``_partition`` blocks this is the canonical minimal DFA that
    ``minimize`` returns; with every state in a block of its own
    (``bytes(range(n))``) it renumbers a minimal DFA into that form without
    refining anything, and the labels are the renumbering.
    """
    number = {block[initial]: 0}
    reps = [initial]
    for q in reps:
        for m in maps:
            r = m[q]
            if block[r] not in number:
                number[block[r]] = len(reps)
                reps.append(r)
    # New state of every state whose block is reached; only those are read.
    label = [number.get(b, 0) for b in block]
    out = tuple(bytes([label[m[q]] for q in reps]) for m in maps)
    return out, sum(1 << i for i, q in enumerate(reps) if finals >> q & 1), label


def from_maps(alphabet: Sequence[str], maps: Sequence[bytes], finals: int) -> Dfa:
    """The DFA with letter maps ``maps``, final states ``finals`` (a mask) and
    initial state 0."""
    n = len(maps[0])
    return Dfa(
        alphabet=tuple(alphabet),
        delta=tuple(Transformation(tuple(m)) for m in maps),
        initial=0,
        finals=frozenset(q for q in range(n) if finals >> q & 1),
    )


def minimize(d: Dfa) -> Dfa:
    """The canonical minimal DFA for the same language: ``quotient_maps`` of
    the ``_partition`` blocks on the packed form, so at most 256 states
    (``ValueError`` above).

    Unreachable states are dropped, equivalent states merged, and the result
    renumbered breadth-first from the initial state with letters explored in
    alphabet order, so equal languages yield identical automata.
    """
    maps, finals = d.transitions.maps, d.finals_mask
    maps, finals, _ = quotient_maps(maps, finals, _partition(maps, finals), d.initial)
    return from_maps(d.alphabet, maps, finals)


# ---------------------------------------------------------------------------
# the state preorder


def preorder(d: Dfa) -> StatePreorder:
    """The full containment relation, by closing the bad pairs backward.

    A pair (p, q) is bad (p not <= q) iff it is in ``crossing_pairs`` or some
    letter leads it to a bad pair: the pairs from which ``classify_minimal``
    finds a crossing pair walking forward over ``Transitions.pair_maps`` are
    found here walking that pair graph backward from every crossing pair at
    once, and leq is the complement.  The classification of a candidate
    needs only three unions of pair masks, not the whole relation; this is
    the full relation for the chain length, the injection constructions and
    the uniqueness certificate.
    """
    t = d.transitions
    n = t.n
    preimages: list[list[int]] = [[] for _ in range(n * n)]
    for step in t.pair_maps:
        for i, j in enumerate(step):
            preimages[j].append(i)
    bad = crossing_pairs(n, d.finals_mask)
    queue = [j for j in range(n * n) if bad >> j & 1]
    for j in queue:
        for i in preimages[j]:
            if not bad >> i & 1:
                bad |= 1 << i
                queue.append(i)
    leq = tuple(tuple(not bad >> (p * n + q) & 1 for q in range(n)) for p in range(n))
    return StatePreorder(n=n, leq=leq)


def max_chain_length(po: StatePreorder) -> int:
    """Number of states in the longest chain from state 0 strictly ordered
    by containment."""
    n = po.n
    longest: dict[int, int] = {}

    def walk(p: int) -> int:
        if p not in longest:
            longest[p] = 1 + max(
                (walk(q) for q in range(n) if po.strictly_less(p, q)), default=0
            )
        return longest[p]

    return walk(0)


# ---------------------------------------------------------------------------
# semigroups of a DFA


def transition_semigroup(d: Dfa, cap: int | None = None) -> TransformationSemigroup:
    """Closure of the letter transformations (the maps of non-empty words)."""
    return closure(list(d.delta), cap=cap)


def syntactic_complexity(d: Dfa, cap: int | None = None) -> int:
    """Size of the transition semigroup of the minimal DFA."""
    return transition_semigroup(minimize(d), cap=cap).size
