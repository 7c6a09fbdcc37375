"""Seeded inputs for the `lexicon` and `reduction` workloads.

Each generator returns lexicon sources together with the outcome the
checker must report for every top-level declaration in them. The outcomes
come from the construction, not from the checker:

* literal sums are added up here;
* restriction normal forms are spelled out from the prelude rule
  ``El_NP (SigmaNP np P) = Sigma (p : El_NP np). Prf (P p)``;
* a telicity check states ``Tel`` or ``Atel`` from the boundedness drawn;
* rejections are written as ``fail CODE``, so they report ``ok`` when the
  checker rejects them with that code.

The seed changes names' order, literal values and which earlier entries
a declaration builds on. It does not change how many declarations of each
class a source holds, so the work per pass stays the same across seeds.
"""

from __future__ import annotations

import random
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path


@dataclass(frozen=True)
class Expect:
    """What the checker must report for one top-level declaration."""

    cls: str  # declaration class, for the make-up table in README.md
    kind: str  # Report.kind
    name: str | None  # Report.name
    normal_form: str | None = None  # printed normal form, where the construction fixes it
    known_fault: bool = False  # fails today because of a fault CHANGES.md names


@dataclass
class Source:
    """One lexicon file of a workload and the expected report of each of its
    top-level declarations, in order."""

    name: str
    lines: list[str] = field(default_factory=list)
    expect: list[Expect] = field(default_factory=list)

    def add(self, cls: str, text: str, kind: str, name: str | None = None,
            normal_form: str | None = None, known_fault: bool = False) -> None:
        self.lines.append(text)
        self.expect.append(Expect(cls, kind, name, normal_form, known_fault))

    @property
    def text(self) -> str:
        return "\n".join(self.lines) + "\n"


def _sum(src: Source, rng: random.Random, terms: int, top: int) -> None:
    values = [rng.randint(0, top) for _ in range(terms)]
    total = sum(values)
    src.add("sum", f"norm {' + '.join(map(str, values))} = {total}", "norm",
            normal_form=str(total))


def restriction(np: str, adj: str) -> str:
    """The surface term of ``np`` restricted by the intersective adjective ``adj``."""
    return f"SigmaNP {np} (\\p. El_IA {adj} ((U , {np}) , p))"


def _restriction_nf(base: str, chain: list[tuple[str, str]], depth: int) -> str:
    """Normal form of ``El_NP`` of the ``depth``-th restriction in ``chain``.

    ``chain[i]`` is the (definition, adjective) of level ``i + 1``; each level
    unfolds by the SigmaNP rule, while the noun inside the predicate stays
    folded because it sits below a neutral head."""
    nf = f"El_NP {base}"
    prev = base
    for name, adj in chain[:depth]:
        nf = f"Sigma (p : {nf}). Prf (El_IA {adj} ((U , {prev}) , p))"
        prev = name
    return nf


# --- lexicon -------------------------------------------------------------------

# The lexicon is ROUNDS rounds of the groups below. A group emits one or more
# declarations of the kinds noted; per round they add up to the make-up of
# the repository's corpus (src/telic/data/corpus) by declaration kind:
CORPUS_KINDS = {"postulate": 97, "def": 54, "check": 41, "norm": 13, "entail": 11,
                "fail": 19, "rewrite": 3, "import": 1}
# less its one `import` and its one `fail FuelExhausted`, which burns the
# whole fuel budget (selftest runs it). Within a kind, the groups follow the
# corpus's topics; bench/README.md maps one onto the other.
ROUND = {
    # group: groups per round; the declarations each emits
    "noun": 26,  # 1 postulate: n : NP U
    "counted_noun": 5,  # 2 postulates: a noun and its count proof
    "adjective": 5,  # 1 postulate
    "restriction": 3,  # 1 def: SigmaNP over a noun phrase, at most MAX_LEVEL deep
    "counted_restriction": 1,  # 2 defs: a restriction and its SigmaIsCount proof
    "individual": 17,  # 1 postulate: i : El_NP n
    "property": 8,  # 2 postulates: an individual and its adjective proof
    "verb": 6,  # 1 postulate
    "culminating_verb": 3,  # 3 postulates (pop, its result state, its proof) and 1 rewrite
    "amount": 13,  # 1 def
    "merge": 4,  # 2 postulates (elements of amounts) and 1 def (their merge)
    "actor": 9,  # 1 def
    "culmination": 2,  # 1 def
    "event": 10,  # 1 def
    "coercion": 8,  # 1 def: El_isA (NPIsOneNP ..)
    "undergoer": 3,  # 1 def
    "telicity": 15,  # 1 check: Tel or Atel
    "typing": 22,  # 1 check: an entity, or a member of a restriction
    "isa": 4,  # 1 check
    "sum": 2,  # 1 norm
    "unfold": 5,  # 1 norm: El_NP of a restriction
    "iscul": 6,  # 1 norm
    "entailment": 11,  # 1 entail
    "fail": 18,  # 1 fail
}
ROUNDS = 11
MAX_LEVEL = 3  # adjectives stacked on one noun


@dataclass
class _NP:
    name: str
    level: int  # adjectives stacked on the noun
    count_proof: str | None
    chain: tuple[tuple[str, str], ...] = ()  # (restriction, adjective) from the noun up
    noun: str | None = None

    @property
    def base(self) -> str:
        """The noun phrase this one restricts."""
        return self.chain[-2][0] if len(self.chain) > 1 else self.noun


class _Lexicon:
    def __init__(self, rng: random.Random, src: Source):
        self.rng = rng
        self.src = src
        self.serial = 0
        self.nouns: list[_NP] = []
        self.nps: list[_NP] = []  # nouns and restrictions, all unbounded
        self.restricted: list[_NP] = []
        self.adjectives: list[str] = []
        self.individuals: list[tuple[str, str]] = []  # (individual, noun)
        self.members: list[tuple[str, str, str]] = []  # (individual, adjective proof, restriction)
        self.amounts: list[str] = []
        self.verbs: list[str] = []
        self.pops: list[tuple[str, str, str]] = []  # (culminating verb, its result state, its proof)
        self.actors: list[str] = ["act_star"]
        self.culminations: list[tuple[str, str]] = []  # (culmination, normal form of its result)
        self.fails = 0
        self.typings = 0

    def fresh(self, prefix: str) -> str:
        self.serial += 1
        return f"{prefix}{self.serial}"

    # postulates

    def noun(self, counted: bool = False) -> None:
        n = self.fresh("n")
        self.src.add("noun", f"postulate {n} : NP U", "postulate", n)
        proof = None
        if counted:
            proof = n + "c"
            self.src.add("count", f"postulate {proof} : Prf (isCount {n})", "postulate", proof)
        entry = _NP(n, 0, proof, noun=n)
        self.nouns.append(entry)
        self.nps.append(entry)

    def counted_noun(self) -> None:
        self.noun(counted=True)

    def adjective(self) -> None:
        a = self.fresh("a")
        self.src.add("adjective", f"postulate {a} : IntAdj", "postulate", a)
        self.adjectives.append(a)

    def individual(self) -> None:
        n = self.rng.choice(self.nouns).name
        i = self.fresh("i")
        self.src.add("individual", f"postulate {i} : El_NP {n}", "postulate", i)
        self.individuals.append((i, n))

    def property(self) -> None:
        r = self.rng.choice([r for r in self.restricted if r.level == 1])
        (_, adj), = r.chain
        i = self.fresh("i")
        self.src.add("individual", f"postulate {i} : El_NP {r.noun}", "postulate", i)
        self.individuals.append((i, r.noun))
        proof = i + "p"
        self.src.add("property", f"postulate {proof} : Prf (El_IA {adj} ((U , {r.noun}) , {i}))", "postulate", proof)
        self.members.append((i, proof, r.name))

    def verb(self) -> None:
        v = self.fresh("v")
        self.src.add("verb", f"postulate {v} : (a : Act) -> (w : UndFull) -> Evt (fst w) a (snd w)", "postulate", v)
        self.verbs.append(v)

    def culminating_verb(self) -> None:
        k = self.fresh("")
        pop, state, proof = f"pop{k}", f"res{k}", f"pop{k}c"
        self.src.add("verb", f"postulate {pop} : (a : Act) -> (und : Und B) -> Tel a und", "postulate", pop)
        self.src.add("state", f"postulate {state} : (und : Und B) -> State B act_star und", "postulate", state)
        self.src.add("rewrite", f"rewrite (a : Act) (und : Und B) : Result ({pop} a und) = {state} und", "rewrite")
        self.src.add("verb", f"postulate {proof} : (a : Act) -> (und : Und B) -> "
                         f"El_Evt ({pop} a und) -> Prf (El_State ({state} und))", "postulate", proof)
        self.pops.append((pop, state, proof))

    def merge(self) -> None:
        np = self.rng.choice(self.nps).name
        parts = []
        for _ in range(2):
            x = self.fresh("x")
            k = self.rng.randint(1, 20)
            self.src.add("element", f"postulate {x} : El_NP (AmountOf {np} quantity nu {k})", "postulate", x)
            parts.append((x, k))
        g = self.fresh("g")
        (x1, k1), (x2, k2) = parts
        self.src.add("merge", f"def {g} : El_NP (AmountOf {np} quantity nu {k1 + k2}) = {x1} (+) {x2}", "def", g)

    # defs

    def restriction(self, counted: bool = False) -> None:
        base = self.rng.choice([np for np in self.nps
                                if np.level < MAX_LEVEL and (np.count_proof is not None) == counted])
        adj = self.rng.choice(self.adjectives)
        r = self.fresh("r")
        self.src.add("restriction", f"def {r} : NP U = {restriction(base.name, adj)}", "def", r)
        proof = None
        if counted:
            proof = r + "c"
            self.src.add("count", f"def {proof} : Prf (isCount {r}) = SigmaIsCount {base.name} {base.count_proof} "
                              f"(\\p. El_IA {adj} ((U , {base.name}) , p))", "def", proof)
        entry = _NP(r, base.level + 1, proof, base.chain + ((r, adj),), base.noun)
        self.nps.append(entry)
        self.restricted.append(entry)

    def counted_restriction(self) -> None:
        self.restriction(counted=True)

    def amount(self) -> None:
        np = self.rng.choice(self.nps).name
        m = self.fresh("m")
        self.src.add("amount", f"def {m} : NP B = AmountOf {np} quantity nu {self.rng.randint(1, 20)}", "def", m)
        self.amounts.append(m)

    def actor(self) -> None:
        i, n = self.rng.choice(self.individuals)
        act = self.fresh("act")
        self.src.add("actor", f"def {act} : Act = act_Entity ((U , {n}) , {i})", "def", act)
        self.actors.append(act)

    def culmination(self) -> None:
        pop, state, proof = self.rng.choice(self.pops)
        act, m = self.rng.choice(self.actors), self.rng.choice(self.amounts)
        cul = self.fresh("cul")
        self.src.add("culmination", f"def {cul} : Cul {act} (und_NP {m}) = "
                                f"({pop} {act} (und_NP {m}) , {proof} {act} (und_NP {m}))", "def", cul)
        # The result rewrites to the verb's state.
        self.culminations.append((cul, f"{state} (und_NP {m})"))

    def event(self) -> None:
        v, act, e = self.rng.choice(self.verbs), self.rng.choice(self.actors), self.fresh("e")
        if self.rng.random() < 0.5:
            m = self.rng.choice(self.amounts)
            self.src.add("event", f"def {e} : Tel {act} (und_NP {m}) = {v} {act} (B , und_NP {m})", "def", e)
        else:
            n = self.rng.choice(self.nps).name
            self.src.add("event", f"def {e} : Atel {act} (und_NP {n}) = {v} {act} (U , und_NP {n})", "def", e)

    def coercion(self) -> None:
        np = self.rng.choice([np for np in self.nps if np.count_proof is not None])
        one = self.fresh("one")
        self.src.add("coercion", f"def {one} : El_NP {np.name} -> El_NP (AmountOf {np.name} quantity nu 1) = "
                             f"El_isA (NPIsOneNP {np.name} {np.count_proof})", "def", one)

    def undergoer(self) -> None:
        u = self.fresh("u")
        self.src.add("undergoer", f"def {u} : Und B = und_NP {self.rng.choice(self.amounts)}", "def", u)

    # checks

    def telicity(self) -> None:
        v, act = self.rng.choice(self.verbs), self.rng.choice(self.actors)
        if self.rng.random() < 0.5:
            m = self.rng.choice(self.amounts)
            self.src.add("telicity", f"check {v} {act} (B , und_NP {m}) : Tel {act} (und_NP {m})", "check")
        else:
            n = self.rng.choice(self.nps).name
            self.src.add("telicity", f"check {v} {act} (U , und_NP {n}) : Atel {act} (und_NP {n})", "check")

    def typing(self) -> None:
        self.typings += 1
        if self.typings % 2:
            i, n = self.rng.choice(self.individuals)
            self.src.add("typing", f"check ((U , {n}) , {i}) : Entity", "check")
        else:
            i, proof, r = self.rng.choice(self.members)
            self.src.add("typing", f"check ({i} , {proof}) : El_NP {r}", "check")

    def isa(self) -> None:
        r = self.rng.choice(self.restricted)
        self.src.add("isa", f"check IANPIsNP {r.base} {r.chain[-1][1]} : isA {r.name} {r.base}", "check")

    # norms

    def sum(self) -> None:
        _sum(self.src, self.rng, self.rng.randint(2, 6), 50)

    def unfold(self) -> None:
        r = self.rng.choice(self.restricted)
        self.src.add("unfold", f"norm El_NP {r.name} = {_restriction_nf(r.noun, list(r.chain), r.level)}", "norm")

    def iscul(self) -> None:
        c, result = self.rng.choice(self.culminations)
        self.src.add("iscul", f"norm Prf (isCul (fst {c})) = El_Evt (fst {c}) -> Prf (El_State ({result}))", "norm")

    # entailments and rejections

    def entailment(self) -> None:
        r, e = self.rng.choice(self.restricted), self.fresh("ent")
        self.src.add("entailment", f"entail {e} : El_NP {r.name} => El_NP {r.base} = \\q. fst q", "entail", e)

    def fail(self) -> None:
        """The corpus's rejections in turn, one per code it uses and six
        type mismatches, as in the corpus."""
        self.fails += 1
        match self.fails % ROUND["fail"]:
            case 0 | 11:
                v, act, n = self.rng.choice(self.verbs), self.rng.choice(self.actors), self.rng.choice(self.nps).name
                self.src.add("fail", f"fail TypeMismatch check {v} {act} (U , und_NP {n}) : Tel {act} (und_NP {n})",
                         "fail")
            case 1:
                self.src.add("fail", f"fail UnboundVariable check {self.fresh('missing')} : NP U", "fail")
            case 2 | 16:
                self.src.add("fail", f"fail TypeMismatch check {self.rng.choice(self.amounts)} : NP U", "fail")
            case 3:
                self.src.add("fail", f"fail NotAFunction check {self.rng.choice(self.nouns).name} 3 : NP U", "fail")
            case 4:
                i, n = self.rng.choice(self.individuals)
                other = self.rng.choice([m for m in self.nouns if m.name != n]).name
                self.src.add("fail", f"fail TypeMismatch check {i} : El_NP {other}", "fail")
            case 5:
                self.src.add("fail", f"fail NotAPair check fst {self.rng.choice(self.nouns).name} : NP U", "fail")
            case 6:
                self.src.add("fail", "fail UniverseMismatch check Type1 : Type1", "fail")
            case 7:
                r = self.rng.choice(self.restricted)
                other = self.rng.choice([m for m in self.nouns if m.name != r.noun]).name
                bad = self.fresh("bad")
                self.src.add("fail", f"fail TypeMismatch entail {bad} : El_NP {r.name} => El_NP {other} = \\q. fst q",
                         "fail", bad)
            case 8:
                bad = self.fresh("bad")
                self.src.add("fail", f"fail UnsolvedMeta def {bad} : Nat = _", "fail", bad)
            case 9:
                self.src.add("fail", "fail CannotInfer norm \\x. x = \\x. x", "fail")
            case 10:
                n = self.rng.choice(self.nouns).name
                self.src.add("fail", f"fail DuplicateName postulate {n} : NP U", "fail", n)
            case 12:
                self.src.add("fail", "fail NonlinearPattern rewrite (n : Nat) : plus n n = n", "fail")
            case 13:
                self.src.add("fail", "fail RewriteHeadIsDefinition rewrite (a : Act) (und : Und B) : "
                                 "Tel a und = Atel a und_star", "fail")
            case 14:
                self.src.add("fail", "fail InvalidRewrite rewrite (n : Nat) (m : Nat) : plus n 1 = plus n m", "fail")
            case 15:
                self.src.add("fail", "fail RewriteTypeMismatch rewrite (n : Nat) : plus n 0 = B", "fail")
            case 17:
                self.src.add("fail", 'fail ParseError import "missing.tel"', "fail", "missing.tel")


def lexicon(seed: int, rounds: int = ROUNDS) -> Source:
    """A lexicon of ``rounds`` rounds of ROUND over a growing signature.

    The first round runs its groups in ROUND's order, in which every group
    comes after those it builds on; the seed shuffles every later round."""
    rng = random.Random(seed)
    src = Source(f"lexicon-{seed}.tel")
    lex = _Lexicon(rng, src)
    one_round = [cls for cls, n in ROUND.items() for _ in range(n)]
    for k in range(rounds):
        groups = list(one_round)
        if k:
            rng.shuffle(groups)
        for cls in groups:
            getattr(lex, cls)()
    return src


def corpus_kinds(corpus: Path) -> Counter:
    """Top-level declarations of the corpus's ``*.tel`` files by kind: the
    keyword that starts each unindented line."""
    kinds: Counter = Counter()
    for path in sorted(corpus.glob("*.tel")):
        for line in path.read_text(encoding="utf-8").splitlines():
            word = line.split(" ", 1)[0]
            if word in CORPUS_KINDS:
                kinds[word] += 1
    return kinds


# --- reduction -----------------------------------------------------------------

ADJECTIVES = 10  # stacked restrictions run 1 .. ADJECTIVES deep
CHAINS = 3
SUM_LENGTHS = tuple(range(10, 201, 10))  # the longest stays clear of the recursion limit under tracing
EVENT_DEPTH = 5  # stacked SigmaEvt restrictions
AMOUNTS = 4
FUEL_FAULT_DEPTH = 13
RECURSION_FAULT_LENGTH = 400


def reduction(seed: int) -> list[Source]:
    """The reduction input: one seeded file of normalisation-heavy
    declarations over a small signature, then two fixed files that each hold
    one operation the checker gets wrong today."""
    rng = random.Random(seed)
    main = Source(f"reduction-{seed}.tel")
    adjectives = [f"adj{i}" for i in range(ADJECTIVES)]
    for a in adjectives:
        main.add("signature", f"postulate {a} : IntAdj", "postulate", a)
    for c in range(CHAINS):
        base = f"noun{c}"
        main.add("signature", f"postulate {base} : NP U", "postulate", base)
        chain = []
        prev = base
        for level, adj in enumerate(rng.sample(adjectives, ADJECTIVES), start=1):
            name = f"s{c}_{level}"
            main.add("restriction", f"def {name} : NP U = {restriction(prev, adj)}", "def", name)
            chain.append((name, adj))
            prev = name
        for depth in rng.sample(range(1, ADJECTIVES + 1), ADJECTIVES):
            main.add("restriction-norm", f"norm El_NP {chain[depth - 1][0]} = {_restriction_nf(base, chain, depth)}",
                     "norm")

    for length in rng.sample(SUM_LENGTHS, len(SUM_LENGTHS)):
        _sum(main, rng, length, 9)

    mass = "mass"
    main.add("signature", f"postulate {mass} : NP U", "postulate", mass)
    amounts = []
    for i in range(AMOUNTS):
        m = f"amt{i}"
        np = rng.choice([mass, "noun0", "noun1", "noun2"])
        main.add("signature", f"def {m} : NP B = AmountOf {np} quantity nu {rng.randint(1, 99)}", "def", m)
        amounts.append(m)
    for np in rng.sample([mass, "noun0", "s0_3", "s1_7", "s2_10"], 5):
        main.add("several", f"norm El_NP (several {np} quantity nu) = Sigma (n : Nat). El_NP (AmountOf {np} quantity nu n)",
                 "norm")
    for i, m in enumerate(amounts):
        und = f"und_NP {m}"
        main.add("culor", f"norm CulOrAtel act_star (B , {und}) = "
                          f"Sigma (evt : Evt B act_star ({und})). El_Evt evt -> Prf (El_State (Result evt))", "norm")
        main.add("culor", f"norm CulOrAtel act_star (U , und_NP noun{i % CHAINS}) = Evt U act_star (und_NP noun{i % CHAINS})",
                 "norm")
        ev = f"ev{i}"
        main.add("signature", f"postulate {ev} : Tel act_star ({und})", "postulate", ev)
        main.add("iscul", f"norm Prf (isCul {ev}) = El_Evt {ev} -> Prf (El_State (Result {ev}))", "norm")

    # SigmaEvt stacks on one event, each level with its own predicate.
    event = rng.choice([f"ev{i}" for i in range(AMOUNTS)])
    nf = f"El_Evt {event}"
    restricted = event
    for level in range(1, EVENT_DEPTH + 1):
        # The predicate's domain is written in normal form: spelled as
        # `El_Evt (SigmaEvt ..)` it leaves SigmaEvt's implicit arguments
        # unsolved (see CHANGES.md).
        q = f"q{level}"
        main.add("signature", f"postulate {q} : ({nf}) -> Prop", "postulate", q)
        restricted = f"SigmaEvt ({restricted}) {q}"
        nf = f"Sigma (occ : {nf}). Prf ({q} occ)"
        main.add("sigmaevt", f"norm El_Evt ({restricted}) = {nf}", "norm")

    # Checking a restriction stacked FUEL_FAULT_DEPTH deep exhausts the
    # default fuel, since the steps double with each adjective.
    fuel = Source("fault-fuel.tel")
    prev = "fnoun"
    fuel.add("signature", f"postulate {prev} : NP U", "postulate", prev)
    for level in range(1, FUEL_FAULT_DEPTH + 1):
        fuel.add("signature", f"postulate fadj{level} : IntAdj", "postulate", f"fadj{level}")
    for level in range(1, FUEL_FAULT_DEPTH + 1):
        name = f"f{level}"
        fuel.add("restriction", f"def {name} : NP U = {restriction(prev, f'fadj{level}')}", "def", name,
                 known_fault=level == FUEL_FAULT_DEPTH)
        prev = name

    # A literal sum this long overflows the interpreter stack in elaboration.
    deep = Source("fault-recursion.tel")
    deep.add("sum", f"norm {' + '.join(['1'] * RECURSION_FAULT_LENGTH)} = {RECURSION_FAULT_LENGTH}", "norm",
             normal_form=str(RECURSION_FAULT_LENGTH), known_fault=True)
    return [main, fuel, deep]
