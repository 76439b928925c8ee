"""Seeded problem files and job lists for the three benchmark workloads.

Every run draws its jobs from one fixed pool of problem files.  The pool is
built by seeded transformations of ``demos/problems/*.sdp`` (rational
parameter values, rescaled ``H``, ``omega`` and generators, extra uncoupled
coordinates, consistent relabelling of coordinates) and by seeded random
sprays whose coefficients each variant draws, all from ``POOL_SEED``.  No
two files of a pool have the same text.  Because the pool is fixed, every
job in it has a stored expected exit code and report digest
(``expected.json``).  The run's ``--seed`` picks a stratified subset of the
pool and its order, so two seeds run different files of the same mix.
"""

from __future__ import annotations

import hashlib
import random
import re
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

POOL_SEED = 20081906
VARIANTS = 16           # pool files per stratum
RUN_SECONDS = 15        # run length the per-stratum counts below are sized for
DEMOS = ("ex1", "ex2", "ex3", "ex4", "free")

_COORD = re.compile(r"(?<![A-Za-z_'])([xy])([0-9]+)")


@dataclass(frozen=True)
class Job:
    command: str
    file: str
    exit: int = 0
    checks: tuple = ()      # (json path, expected value) pairs known a priori
    known_failure: str = ""  # non-empty: a recorded defect of the program

    @property
    def key(self) -> str:
        return f"{self.command} {self.file}"


@dataclass
class Stratum:
    """`count` jobs per run, drawn from VARIANTS pool files of one recipe."""

    name: str
    commands: tuple
    count: int
    make: object                      # (rng) -> problem file text
    checks: dict = field(default_factory=dict)  # command -> checks
    distinct_spray: bool = True       # False: the recipe has one spray (ex4: G = 0)


# ---------------------------------------------------------------------------
# transformations of the demo files


def _split_top(text: str, sep: str) -> list[str]:
    out, depth, cur = [], 0, []
    for ch in text:
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
        if ch == sep and depth == 0:
            out.append("".join(cur).strip())
            cur = []
        else:
            cur.append(ch)
    out.append("".join(cur).strip())
    return out


def _rand_rational(rng: random.Random, lo: int = 1, hi: int = 9) -> Fraction:
    return Fraction(rng.randint(lo, hi), rng.randint(1, 5))


def _rat(r: Fraction) -> str:
    return str(r.numerator) if r.denominator == 1 else f"{r.numerator}/{r.denominator}"


def transform(text: str, rng: random.Random, extra: int = 0, pad_degree: int = 1,
              param=_rand_rational, integrate: str | None = None,
              ansatz: str | None = None) -> str:
    """Re-parameterise, rescale, pad with `extra` coordinates, relabel.

    Rational `param` values are redrawn by `param(rng)` and the constant of
    each `fn(...)` profile moves, keeping it positive.  `H` and every
    `omega` coefficient are multiplied by one random rational, and each
    generator of the distribution other than the flow field (the one whose
    base part is the velocity) by its own: spans, first integrals and
    certificate verdicts stay as they are.  Each extra coordinate gets its
    own uncoupled spray coefficient `c*y^pad_degree`, with c drawn at
    random; the flow field gets the matching new components, any other
    generator and every annihilator gets zeros.  Then coordinates are
    permuted.  `integrate`/`ansatz`, when given, replace those settings.
    """
    lines = [ln.split("#", 1)[0].strip() for ln in text.splitlines()]
    lines = [ln for ln in lines if ln]
    n = next(int(ln.split("=")[1]) for ln in lines if ln.startswith("dim"))
    m = n + extra
    power = f"^{pad_degree}" if pad_degree > 1 else ""
    pad_G = [f"{_rat(_rand_rational(rng, 1, 3))}*y{i}{power}" for i in range(n + 1, m + 1)]
    lines += [f"spray G{i} = {g}" for i, g in enumerate(pad_G, n + 1)]
    perm = list(range(1, m + 1))
    rng.shuffle(perm)
    new = {i + 1: perm[i] for i in range(m)}
    scale = _rat(_rand_rational(rng))

    def ren(e: str) -> str:
        return _COORD.sub(lambda mt: f"{mt.group(1)}{new[int(mt.group(2))]}", e)

    def place(comps: list[str], pad: list[str]) -> list[str]:
        comps = comps + pad
        out = ["0"] * m
        for i, c in enumerate(comps):
            out[new[i + 1] - 1] = ren(c)
        return out

    velocity = [f"y{i}" for i in range(1, n + 1)]
    out = []
    for ln in lines:
        head, _, body = ln.partition(" ")
        if head == "dim":
            out.append(f"dim = {m}")
        elif head == "param":
            name, rhs = (s.strip() for s in body.split("=", 1))
            if rhs.startswith("fn("):
                c = _rand_rational(rng, 1, 6) / 2
                rhs = re.sub(r"\+ *[0-9/]+\)$", f"+ {_rat(c)})", rhs)
            else:
                rhs = _rat(param(rng))
            out.append(f"param {name} = {rhs}")
        elif head == "spray":
            label, rhs = (s.strip() for s in body.split("=", 1))
            out.append(f"spray G{new[int(label[1:])]} = {ren(rhs)}")
        elif head in ("dist", "ann"):
            label, rhs = (s.strip() for s in body.split("=", 1))
            base, fiber = (_split_top(p, ",") for p in _split_top(rhs[1:-1], ";"))
            if head == "dist" and base == velocity:
                base = place(base, [f"y{i}" for i in range(n + 1, m + 1)])
                fiber = place(fiber, [f"-2*{g}" for g in pad_G])
            else:
                c = _rat(_rand_rational(rng)) if head == "dist" else "1"
                base, fiber = ([e if e == "0" or c == "1" else f"{c}*({e})"
                                for e in place(comps, ["0"] * extra)]
                               for comps in (base, fiber))
            out.append(f"{head} {label} = ({', '.join(base)}; {', '.join(fiber)})")
        elif head == "omega":
            label, rhs = (s.strip() for s in body.split("=", 1))
            label = re.sub(r"(dx|dy|del)([0-9]+)",
                           lambda mt: f"{mt.group(1)}{new[int(mt.group(2))]}", label)
            out.append(f"omega {label} = {scale}*({ren(rhs)})")
        elif head == "exclude":
            out.append(f"exclude {ren(body)}")
        elif head == "H":
            out.append(f"H = {scale}*({ren(ln.split('=', 1)[1].strip())})")
        elif head == "integrate" and integrate is not None:
            out.append(f"integrate {integrate}")
        elif head == "ansatz" and ansatz is not None:
            out.append(f"ansatz {ansatz}")
        else:
            out.append(ln)
    if integrate is not None and not any(s.startswith("integrate") for s in out):
        out.append(f"integrate {integrate}")
    if ansatz is not None and not any(s.startswith("ansatz") for s in out):
        out.append(f"ansatz {ansatz}")
    return "\n".join(out) + "\n"


# ---------------------------------------------------------------------------
# random sprays


def _coef(rng: random.Random) -> str:
    c = Fraction(rng.choice((1, 1, 2, 3)), rng.choice((1, 2, 3)))
    return ("-" if rng.random() < 0.5 else "") + _rat(c)


def random_spray(shape: random.Random, coef: random.Random, kind: str, n: int) -> str:
    """A random system of dimension n with generators for dirac-check.

    Every coefficient is a parameter A (set to 1 here; `transform` redraws
    it) times a monomial.  `shape` draws the monomials, `coef` their
    rational factors, so one shape gives systems of about the same cost.
    poly:     coefficients quadratic in the velocities (a spray),
    rational: velocity ratios with an excluded locus (a semi-spray),
    opaque:   an opaque profile f = fn(x1^2 + c) and its derivative.
    """
    ys = [f"y{a}" for a in range(1, n + 1)]
    xs = [f"x{i}" for i in range(1, n + 1)]
    lines = [f"dim = {n}", "param A = 1"]
    loc = shape.choice(ys)
    if kind == "opaque":
        lines.append("param f = fn(x1^2 + 1)")
    G = []
    for _ in range(n):
        b, c = shape.choice(ys), shape.choice(ys)
        if kind == "poly":
            pre = shape.choice(("", f"{shape.choice(xs)}*",
                                f"{shape.choice(xs)}*{shape.choice(xs)}*"))
            G.append(f"{_coef(coef)}*A*{pre}{b}*{c}")
        elif kind == "rational":
            G.append(f"{_coef(coef)}*A*{b}*{c}/{loc}")
        else:
            x = shape.choice(xs)
            G.append(shape.choice((f"{_coef(coef)}*A*f({x})*{b}",
                                   f"{_coef(coef)}*A*({b}^2)*f'({x})/f({x})")))
    for a, g in enumerate(G, 1):
        lines.append(f"spray G{a} = {g}")
    if kind == "rational":
        lines.append(f"exclude {loc}")
    flow_fiber = ", ".join(f"-2*({g})" for g in G)
    lines.append(f"dist X1 = ({', '.join(ys)}; {flow_fiber})")
    for j, a in enumerate(shape.sample(range(n), n - 1), 2):
        lines.append(f"dist X{j} = ({', '.join(['0'] * n)}; "
                     f"{', '.join('1' if k == a else '0' for k in range(n))})")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# workloads


def _small(hi: Fraction):
    """Parameter values in (0, hi]: small enough that no trajectory of the
    stratum's length reaches a singular locus or blows up."""
    return lambda rng: hi * Fraction(rng.randint(1, 9), rng.randint(9, 14))


def _demo(demos: dict, name: str, **kw):
    return lambda rng: transform(demos[name], rng, pad_degree=2, **kw)


def _integ(method: str, t: float, dt: float, samples: int):
    return lambda rng: f"t={t} dt={dt} method={method} seed={rng.randint(1, 999)} samples={samples}"


def _ansatz(degree: int):
    return lambda rng: f"degree={degree} points=0 box=2 seed={rng.randint(1, 999)}"


def _demo_int(demos: dict, name: str, extra: int, method: str, t: float,
              dt: float, samples: int, ansatz=None, param=_rand_rational):
    integ = _integ(method, t, dt, samples)
    return lambda rng: transform(demos[name], rng, extra=extra, param=param,
                                 integrate=integ(rng),
                                 ansatz=ansatz(rng) if ansatz else None)


def _spray(kind: str, n: int, integ=None, param=_rand_rational):
    """One random shape per recipe; each variant draws its own coefficients
    and parameters and relabels, so variants of a stratum cost about the
    same but share no expression."""
    shape = f"{POOL_SEED}/{kind}{n}"

    def make(rng):
        text = random_spray(random.Random(shape), rng, kind, n)
        return transform(text, rng, param=param, integrate=integ(rng) if integ else None)
    return make


EX1_ANALYZE = (("is_spray", "proven_zero"), ("flat", "proven_zero"))
SPRAY_ANALYZE = (("semispray", "proven_zero"), ("is_spray", "proven_zero"))
YES = (("certificate.overall", "yes"),)
NOT_INTEGRABLE = (("certificate.residual_zero", True),
                  ("certificate.d_integrable", "proven_nonzero"),
                  ("certificate.overall", "no"))
EX4_SEARCH = (("candidates.*.H", ["y1^2/2", "y1*y2", "y2^2/2"]),)


def strata(workload: str, demos: dict) -> list[Stratum]:
    """The recipe of each workload: which files, which commands, how many.

    Trajectories of `flow` and `certify` never abort: a demo with a singular
    locus (ex3) or a random system gets parameters small enough for its
    `t` (`_small`), and record.py refuses a pool where one aborts."""
    AD = ("analyze", "dirac-check")
    if workload == "symbolic":
        out = [
            Stratum("ex1", AD, 6, _demo(demos, "ex1", extra=1),
                    {"analyze": EX1_ANALYZE}),
            Stratum("ex2", AD, 6, _demo(demos, "ex2", extra=1)),
            Stratum("ex3", AD, 6, _demo(demos, "ex3")),
            Stratum("ex3+1", AD, 4, _demo(demos, "ex3", extra=1)),
            Stratum("ex4", AD, 6, _demo(demos, "ex4", extra=1)),
        ]
        # more of the light dim-2 systems: job_ms_p50 then falls inside a
        # dense cluster of job times, not on the gap above it
        for n in (2, 3, 4):
            out += [
                Stratum(f"poly{n}", AD, 12 if n == 2 else 9, _spray("poly", n),
                        {"analyze": SPRAY_ANALYZE}),
                Stratum(f"rational{n}", AD, 10 if n == 2 else 8, _spray("rational", n)),
                Stratum(f"opaque{n}", AD, 8, _spray("opaque", n)),
            ]
        return out
    if workload == "flow":
        I = ("integrate",)
        thrust = _small(Fraction(1, 8))     # ex3: 2*A*t stays below 0.5
        tiny = _small(Fraction(1, 400))     # random systems
        return [
            Stratum("free", I, 12, _demo_int(demos, "free", 1, "rk4", 5.0, 0.01, 3),
                    {"integrate": (("max_drift", 0.0),)}),
            Stratum("ex1", I, 12, _demo_int(demos, "ex1", 1, "rk4", 0.2, 0.0005, 3)),
            Stratum("ex2", I, 12, _demo_int(demos, "ex2", 0, "rk4", 0.6, 0.001, 2)),
            Stratum("ex3", I, 12, _demo_int(demos, "ex3", 0, "rk4", 1.2, 0.001, 2,
                                            param=thrust)),
            Stratum("ex3+1", I, 12, _demo_int(demos, "ex3", 1, "rk4", 0.8, 0.001, 2,
                                              param=thrust)),
            Stratum("ex4", I, 12, _demo_int(demos, "ex4", 0, "rk4", 1.2, 0.001, 2),
                    distinct_spray=False),
            Stratum("ex2-rk45", I, 9, _demo_int(demos, "ex2", 0, "rk45", 4.0, 0.001, 3)),
            Stratum("ex3-rk45", I, 9, _demo_int(demos, "ex3", 1, "rk45", 8.0, 0.001, 3,
                                                param=_small(Fraction(1, 64)))),
            Stratum("poly2", I, 12, _spray("poly", 2, _integ("rk4", 0.6, 0.001, 2), tiny)),
            Stratum("poly3", I, 12, _spray("poly", 3, _integ("rk4", 0.6, 0.001, 2), tiny)),
            Stratum("rational3", I, 12,
                    _spray("rational", 3, _integ("rk4", 0.6, 0.001, 2), tiny)),
            Stratum("opaque2", I, 12, _spray("opaque", 2, _integ("rk4", 0.6, 0.001, 2), tiny)),
            Stratum("opaque2-rk45", I, 9,
                    _spray("opaque", 2, _integ("rk45", 1.0, 0.001, 2), tiny)),
        ]
    if workload == "certify":
        VS = ("verify", "search")
        ans = _ansatz(2)
        thrust = _small(Fraction(2))        # ex3 at t=0.1
        return [
            Stratum("ex1", VS, 12, _demo_int(demos, "ex1", 1, "rk4", 0.05, 0.0005, 2, ans),
                    {"verify": YES}),
            Stratum("ex2", VS, 14, _demo_int(demos, "ex2", 0, "rk4", 0.1, 0.001, 2, ans),
                    {"verify": NOT_INTEGRABLE}),
            Stratum("ex3", VS, 3, _demo_int(demos, "ex3", 0, "rk4", 0.1, 0.001, 2, ans,
                                            param=thrust),
                    {"verify": NOT_INTEGRABLE}),
            Stratum("ex3+1", VS, 9, _demo_int(demos, "ex3", 1, "rk4", 0.1, 0.001, 2,
                                              _ansatz(1), param=thrust),
                    {"verify": NOT_INTEGRABLE}),
            Stratum("ex4", VS, 14, _demo_int(demos, "ex4", 0, "rk4", 0.1, 0.001, 2, ans),
                    {"verify": YES}, distinct_spray=False),
            Stratum("ex4-rk45", ("verify",), 9,
                    _demo_int(demos, "ex4", 0, "rk45", 1.0, 0.001, 2), {"verify": YES},
                    distinct_spray=False),
            # no pad: verify on a file without `dist` needs a spray, and a
            # quadratic pad would blow up within t
            Stratum("free", VS, 12, _demo_int(demos, "free", 0, "rk4", 0.5, 0.01, 2, ans),
                    distinct_spray=False),
        ]
    raise ValueError(f"unknown workload {workload!r}")


def fixed_jobs(workload: str) -> list[Job]:
    """Jobs every run of a workload holds: the demo files and error paths.

    The demos ex2, ex3 and ex4 are not integrated or verified as they are,
    only their variants with a shorter `t`: at t=10 trajectories of ex3
    reach the excluded locus y3 = 0 and abort, and ex2 (t=2) and ex4 (t=10)
    make single jobs of 0.4 to 1.2 s, too long for the calibrations between
    jobs to follow the machine's drift."""
    def demo(cmd, name, checks=()):
        return Job(cmd, f"demo_{name}.sdp", 0, checks)
    if workload == "symbolic":
        return ([demo("analyze", "ex1", EX1_ANALYZE)]
                + [demo("analyze", d) for d in DEMOS[1:]]
                + [demo("dirac-check", d) for d in DEMOS[:4]])
    if workload == "flow":
        return [demo("integrate", "free", (("max_drift", 0.0),)), demo("integrate", "ex1")]
    if workload == "certify":
        return [
            demo("verify", "ex1", YES), demo("verify", "free"),
            demo("search", "ex1"), demo("search", "ex3"),
            demo("search", "ex4", EX4_SEARCH),
            Job("verify", "err_parse.sdp", 1),
            Job("dirac-check", "demo_free.sdp", 2),
            Job("verify", "err_huge_root.sdp", 0,
                known_failure="verify on H = (10^400)^1/2 exits 4: _iroot "
                              "overflows on a float root of a huge int"),
        ]
    raise ValueError(f"unknown workload {workload!r}")


ERROR_FILES = {
    "err_parse.sdp": "dim = 2\nspray G1 = y1^(3/2)\n",
    "err_huge_root.sdp": "dim = 1\nH = (10^400)^1/2\n"
                         "integrate t=0.1 dt=0.01 method=rk4 seed=1 samples=1\n",
}


def read_demos(demo_dir: Path) -> dict[str, str]:
    return {d: (demo_dir / f"{d}.sdp").read_text(encoding="utf-8") for d in DEMOS}


def _spray_part(text: str) -> str:
    """The lines analyze and the integrator read: dim, param, spray, exclude."""
    return "\n".join(ln for ln in text.splitlines()
                     if ln.split(" ", 1)[0] in ("dim", "param", "spray", "exclude"))


def pool(workload: str, demos: dict[str, str]) -> dict[str, str]:
    """Every file the workload can use, name -> text, from POOL_SEED.

    No two files have the same text, and no two variants of a stratum the
    same system (unless the recipe has one): a cache that lives for the
    whole process must not turn two jobs into one.  A variant whose system
    repeats one of its stratum is drawn again."""
    files = {f"demo_{d}.sdp": t for d, t in demos.items()}
    files.update(ERROR_FILES)
    for st in strata(workload, demos):
        systems = set()
        for v in range(VARIANTS):
            for attempt in range(100):
                text = st.make(random.Random(f"{POOL_SEED}/{workload}/{st.name}/{v}/{attempt}"))
                if not st.distinct_spray or _spray_part(text) not in systems:
                    break
            else:
                raise ValueError(f"{workload}/{st.name}: no new system in 100 draws")
            systems.add(_spray_part(text))
            files[f"{st.name}_{v}.sdp"] = text
    if len(set(files.values())) != len(files):
        raise ValueError(f"{workload}: two problem files have the same text")
    return files


def pool_digest(files: dict[str, str]) -> str:
    h = hashlib.sha256()
    for name in sorted(files):
        h.update(name.encode() + b"\0" + files[name].encode() + b"\0")
    return h.hexdigest()


def select_jobs(workload: str, demos: dict[str, str], seed: int | None,
                seconds: float = RUN_SECONDS) -> list[Job]:
    """The run's jobs: the fixed ones plus, per stratum and command, `count`
    (scaled by seconds/RUN_SECONDS) pool variants picked by the seed, in an
    order shuffled by the seed.  No (command, file) pair repeats.  With
    seed None: every job of the pool, in pool order."""
    rng = random.Random(f"select/{workload}/{seed}")
    jobs = list(fixed_jobs(workload))
    for st in strata(workload, demos):
        k = max(1, min(VARIANTS, round(st.count * seconds / RUN_SECONDS)))
        for cmd in st.commands:
            picked = range(VARIANTS) if seed is None else rng.sample(range(VARIANTS), k)
            jobs += [Job(cmd, f"{st.name}_{v}.sdp", 0, st.checks.get(cmd, ())) for v in picked]
    if seed is not None:
        rng.shuffle(jobs)
    return jobs
