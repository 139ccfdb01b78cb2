"""The four workloads: seeded inputs, timed operations, correctness checks.

A workload object is driven by run.py in three steps:

* ``setup(qc)`` builds what every round reuses (presentations,
  representations, parsed graphs); it is timed as set-up.
* ``ops(round_seed)`` makes the round's inputs (untimed) and returns the
  round's operations as (label, callable).  Each callable is one call a
  user would make; it stores its output on the workload.
* ``check()`` compares the stored outputs with computations made apart
  from the program, or with properties the method must have, and returns
  a list of problems.  It runs outside the timed region, after each round;
  ``finish()`` runs checks kept until the last round.

Every round attempts the same operations, so a failing operation fails in
every round and ``failed / attempted`` is the same in every run.
"""

from __future__ import annotations

import random
from fractions import Fraction

import oracles

Q = Fraction(1, 2)  # the deformation parameter of every representation here
HEADROOM = 40       # digits kept beyond the cancellation of the checked sums


def _words(p, x):
    """Words of an element spelled by generator names."""
    return [tuple(p.generators[i] for i in w) for w in x.terms()]


def _digits_for(elements):
    """Working precision for evaluating elements without losing HEADROOM.

    Evaluating sum c_w(q) rho(w) cancels terms as large as sum |c_w(q)|
    (3.5e60 for the ninth rp2 power at q = 1/2), so that many digits are
    spent before the first correct one.
    """
    mass = max((sum(abs(sum(c * Q ** e for e, c in coeff.items()))
                    for coeff in x.terms().values()) for x in elements),
               default=0)
    lost = max(0, len(str(int(mass))))
    return 10 * (-(-(HEADROOM + lost) // 10))


def _basis_problems(p, x, label):
    bad = [w for w in _words(p, x) if not oracles.in_basis(p.name, w)]
    return [f"{label}: word {' '.join(bad[0])} outside the {p.name} basis"] if bad else []


class Workload:
    span_ops = False   # trace each operation as a span acceptance.<label>

    def __init__(self, seed):
        pass

    def finish(self):
        """Checks kept until the last round, after peak_rss_mb is read."""
        return []


class Reproduce(Workload):
    """The criteria of acceptance.CRITERIA at the default RunConfig.

    3b is left out: it fails by design (README, "Why 3b fails").  Each
    criterion is one operation; its own verdict is the check.
    """

    name = "reproduce"
    span_ops = True

    def setup(self, qc):
        self.qc = qc
        nc = qc.ncalgebra
        for name in ("sphere", "disc", "rp2", "suq2_mod_b"):
            nc.presentation(name)
        for name in nc.BUILTIN_MORPHISMS:
            nc.builtin_morphism(name)
        self.budgets = {ident: budget
                        for ident, _, budget, _ in qc.acceptance.CRITERIA}

    def ops(self, round_seed):
        cfg = self.qc.acceptance.RunConfig(seed=round_seed)
        self.verdicts = {}
        out = []
        for ident, _, _, fn in self.qc.acceptance.CRITERIA:
            if ident == "3b":
                continue

            def run(fn=fn, ident=ident):
                self.verdicts[ident] = fn(cfg)
            out.append((f"criterion_{ident}", run))
        return out

    def check(self):
        return [f"criterion {ident}: {detail}"
                for ident, (passed, detail) in self.verdicts.items()
                if not passed]


def _generator_sum(p, names, signs):
    g = p.zero()
    for name, sign in zip(names, signs):
        g = g + p.gen(name).scale(sign)
    return g


class RewriteDeep(Workload):
    """Normal forms whose letters must travel far.

    * a*^n a^n in suq2_mod_b, n = 1..6 (fixed inputs);
    * y_d = nf(y_{d-1} g) in rp2 for d = 1..9, g = +-P +-R +-R* +-T +-T*
      with seeded signs;
    * the same in the sphere at s = 1/2 for d = 1..14, g = +-K +-L +-L*,
      the one presentation whose rules have non-integer coefficients.

    The direct expansion (P+R+R*+T+T*)^7 in rp2 is left out: it ends in
    RewriteBudgetError after about 15 s, and as one 15 s sample per run it
    made the workload's time spread by a quarter between runs.
    """

    name = "rewrite-deep"
    RP2_GENS = ("P", "R", "R*", "T", "T*")
    SPHERE_GENS = ("K", "L", "L*")
    A_MAX, RP2_DEG, SPHERE_DEG = 6, 9, 14
    DIM = 64

    def setup(self, qc):
        nc, rp = qc.ncalgebra, qc.representations
        self.su = nc.presentation("suq2_mod_b")
        self.rp2 = nc.presentation("rp2")
        self.sph = nc.presentation("sphere", Q)
        self.rho_plus = rp.build_rep("rho_plus", float(Q), self.DIM)
        self.rho_rp2 = rp.build_rep("rho_rp2", float(Q), self.DIM)
        self.pending = []   # per round: outputs for the high-precision checks

    def ops(self, round_seed):
        rng = random.Random(round_seed)
        su, rp2, sph = self.su, self.rp2, self.sph
        self.g_rp2 = _generator_sum(rp2, self.RP2_GENS,
                                    [rng.choice((-1, 1)) for _ in self.RP2_GENS])
        self.g_sph = _generator_sum(sph, self.SPHERE_GENS,
                                    [rng.choice((-1, 1)) for _ in self.SPHERE_GENS])
        self.a_out, self.rp2_out, self.sph_out = {}, {0: rp2.one()}, {0: sph.one()}
        out = []
        for n in range(1, self.A_MAX + 1):
            x = su.word(*(["a*"] * n + ["a"] * n))

            def run(n=n, x=x):
                self.a_out[n] = su.normal_form(x)
            out.append((f"astar_a_{n}", run))
        for d in range(1, self.RP2_DEG + 1):
            def run(d=d):
                self.rp2_out[d] = rp2.normal_form(self.rp2_out[d - 1] * self.g_rp2)
            out.append((f"rp2_power_{d}", run))
        for d in range(1, self.SPHERE_DEG + 1):
            def run(d=d):
                self.sph_out[d] = sph.normal_form(self.sph_out[d - 1] * self.g_sph)
            out.append((f"sphere_half_power_{d}", run))
        return out

    def check(self):
        problems = self._check_sphere()
        for n, y in self.a_out.items():
            problems += _basis_problems(self.su, y, f"a*^{n} a^{n}")
        for d, y in self.rp2_out.items():
            problems += _basis_problems(self.rp2, y, f"rp2 power {d}")
        self.pending.append((self.a_out, self.g_rp2, self.rp2_out))
        return problems

    def finish(self):
        """The high-precision checks, after peak_rss_mb has been read."""
        import mpmath
        problems = []
        for a_out, g, rp2_out in self.pending:
            for outputs, part, args in ((a_out, self._check_astar_a, (a_out,)),
                                        (rp2_out, self._check_rp2, (g, rp2_out))):
                dps = _digits_for(outputs.values())
                with mpmath.workdps(dps):
                    problems += part(mpmath, dps, *args)
        return problems

    def _check_astar_a(self, mpmath, dps, a_out):
        """nf(a*^n a^n) acts diagonally with the closed-form entries."""
        problems = []
        form = self.rho_plus.shift_form(dps)
        tol = mpmath.mpf(10) ** -30
        for n, y in a_out.items():
            block = self.DIM - 2 * n   # truncation-free rows: k < block
            for d, w in form.element(y).items():
                for k in range(max(0, -d), min(block, block - d)):
                    want = oracles.astar_a_diagonal(n, k, Q) if d == 0 else 0
                    want = mpmath.mpf(want.numerator) / want.denominator
                    if abs(w[k] - want) > tol:
                        problems.append(
                            f"a*^{n} a^{n}: entry ({k + d}, {k}) is "
                            f"{mpmath.nstr(w[k], 8)}, closed form "
                            f"{mpmath.nstr(want, 8)}")
                        break
        return problems

    def _check_rp2(self, mpmath, dps, g, rp2_out):
        """rho(y_d) = rho(y_{d-1}) rho(g) on the compressed block."""
        problems = []
        form = self.rho_rp2.shift_form(dps)
        g_op = form.element(g)
        prev = form.element(rp2_out[0])
        tol = mpmath.mpf(10) ** -30
        for d in range(1, self.RP2_DEG + 1):
            y = rp2_out.get(d)
            if y is None:
                break
            cur = form.element(y)
            want = _compose(prev, g_op, self.DIM)
            block = self.DIM - self.rho_rp2.shift_bound * d
            scale = max([mpmath.mpf(1)] + [abs(v) for w in want.values()
                                           for v in w[:block]])
            for disp in set(cur) | set(want):
                a, b = cur.get(disp), want.get(disp)
                for k in range(max(0, -disp), min(block, block - disp)):
                    diff = (a[k] if a is not None else 0) - (b[k] if b is not None else 0)
                    if abs(diff) > tol * scale:
                        problems.append(f"rp2 power {d}: operator differs by "
                                        f"{mpmath.nstr(abs(diff), 3)} at "
                                        f"({k + disp}, {k})")
                        break
            prev = cur
        return problems

    def _check_sphere(self):
        """nf(y_a y_b) = y_{a+b}; every word in the declared basis."""
        p, y = self.sph, self.sph_out
        problems = []
        for d, x in y.items():
            problems += _basis_problems(p, x, f"sphere power {d}")
        top = self.SPHERE_DEG
        for a, b in ((1, top - 1), (3, 5)):
            if a + b in y and p.normal_form(y[a] * y[b]) != y[a + b]:
                problems.append(f"sphere s=1/2: nf(y_{a} y_{b}) != y_{a + b}")
        return problems


def _moved(w, d, zero):
    """out[k] = w[k + d] where that index exists, zero elsewhere."""
    n = len(w)
    return [w[k + d] if 0 <= k + d < n else zero for k in range(n)]


def _compose(first_op, then_op, dim):
    """Weighted shifts of (first_op after then_op): then_op acts first.

    Both map displacement -> weights, weights[k] being the coefficient
    of e_{k+d} in the image of e_k.
    """
    import mpmath
    zero = mpmath.mpf(0)
    out = {}
    for d1, w1 in then_op.items():
        for d2, w2 in first_op.items():
            moved = _moved(w2, d1, zero)
            acc = out.setdefault(d1 + d2, [zero] * dim)
            for k in range(dim):
                if w1[k] and moved[k]:
                    acc[k] += w1[k] * moved[k]
    return out


class RewriteBatch(Workload):
    """Many shallow seeded elements, normalised, mapped, tested for fixedness.

    Per round and per algebra (sphere, disc, rp2, suq2_mod_b, and the
    sphere at s = 1/2) ELEMENTS fresh random elements of degree <= 6.
    Operations: the normal form of each, the image under each builtin
    morphism with that source, and is_fixed under r1 and r2 on the
    sphere.
    """

    name = "rewrite-batch"
    ELEMENTS = 60
    # the checks that normalise again (x*, products of images) cost more
    # than the operations; they run on every SAMPLE_EVERY-th element
    SAMPLE_EVERY = 8
    MORPHISMS = {"sphere": ("F", "r1", "r2"), "rp2": ("rp2-inclusion",),
                 "disc": ("disc-inclusion",)}

    def setup(self, qc):
        self.qc = qc
        nc = qc.ncalgebra
        self.algebras = [("sphere", nc.presentation("sphere")),
                         ("disc", nc.presentation("disc")),
                         ("rp2", nc.presentation("rp2")),
                         ("suq2_mod_b", nc.presentation("suq2_mod_b")),
                         ("sphere_half", nc.presentation("sphere", Q))]
        self.maps = {m: nc.builtin_morphism(m) for ms in self.MORPHISMS.values()
                     for m in ms}

    def ops(self, round_seed):
        nc = self.qc.ncalgebra
        rng = random.Random(round_seed)
        # (algebra, presentation, x, y, outputs): y is x's partner in the
        # homomorphism check
        self.items = []
        out = []
        for algebra, p in self.algebras:
            for i in range(self.ELEMENTS):
                x = nc.random_element(p, rng, max_degree=6)
                y = nc.random_element(p, rng, max_degree=2)
                res = {}
                self.items.append((algebra, p, x, y, res))

                def nf(p=p, x=x, res=res):
                    res["nf"] = p.normal_form(x)
                out.append((f"{algebra}.nf", nf))
                for m in self.MORPHISMS.get(algebra, ()):
                    def apply(m=m, x=x, res=res):
                        res[m] = self.maps[m].apply(x)
                    out.append((f"{algebra}.{m}", apply))
                if algebra == "sphere":
                    for m in ("r1", "r2"):
                        def fixed(m=m, x=x, res=res):
                            res["fixed_" + m] = nc.is_fixed(self.maps[m], x)
                        out.append((f"{algebra}.fixed_{m}", fixed))
        return out

    def check(self):
        problems = []
        for i, (algebra, p, x, y, res) in enumerate(self.items):
            label = f"{algebra} element {i % self.ELEMENTS}"
            nf = res.get("nf")
            if nf is not None:
                if p.normal_form(nf) != nf:
                    problems.append(f"{label}: nf not idempotent")
                if i % self.SAMPLE_EVERY == 0 and \
                        p.normal_form(p.normal_form(x.star()).star()) != nf:
                    problems.append(f"{label}: nf(nf(x*)*) != nf(x)")
                problems += _basis_problems(p, nf, label)
                words = _words(p, nf)
                for m, even in (("r1", all(w.count("K") % 2 == 0 for w in words)),
                                ("r2", all(len(w) % 2 == 0 for w in words))):
                    if "fixed_" + m in res and res["fixed_" + m] != even:
                        problems.append(f"{label}: {m}-fixed is "
                                        f"{res['fixed_' + m]}, parity says {even}")
            for m in self.MORPHISMS.get(algebra, ()):
                if m not in res:
                    continue
                phi, target = self.maps[m], self.maps[m].target
                problems += _basis_problems(target, res[m], f"{label} under {m}")
                if i % self.SAMPLE_EVERY == 0 and \
                        target.normal_form(res[m] * phi.apply(y)) != phi.apply(x * y):
                    problems.append(f"{label}: {m}(x) {m}(y) != {m}(x y)")
        return problems


def _shuffled(rng, vertices, edges):
    """(vertices, edges, graph text), declared in a seeded order."""
    vertices, edges = list(vertices), list(edges)
    rng.shuffle(vertices)
    rng.shuffle(edges)
    return vertices, edges, "\n".join(
        [f"vertex {v}" for v in vertices]
        + [f"edge {e} {s} {r}" for e, s, r in edges]) + "\n"


def _odd_sphere(n, tag):
    """L_{2n-1}: n vertices, a loop at each, one edge i -> j for i < j."""
    vertices = [f"{tag}{i}" for i in range(n)]
    edges = [(f"{tag}l{i}", vertices[i], vertices[i]) for i in range(n)]
    edges += [(f"{tag}e{i}_{j}", vertices[i], vertices[j])
              for i in range(n) for j in range(i + 1, n)]
    return vertices, edges


def _random_multigraph(rng, n, tag, density):
    """One sink in ten; otherwise each target with probability density,
    joined by one to three parallel edges."""
    vertices = [f"{tag}{i}" for i in range(n)]
    edges = []
    for v in vertices:
        if rng.random() < 0.1:
            continue
        for w in vertices:
            if rng.random() < density:
                for _ in range(rng.randint(1, 3)):
                    edges.append((f"{tag}e{len(edges)}", v, w))
    return vertices, edges


class GraphFamilies(Workload):
    """K-groups and ideal lattices of graph families, at growing size.

    * the odd-sphere graphs L_{2n-1} of Hong and Szymanski, n = 1..16:
      K-groups and hereditary saturated sets (2^n subsets enumerated);
    * seeded random multigraphs of up to 60 vertices: K-groups;
    * seeded random multigraphs of 10 and 12 vertices: K-groups and
      hereditary saturated sets.  Unlike the families above they have
      vertices without loops, where saturation is not automatic;
    * two pairs of 9-element ideal lattices for lattices_isomorphic: a
      chain against another chain listed top to bottom (isomorphic), and a
      chain against the 3 x 3 grid of a two-component graph (not).

    The graph texts are made from the seed and parsed in set-up; every
    round repeats the same operations on them (the graph layer keeps no
    state between calls).
    """

    name = "graph-families"
    ODD_MAX = 16
    RANDOM_SIZES = (24, 32, 40, 44, 48, 52, 56, 60)
    SMALL_SIZES = (10, 12)

    def __init__(self, seed):
        rng = random.Random(seed)
        self.specs = {}   # key -> (vertices, edges, text)
        for n in range(1, self.ODD_MAX + 1):
            v, e = _odd_sphere(n, "v")
            self.specs[("odd", n)] = _shuffled(rng, v, e)
        for i, n in enumerate(self.RANDOM_SIZES):
            v, e = _random_multigraph(rng, n, "u", 0.2)
            self.specs[("random", i)] = _shuffled(rng, v, e)
        for i, n in enumerate(self.SMALL_SIZES):
            v, e = _random_multigraph(rng, n, "s", 0.15)
            self.specs[("small", i)] = _shuffled(rng, v, e)
        for key, parts in (("chain", [8]), ("chain2", [8]), ("grid", [2, 2])):
            v, e = [], []
            for j, n in enumerate(parts):
                pv, pe = _odd_sphere(n, f"{key[0]}{j}_")
                v += pv
                e += pe
            self.specs[("pair", key)] = _shuffled(rng, v, e)
        self.expected = {}

    def setup(self, qc):
        self.qc = qc
        self.graphs = {key: qc.graphs.parse_graph(text)
                       for key, (_, _, text) in self.specs.items()}

    def ops(self, round_seed):
        gr, kt = self.qc.graphs, self.qc.ktheory
        self.out = {}
        out = []

        def call(label, module, name, *args):
            def run():   # looked up at call time, where a tracer sees it
                self.out[label] = getattr(module, name)(*args)
            out.append((label, run))
        for key, g in self.graphs.items():
            if key[0] != "pair":
                call(("k", key), kt, "k_groups", g)
            if key[0] != "random":
                call(("hs", key), gr, "hereditary_saturated_sets", g)

        def lattice_pair(label, a, b, reverse):
            def run():
                fa, fb = self.out[("hs", a)], self.out[("hs", b)]
                self.out[label] = gr.lattices_isomorphic(
                    fa, tuple(reversed(fb)) if reverse else fb)
            out.append((label, run))
        lattice_pair("iso_chain_reversed", ("pair", "chain"), ("pair", "chain2"), True)
        lattice_pair("chain_vs_grid", ("pair", "chain"), ("pair", "grid"), False)
        return out

    def _random_expectation(self, key):
        """Ranks over Q and modulo small primes, and a U M V = S check."""
        vertices, edges, _ = self.specs[key]
        rows = oracles.incidence_rows(vertices, edges)
        rank = oracles.rank_q(rows)
        snf = self.qc.ktheory.smith_normal_form(self.qc.graphs.build_ag(self.graphs[key]))
        problems = []
        m = [list(snf.u.row(i)) for i in range(snf.u.rows)]
        m = oracles.matmul(oracles.matmul(m, rows), [list(snf.v.row(i))
                                                     for i in range(snf.v.rows)])
        if m != [list(snf.s.row(i)) for i in range(snf.s.rows)]:
            problems.append("U M V != S")
        return {"rank": rank, "rows": len(rows), "cols": len(rows[0]) if rows else 0,
                "rank_mod": {p: oracles.rank_mod(rows, p) for p in (2, 3, 5, 7)},
                "problems": problems}

    def check(self):
        problems = []
        for label, value in self.out.items():
            if label[0] == "k":
                problems += self._check_k(label[1], value)
            elif label[0] == "hs":
                problems += self._check_lattice(label[1], value)
        fam = {key: self.out.get(("hs", ("pair", key))) for key in ("chain", "chain2", "grid")}
        for label, a, b in (("iso_chain_reversed", "chain", "chain2"),
                            ("chain_vs_grid", "chain", "grid")):
            if label not in self.out:
                continue
            sets_a = [f.names for f in fam[a]]
            sets_b = [f.names for f in fam[b]]
            # chains of one size are isomorphic, and a chain is never
            # isomorphic to a poset that is not one
            chains = (oracles.is_chain(sets_a), oracles.is_chain(sets_b))
            if len(sets_a) != len(sets_b) or chains[0] != chains[1]:
                want = False
            elif all(chains):
                want = True
            else:
                problems.append(f"{label}: no invariant here decides the pair")
                continue
            if self.out[label] != want:
                problems.append(f"{label}: lattices_isomorphic gave {self.out[label]}")
        return problems

    def _check_k(self, key, groups):
        k0, k1 = groups
        if key[0] == "odd":
            if (k0.free_rank, k0.torsion, k1.free_rank, k1.torsion) != (1, (), 1, ()):
                return [f"odd sphere n={key[1]}: K0={k0}, K1={k1}, want Z and Z"]
            return []
        if ("k", key) not in self.expected:
            self.expected[("k", key)] = self._random_expectation(key)
        want = self.expected[("k", key)]
        label = f"{key[0]} graph of {len(self.specs[key][0])} vertices"
        problems = [f"{label}: {p}" for p in want["problems"]]
        if k0.free_rank != want["rows"] - want["rank"]:
            problems.append(f"{label}: K0 free rank {k0.free_rank}, "
                            f"rows - rank_Q = {want['rows'] - want['rank']}")
        if k1.free_rank != want["cols"] - want["rank"] or k1.torsion:
            problems.append(f"{label}: K1 = {k1}, want Z^{want['cols'] - want['rank']}")
        for p, rank_p in want["rank_mod"].items():
            divisible = sum(1 for d in k0.torsion if d % p == 0)
            if divisible != want["rank"] - rank_p:
                problems.append(f"{label}: {divisible} invariant factors divisible "
                                f"by {p}, rank_Q - rank_{p} = {want['rank'] - rank_p}")
        return problems

    def _check_lattice(self, key, family):
        vertices, edges, _ = self.specs[key]
        sets = [f.names for f in family]
        problems = oracles.lattice_problems(vertices, edges, sets)
        if key[0] == "odd":
            n = key[1]
            if len(sets) != n + 1 or not oracles.is_chain(sets):
                problems.append(f"{len(sets)} sets, want a chain of {n + 1}")
        if key[0] == "small":
            if ("hs", key) not in self.expected:
                self.expected[("hs", key)] = oracles.all_hereditary_saturated(
                    vertices, edges)
            want = self.expected[("hs", key)]
            if {frozenset(f) for f in sets} != want or len(sets) != len(want):
                problems.append(f"{len(sets)} sets, enumeration by definition "
                                f"finds {len(want)}")
        return [f"ideal lattice of {key}: {p}" for p in problems]


WORKLOADS = {"reproduce": Reproduce, "rewrite-deep": RewriteDeep,
             "rewrite-batch": RewriteBatch, "graph-families": GraphFamilies}


def make(name, seed):
    return WORKLOADS[name](seed)
