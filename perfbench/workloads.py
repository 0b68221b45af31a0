"""The four workloads: seeded corpora, the timed calls, and output checks.

A workload is a list of batches.  Every batch of a workload has the same
composition (the same kinds of items in the same order), so the time of one
batch is a fixed amount of work and its median over a run is comparable
across seeds.  Corpora are drawn in set-up from ``interpol_lab.sampling``
with the parameter ranges of the acceptance suites in ``verify.py``.

An item's ``run(ctx)`` makes only package calls; it is what the benchmark
times.  ``ctx`` is a dict that lives for one execution of one batch, so
objects a user would reuse (one couple asked for many norms, one operator
swept under four families) are shared inside a batch and rebuilt when a
batch runs again; no cache is filled before an item is timed.

A workload's ``check(batch, outputs)`` turns the outputs of one executed
batch into one ``Outcome`` per item.  Checks consume the sound ends of the
brackets against the independent bounds in ``oracles.py``.
"""

from __future__ import annotations

import cmath
import contextlib
import csv
import io
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, List, Optional

import numpy as np
import yaml

from interpol_lab import annulus, cli, functors, lattice, operators, sampling, stability
from interpol_lab.spaces import BanachCouple, WeightedSpace

import oracles as orc

INF = math.inf
REAL_PS = (1.0, 2.0, INF)
FAMILIES = (("calderon", INF), ("real", 1.0), ("real", 2.0), ("real", INF))
SWEEP_GRID = np.arange(0.01, 1.0, 0.01)
# Kinds of failure.  Only UNSOUND makes a run incorrect: an independent bound
# contradicts a sound bracket end.  The others are counted in `failed`.
ERROR, VERDICT, CHECK, CONTRACT, UNSOUND = "error", "verdict", "check", "contract", "unsound"


@dataclass
class Item:
    kind: str
    run: Callable[[dict], Any]
    data: dict


@dataclass
class Outcome:
    status: str = "ok"            # "ok" or one of the failure kinds above
    relw: Optional[float] = None  # worst relative width of the item's brackets
    note: str = ""

    def fail(self, status: str, note: str) -> None:
        # keep the most severe kind: an unsound answer outranks the rest
        if self.status != UNSOUND:
            self.status, self.note = status, note


def _label(kind: str, q: float) -> str:
    return "calderon" if kind == "calderon" else f"real-q{q:g}"


# --------------------------------------------------------------- real-scale


class RealScale:
    """real_norm over (x, couple) groups, one per p in {1, 2, inf}.

    An item asks one pair for its norms at 5 thetas for one q in {1, 2, inf}
    (rtol 1e-5, 1e-4 for q = inf).  Dims 1..6 and the theta draws follow
    the delta suite; the weight span is the K-functional suite's 1.5, since
    at the delta suite's 3 the cost of one p = 2 group varies 0.5..2.2 s
    and a 20 s run holds too few of them for a steady total.  A batch holds
    one group of each dim 1..6, so every batch has the same composition.
    """

    name = "real-scale"
    qs = (1.0, 2.0, INF)
    batches_per_s = 0.28

    def batch(self, rng, b: int) -> List[Item]:
        items = []
        for g, (dim, p) in enumerate((dim, p) for dim in range(1, 7) for p in REAL_PS):
            C = sampling.random_couple(rng, dim=dim, ps=(p,), weight_span=1.5)
            x = sampling.random_vector(rng, C.dim)
            theta0 = float(rng.uniform(0.08, 0.45))
            theta1 = float(rng.uniform(theta0 + 0.15, 0.95))
            raw = (C.space0.p, np.array(C.space0.weights), C.space1.p, np.array(C.space1.weights))
            for q in self.qs:
                data = dict(x=x, raw=raw, thetas=np.linspace(theta0, theta1, 5), q=q,
                            rtol=1e-4 if q == INF else 1e-5)
                items.append(Item(f"real_norm[p={p:g},q={q:g}]", self._runner(g, data), data))
        return items

    @staticmethod
    def _runner(g, d):
        def run(ctx):
            key = ("couple", g)
            if key not in ctx:
                p0, w0, p1, w1 = d["raw"]
                ctx[key] = BanachCouple(WeightedSpace(p0, w0), WeightedSpace(p1, w1))
            return [functors.real_norm(d["x"], ctx[key], float(th), d["q"], rtol=d["rtol"]) for th in d["thetas"]]

        return run

    def check(self, batch, outputs):
        outcomes = []
        for item, out in zip(batch, outputs):
            oc = Outcome()
            outcomes.append(oc)
            if isinstance(out, Exception):
                oc.fail(ERROR, f"{type(out).__name__}: {out}")
                continue
            d = item.data
            p0, w0, p1, w1 = d["raw"]
            oc.relw = max(orc.relw(br.lower, br.upper) for br in out)
            for theta, br in zip(d["thetas"], out):
                args = (d["x"], w0, p0, w1, p1, theta, d["q"])
                if not orc.below(br.lower, orc.real_norm_upper(*args)):
                    oc.fail(UNSOUND, "lower end above the closed-form upper bound")
                if not orc.below(orc.real_norm_lower(*args), br.upper):
                    oc.fail(UNSOUND, "upper end below the dual lower bound")
            if oc.relw > d["rtol"]:
                oc.fail(CHECK, f"width {oc.relw:.3e} above rtol {d['rtol']:.1e}")
            # factor-2 scale embedding on sound ends, interior thetas:
            # upper(theta) <= 2 max(lower(theta0), lower(theta1))
            bound = 2.0 * max(out[0].lower, out[-1].lower)
            if any(br.upper > bound * (1.0 + 1e-6) for br in out[1:-1]):
                oc.fail(CHECK, "factor-2 embedding fails on sound ends")
        return outcomes


# -------------------------------------------------------- annulus-transport


class AnnulusTransport:
    """Unit random Laurent representations transported from s to omega.

    Follows the distance suite (p = 2 couples of dim 2, weight span 1.5,
    s = e^0.5, omega = s + sep e^0.7i).  A batch holds nine samples on the
    window +-4, one for each pair of stage exponents in {1, 2, inf}^2, and
    three of those samples again on the window +-8, chosen by the batch
    index; the check compares each +-8 answer with its +-4 sibling.
    """

    name = "annulus-transport"
    seps = (0.01, 0.05, 0.1)
    stages = [(q0, q1) for q0 in REAL_PS for q1 in REAL_PS]
    batches_per_s = 0.85

    def batch(self, rng, b: int) -> List[Item]:
        s = math.exp(0.5)
        items = []
        for i, qq in enumerate(self.stages):
            sep = self.seps[i % 3]
            B = sampling.random_couple(rng, dim=2, ps=(2.0,), weight_span=1.5)
            P = annulus.PseudolatticeCouple(*qq)
            f = annulus.random_laurent(rng, 2, -4, 4)
            f = f.scaled(1.0 / annulus.j_norm(f, P, B))
            data = dict(f=f, P=P, B=B, s=s, omega=s + sep * cmath.exp(0.7j), sep=sep, window=(-4, 4))
            items.append(Item("transport[window=4]", self._runner(data), data))
        for j in range(3):
            sibling = (3 * b + j) % 9
            data = dict(items[sibling].data, window=(-8, 8), sibling=sibling)
            items.append(Item("transport[window=8]", self._runner(data), data))
        return items

    @staticmethod
    def _runner(d):
        def run(ctx):
            f, P, B, s, omega = d["f"], d["P"], d["B"], d["s"], d["omega"]
            x = annulus.evaluate(f, s)
            bracket, f_x = annulus.bspace_norm(x, s, P, B, support=d["window"])
            cert = annulus.transport_representation(f, f_x, s, omega, P, B)
            lower_o = annulus.bspace_lower_bound(annulus.evaluate(f, omega), omega, P, B)
            return x, bracket, f_x, cert, lower_o

        return run

    def check(self, batch, outputs):
        outcomes = []
        for item, out in zip(batch, outputs):
            oc = Outcome()
            outcomes.append(oc)
            if isinstance(out, Exception):
                oc.fail(ERROR, f"{type(out).__name__}: {out}")
                continue
            d = item.data
            x, br, f_x, cert, lower_o = out
            B, P, s, omega = d["B"], d["P"], d["s"], d["omega"]
            sp = (P.q0, P.q1, B.space0.weights, B.space0.p, B.space1.weights, B.space1.p)

            def J(e):
                return orc.j_norm(e.lo, e.coeffs, *sp)

            delta = max(1.0 / (abs(s) - 1.0), 1.0 / (math.e - abs(s)))
            r = cert.representation
            j_fx, j_r = J(f_x), J(r)
            upper_s, upper_o = min(1.0, j_fx), min(1.0, j_r)
            oc.relw = max(orc.relw(br.lower, br.upper), orc.relw(min(lower_o, upper_o), upper_o))
            scale = float(np.sum(np.linalg.norm(f_x.coeffs, axis=1) * abs(s) ** f_x.indices))
            if np.linalg.norm(orc.laurent_eval(f_x.lo, f_x.coeffs, s) - x) > 1e-9 * max(scale, 1.0):
                oc.fail(UNSOUND, "returned representation does not represent x")
            if abs(br.upper - j_fx) > 1e-9 * j_fx:
                oc.fail(UNSOUND, "upper end differs from the norm of its representation")
            if not orc.below(br.lower, 1.0):
                oc.fail(UNSOUND, "lower end above the norm of a unit representation")
            fo = orc.laurent_eval(d["f"].lo, d["f"].coeffs, omega)
            if np.linalg.norm(orc.laurent_eval(r.lo, r.coeffs, omega) - fo) > 1e-9 * max(np.linalg.norm(fo), 1.0):
                oc.fail(UNSOUND, "transported representation does not represent f(omega)")
            if not orc.below(lower_o, upper_o):
                oc.fail(UNSOUND, "lower end at omega above a representation norm")
            if j_r > cert.bound + 1e-8:
                oc.fail(CHECK, "transport inequality fails")
            diff = d["f"] - f_x
            if J(cert.divided) > delta * J(diff) * (1.0 + 1e-12) + 1e-8:
                oc.fail(CHECK, "division bound fails")
            empirical = max(lower_o - upper_s, br.lower - upper_o, 0.0)
            if empirical > delta * d["sep"] * (1.0 + 1e-9) + 1e-8:
                oc.fail(CHECK, "distance estimate exceeds delta * separation")
            narrow = outputs[d["sibling"]] if "sibling" in d else None
            if narrow is not None and not isinstance(narrow, Exception):
                # documented: the upper end is nonincreasing as the window widens
                narrow = narrow[1]
                if br.upper > narrow.upper * (1.0 + 1e-9):
                    oc.fail(CONTRACT, f"upper end grows with the window: {narrow.upper:.4g} -> {br.upper:.4g}")
        return outcomes


# -------------------------------------------------------------- theta-sweep


MIXED_PAIRS = [(pa, pb) for pa in REAL_PS for pb in REAL_PS if pa != pb]


def _mixed_invertible(rng, d, pa, pb, weight_span=4.0):
    """Like sampling.random_invertible_instance, with exponent pa at endpoint
    0 and pb at endpoint 1, so the Calderon spaces are not l^1, l^2, l^inf."""
    dom = BanachCouple(*(sampling.random_space(rng, d, p, weight_span) for p in (pa, pb)))
    cod = BanachCouple(*(sampling.random_space(rng, d, p, weight_span) for p in (pa, pb)))
    while True:
        M = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
        sv = np.linalg.svd(M, compute_uv=False)
        if sv[-1] > 1e-6 * sv[0]:
            return M, dom, cod


def _sweep_outcome(records, dom, cod, M, kind, q, rng, oc):
    """Check sweep records (theta, op [lo, up], inv [lo, up]) on sound ends."""
    Minv = np.linalg.inv(M)
    ends = []
    for j in (0, 1):
        a, b = dom.space(j), cod.space(j)
        ends.append((orc.operator_norm_exact(M, a.weights, b.weights, a.p),
                     orc.operator_norm_exact(Minv, b.weights, a.weights, a.p)))
    worst = 0.0
    for k, (theta, op, inv) in enumerate(records):
        worst = max(worst, orc.relw(*op), orc.relw(*inv))
        if not orc.below(1.0, op[1] * inv[1]):
            oc.fail(UNSOUND, f"||T|| ||T^-1|| upper ends below 1 at theta={theta:.2f}")
        if kind == "calderon":
            if k % 7:
                continue  # every seventh grid point: the oracle is the costly part
            wa, pt = orc.calderon_space(dom.space0.weights, dom.space0.p, dom.space1.weights, dom.space1.p, theta)
            wb, _ = orc.calderon_space(cod.space0.weights, cod.space0.p, cod.space1.weights, cod.space1.p, theta)
            for (lo, up), (olo, oup) in (
                (op, orc.operator_norm_bounds(M, wa, wb, pt, rng)),
                (inv, orc.operator_norm_bounds(Minv, wb, wa, pt, rng)),
            ):
                if not (orc.below(olo, up) and orc.below(lo, oup)):
                    oc.fail(UNSOUND, f"Calderon bracket misses the oracle at theta={theta:.2f}")
        else:
            # the real method is exact of exponent theta: N0^(1-theta) N1^theta
            for (lo, up), n0, n1 in ((op, ends[0][0], ends[1][0]), (inv, ends[0][1], ends[1][1])):
                if not orc.below(n0 ** (1.0 - theta) * n1**theta, up):
                    oc.fail(UNSOUND, f"real-method upper end below N0^(1-t) N1^t at theta={theta:.2f}")
    oc.relw = worst


class ThetaSweep:
    """stability.sweep over the four families at theta step 0.01.

    Per batch: five operators from the radius suite's generator, one of each
    dim 2..6, two operators whose endpoints have different exponents (dims
    3 and 5), each swept under all four families, plus one order_iso_sweep
    and one composite_propagation_check as in the lattice suite.  The
    exponents follow the batch index.
    """

    name = "theta-sweep"
    batches_per_s = 0.8

    def batch(self, rng, b: int) -> List[Item]:
        items = []
        ops = []
        for d in range(2, 7):
            p = REAL_PS[(d + b) % 3]
            T = sampling.random_invertible_instance(rng, dims=(d, d), ps=(p,), weight_span=4.0)
            ops.append(("same", T.matrix, T.domain, T.codomain))
        for j, d in enumerate((3, 5)):
            pa, pb = MIXED_PAIRS[(2 * b + j) % 6]
            ops.append(("mixed",) + _mixed_invertible(rng, d, pa, pb))
        for o, (tag, M, dom, cod) in enumerate(ops):
            for kind, q in FAMILIES:
                data = dict(M=M, dom=dom, cod=cod, family=(kind, q), op=o)
                items.append(Item(f"sweep[{tag},{_label(kind, q)}]", self._sweep(data), data))
        T = sampling.random_positive_instance(rng)
        data = dict(M=T.matrix, dom=T.domain, cod=T.codomain, theta0=float(rng.uniform(0.15, 0.85)))
        items.append(Item("order_iso_sweep", self._order_iso(data), data))
        T = sampling.random_monomial_instance(rng)
        data = dict(M=T.matrix, dom=T.domain, cod=T.codomain, theta_star=float(rng.uniform(0.2, 0.8)))
        items.append(Item("composite_propagation_check", self._composite(data), data))
        return items

    @staticmethod
    def _operator(ctx, d, key):
        if key not in ctx:
            ctx[key] = operators.CoupleOperator(d["M"], d["dom"], d["cod"])
        return ctx[key]

    def _sweep(self, d):
        def run(ctx):
            T = self._operator(ctx, d, ("op", d["op"]))
            return stability.sweep(T, functors.FunctorFamily(*d["family"]), SWEEP_GRID, slack=1e-6)

        return run

    def _order_iso(self, d):
        def run(ctx):
            T = operators.CoupleOperator(d["M"], d["dom"], d["cod"])
            return lattice.order_iso_sweep(T, d["theta0"], np.arange(0.1, 1.0, 0.1), seed=0)

        return run

    def _composite(self, d):
        def run(ctx):
            T = operators.CoupleOperator(d["M"], d["dom"], d["cod"])
            return lattice.composite_propagation_check(T, d["theta_star"], np.arange(0.1, 1.0, 0.2), seed=0)

        return run

    def check(self, batch, outputs):
        rng = np.random.default_rng(0)
        outcomes = []
        for item, out in zip(batch, outputs):
            oc = Outcome()
            outcomes.append(oc)
            if isinstance(out, Exception):
                oc.fail(ERROR, f"{type(out).__name__}: {out}")
                continue
            if not out.passed:
                oc.fail(VERDICT, f"{item.kind} verdict FAIL")
            if item.kind.startswith("sweep"):
                d = item.data
                records = [
                    (r.theta, (r.op_norm.lower, r.op_norm.upper), (r.inv_norm.lower, r.inv_norm.upper))
                    for r in out.records
                ]
                _sweep_outcome(records, d["dom"], d["cod"], d["M"], *d["family"], rng, oc)
        return outcomes


# ------------------------------------------------------------------ cli-mix


def _num(z) -> Any:
    z = complex(z)
    return float(z.real) if z.imag == 0.0 else [float(z.real), float(z.imag)]


def _space_node(S) -> dict:
    return {"p": "inf" if S.p == INF else float(S.p), "weights": [float(w) for w in S.weights]}


def _couple_node(C) -> dict:
    return {"space0": _space_node(C.space0), "space1": _space_node(C.space1)}


def _operator_node(T) -> dict:
    return {
        "domain": _couple_node(T.domain),
        "codomain": _couple_node(T.codomain),
        "operator": {"matrix": [[_num(v) for v in row] for row in T.matrix]},
    }


def _functor_node(kind, q) -> dict:
    node = {"method": kind}
    if kind == "real":
        node["q"] = "inf" if q == INF else float(q)
    return node


class CliMix:
    """Generated YAML configs run through interpol_lab.cli.main.

    Per batch: kfun for every exponent pair over {1, 1.5, 2, 3, 4, inf}
    (dims 1..3, weight span 1.5 and t in [0.1, 10] as in the K-functional
    suite), then one each of norm, sweep, spectrum, solve-analytic and
    lattice-sweep, drawn as in the delta, radius, spectrum, analytic and
    lattice suites.
    """

    name = "cli-mix"
    kfun_ps = (1.0, 1.5, 2.0, 3.0, 4.0, INF)
    batches_per_s = 0.23

    def __init__(self, work_dir: Path):
        self.work_dir = work_dir
        self.count = 0

    def _write(self, cmd, cfg, kind, data) -> Item:
        self.count += 1
        path = self.work_dir / "configs" / f"{self.count:05d}-{cmd}.yaml"
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as fh:
            yaml.safe_dump(cfg, fh, default_flow_style=None)
        data = dict(data, cmd=cmd, config=str(path))
        return Item(kind, self._runner(data), data)

    def _runner(self, d):
        runs = [0]

        def run(ctx):
            runs[0] += 1
            out = self.work_dir / "out" / f"{Path(d['config']).stem}-{runs[0]}"
            sink = io.StringIO()  # the CLI prints its verdict lines
            with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
                code = cli.main([d["cmd"], "--config", d["config"], "--out", str(out), "--seed", "7"])
            return code, out

        return run

    def batch(self, rng, b: int) -> List[Item]:
        items = []
        t_grid = {"t_min": 0.1, "t_max": 10.0, "points_per_decade": 2}
        for i, (p0, p1) in enumerate((p0, p1) for p0 in self.kfun_ps for p1 in self.kfun_ps):
            d = 1 + (i + b) % 3  # a third of the pairs at each dim 1..3
            C = BanachCouple(sampling.random_space(rng, d, p0, 1.5), sampling.random_space(rng, d, p1, 1.5))
            x = sampling.random_vector(rng, d)
            cfg = {"problem": {"domain": _couple_node(C)}, "vectors": [[_num(v) for v in x]], "t_grid": t_grid}
            items.append(self._write("kfun", cfg, f"kfun[{p0:g},{p1:g}]", dict(C=C, x=x)))

        C = sampling.random_couple(rng, dims=(1, 6), weight_span=3.0)
        kind, q = FAMILIES[b % 4]
        xs = [sampling.random_vector(rng, C.dim) for _ in range(2)]
        theta = float(rng.uniform(0.1, 0.9))
        cfg = {"problem": {"domain": _couple_node(C)}, "functor": dict(_functor_node(kind, q), theta=theta),
               "vectors": [[_num(v) for v in x] for x in xs]}
        items.append(self._write("norm", cfg, "norm", dict(C=C, xs=xs, family=(kind, q), theta=theta)))

        T = sampling.random_invertible_instance(rng, dims=(2, 6), weight_span=4.0)
        kind, q = FAMILIES[(b + 1) % 4]
        cfg = {"problem": _operator_node(T),
               "functor": dict(_functor_node(kind, q), theta_grid={"start": 0.01, "stop": 0.99, "step": 0.01})}
        items.append(self._write("sweep", cfg, "sweep", dict(T=T, family=(kind, q))))

        T = sampling.random_endomorphism_instance(rng, dims=(2, 5), ps=(2.0,), weight_span=2.0)
        eig = np.linalg.eigvals(T.matrix)
        lams = [eig[0] + 0.5 + 0.5j, 3.0 + 1.0j, -2.0]
        kind, q = (("real", 2.0), ("calderon", INF))[b % 2]
        cfg = {"problem": _operator_node(T), "functor": _functor_node(kind, q),
               "resolvent": {"lambdas": [_num(l) for l in lams], "thetas": [0.1, 0.5, 0.9]},
               "output": {"emit_plot_data": True}}
        items.append(self._write("spectrum", cfg, "spectrum", dict(T=T, lams=lams)))

        T = sampling.random_invertible_instance(rng, dims=(2, 4), weight_span=2.0)
        s = math.exp(0.5)
        y = sampling.random_vector(rng, T.codomain.dim)
        cfg = {"problem": _operator_node(T),
               "annulus": {"s": s, "targets": [_num(s * cmath.exp(0.02))],
                           "rhs": {"lo": 1, "coeffs": [[_num(v) for v in y]]}}}
        items.append(self._write("solve-analytic", cfg, "solve-analytic", dict(T=T)))

        T = sampling.random_positive_instance(rng)
        cfg = {"problem": _operator_node(T),
               "functor": {"method": "calderon", "theta": float(rng.uniform(0.15, 0.85)),
                           "theta_grid": [round(0.1 * k, 1) for k in range(1, 10)]}}
        items.append(self._write("lattice-sweep", cfg, "lattice-sweep", dict(T=T)))
        return items

    def check(self, batch, outputs):
        rng = np.random.default_rng(0)
        outcomes = []
        for item, out in zip(batch, outputs):
            oc = Outcome()
            outcomes.append(oc)
            if isinstance(out, Exception):
                oc.fail(ERROR, f"{type(out).__name__}: {out}")
                continue
            code, out_dir = out
            if code != 0:
                oc.fail(VERDICT if code == 1 else ERROR, f"{item.kind}: exit code {code}")
            report_path = out_dir / "report.json"
            if not report_path.is_file():
                if code == 0:
                    oc.fail(UNSOUND, "exit 0 without a report")
                continue
            with open(report_path) as fh:
                report = json.load(fh)
            if report["exit_code"] != code:
                oc.fail(UNSOUND, "report exit code differs from the process exit code")
            getattr(self, "_check_" + item.data["cmd"].replace("-", "_"))(item.data, report, out_dir, oc, rng)
        return outcomes

    @staticmethod
    def _check_kfun(d, report, out_dir, oc, rng):
        C, x = d["C"], d["x"]
        sp = (C.space0.weights, C.space0.p, C.space1.weights, C.space1.p)
        widths = []
        for row in report["data"]["kfun"]:
            t, lo, up = row["t"], row["K_lower"], row["K_upper"]
            widths.append(orc.relw(lo, up))
            if not (orc.below(lo, up) and orc.below(lo, orc.k_upper(t, x, *sp))
                    and orc.below(orc.k_lower(t, x, *sp), up)):
                oc.fail(UNSOUND, f"K bracket at t={t:.3g} contradicts the duality bounds")
        oc.relw = max(widths)

    @staticmethod
    def _check_norm(d, report, out_dir, oc, rng):
        C, (kind, q), theta = d["C"], d["family"], d["theta"]
        sp = (C.space0.weights, C.space0.p, C.space1.weights, C.space1.p)
        widths = []
        for row, x in zip(report["data"]["norms"], d["xs"]):
            lo, up = row["lower"], row["upper"]
            widths.append(orc.relw(lo, up))
            if kind == "calderon":
                w, p = orc.calderon_space(*sp, theta)
                olo = oup = orc.pnorm(x, w, p)
            else:
                olo = orc.real_norm_lower(x, *sp, theta, q)
                oup = orc.real_norm_upper(x, *sp, theta, q)
            if not (orc.below(olo, up) and orc.below(lo, oup)):
                oc.fail(UNSOUND, "norm bracket contradicts the oracle bounds")
        oc.relw = max(widths)

    @staticmethod
    def _check_sweep(d, report, out_dir, oc, rng):
        T = d["T"]
        records = [(r["theta"], tuple(r["op_norm"]), tuple(r["inv_norm"])) for r in report["data"]["sweep"]["records"]]
        if len(records) != 99:
            oc.fail(UNSOUND, f"sweep has {len(records)} grid points, expected 99")
        _sweep_outcome(records, T.domain, T.codomain, T.matrix, *d["family"], rng, oc)

    @staticmethod
    def _check_spectrum(d, report, out_dir, oc, rng):
        eig = np.sort_complex([complex(*z) for z in report["data"]["eigenvalues"]])
        ref = np.sort_complex(np.linalg.eigvals(d["T"].matrix))
        scale = max(1.0, float(np.max(np.abs(ref))))
        if eig.shape != ref.shape or np.max(np.abs(eig - ref)) > 1e-9 * scale:
            oc.fail(UNSOUND, "eigenvalues differ from numpy.linalg.eigvals")
        widths = []
        with open(out_dir / "resolvent.csv") as fh:
            for row in csv.DictReader(fh):
                if row["infinite"] == "1":
                    continue
                lam = complex(float(row["lambda_re"]), float(row["lambda_im"]))
                lo, up = float(row["lower"]), float(row["upper"])
                widths.append(orc.relw(lo, up))
                dist = float(np.min(np.abs(ref - lam)))
                if not (orc.below(lo, up) and orc.below(1.0 / dist, up)):
                    oc.fail(UNSOUND, "resolvent upper end below 1/dist(lambda, spectrum)")
        oc.relw = max(widths) if widths else 0.0

    @staticmethod
    def _check_solve_analytic(d, report, out_dir, oc, rng):
        for t in report["data"]["analytic"]["targets"]:
            if t["converged"] and not t["final_residual"] <= 1e-6:
                oc.fail(CHECK, f"residual {t['final_residual']:.3e} at a converged target")

    @staticmethod
    def _check_lattice_sweep(d, report, out_dir, oc, rng):
        if not all(v["passed"] for v in report["verdicts"]):
            oc.fail(VERDICT, "lattice-sweep verdict FAIL")


WORKLOADS = {w.name: w for w in (RealScale, AnnulusTransport, ThetaSweep, CliMix)}


def make(name: str, work_dir: Path):
    cls = WORKLOADS[name]
    return cls(work_dir) if cls is CliMix else cls()
