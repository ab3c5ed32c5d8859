"""Spans around the public functions of each kalmanvar module, for the
traced run, and the per-layer metrics computed from them.

`Tracer.install()` replaces each function with a wrapper in every
kalmanvar module that binds it (the defining module, modules that
imported it by name and the package namespace), and each method on its
class under every attribute that aliases it (`__rmul__` is `__mul__`).
A span is [layer index, start, end, parent span index, info]; spans stay
in memory and are written out once the run ends.  `uninstall()` puts the
original objects back.

Self time is a span's duration minus the durations of its child spans;
total time sums the spans of a layer that are not nested in a span of
the same layer, so recursion is not counted twice.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time

BIG_PAIRS = 4096  # polycore takes the numpy product path from here on
FAILED = "failed"

# layer -> public objects whose calls are its spans
FUNCTIONS = {
    "polycore.parse": ["polycore.parse_polynomial"],
    "polymatrix.qmat_mul": ["polymatrix.qmat_mul"],
    "polymatrix.qmat_det": ["polymatrix.qmat_det"],
    "polymatrix.qmat_rank": ["polymatrix.qmat_rank"],
    "polymatrix.qmat_inv": ["polymatrix.qmat_inv"],
    "veronese.sym_power": ["veronese.sym_power"],
    "veronese.sym_power_scalar": ["veronese.sym_power_scalar"],
    "veronese.polarize": ["veronese.polarize"],
    "kalman.kalman_matrix": ["kalman.kalman_matrix"],
    "kalman.kalman_matrix_at": ["kalman.kalman_matrix_at"],
    "kalman.kalman_det": ["kalman.kalman_det"],
    "kalman.audit": ["kalman.factorization_audit"],
    "salmon.conic_equation": ["salmon.kalman_conic_equation"],
    "witness.mu_witness": ["witness.mu_witness"],
    "witness.sample": ["witness.sample_on_hypersurface"],
    "witness.construct": ["witness.matrix_with_eigenvectors", "witness.random_invertible",
                          "witness.rho_simple_eigenvalues", "witness.collision_eigenvalues",
                          "witness.special_locus_matrix"],
    "cli.main": ["cli.main"],
}
METHODS = {
    "polycore.mul": ["polycore.Polynomial.__mul__"],
    "polycore.add": ["polycore.Polynomial.__add__", "polycore.Polynomial.__sub__",
                     "polycore.Polynomial.__rsub__", "polycore.Polynomial.__neg__"],
    "polycore.exact_div": ["polycore.Polynomial.exact_div"],
    "polycore.canonical": ["polycore.Polynomial.canonical"],
    "polycore.to_text": ["polycore.Polynomial.to_text"],
    "polycore.evaluate": ["polycore.Polynomial.evaluate"],
    "polymatrix.det": ["polymatrix.PolyMatrix.det"],
    "polymatrix.matmul": ["polymatrix.PolyMatrix.__mul__"],
}
# every public function defined in these modules is a span of the module's layer
WHOLE_MODULES = ("enumerative", "chow")


def _terms(p) -> int:
    """Term count of a polynomial; a scalar operand counts as one term."""
    return len(p.terms) if hasattr(p, "terms") else 1


def _mul_info(args, out, _):
    return (_terms(args[0]) * _terms(args[1]), _terms(out))


def _bits(x) -> int:
    return max(x.numerator.bit_length(), x.denominator.bit_length()) if x else 0


class Tracer:
    def __init__(self):
        self.layers: list[str] = []
        self.spans: list[list] = []
        self._stack = [-1]
        self._patches: list[tuple[object, str, object]] = []
        self._polarized: set = set()

    # -- wrapping ----------------------------------------------------------------

    def _wrap(self, layer: str, fn, info=None, pre=None):
        lid = len(self.layers)
        self.layers.append(layer)
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            token = pre(args) if pre else None
            span = [lid, 0.0, 0.0, stack[-1], None]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                out = fn(*args, **kwargs)
            except BaseException:
                span[2] = clock()
                stack.pop()
                span[4] = FAILED
                raise
            span[2] = clock()
            stack.pop()
            if info:
                span[4] = info(args, out, token)
            return out

        return traced

    def _info(self, layer: str, kalman):
        """Per-call facts some layers record, computed after the span ends."""
        if layer == "polycore.mul":
            return _mul_info, None
        if layer in ("polycore.add", "polycore.exact_div", "polymatrix.det"):
            return (lambda a, out, _: _terms(out)), None
        if layer == "polycore.to_text":
            return (lambda a, out, _: len(out)), None
        if layer == "polymatrix.qmat_det":
            return (lambda a, out, _: _bits(out)), None
        if layer == "veronese.polarize":
            def repeated(args, out, _):
                f, mu = args[0], args[1]
                key = (f.u.names, tuple(sorted(f.terms.items())), tuple(getattr(mu, "parts", mu)))
                seen = key in self._polarized
                self._polarized.add(key)
                return seen
            return repeated, None
        if layer == "kalman.kalman_det":
            # a call that leaves the cache size unchanged was served from it
            return (lambda a, out, size: len(kalman._DET_CACHE) == size,
                    lambda a: len(kalman._DET_CACHE))
        if layer == "cli.main":
            return (lambda a, code, _: code), None
        return None, None

    def install(self, package) -> None:
        modules = [m for name, m in list(sys.modules.items())
                   if m is not None and (name == package.__name__
                                         or name.startswith(package.__name__ + "."))]
        kalman = sys.modules[package.__name__ + ".kalman"]

        def obj(path: str):
            mod, _, rest = path.partition(".")
            owner = sys.modules[f"{package.__name__}.{mod}"]
            *owners, attr = rest.split(".")
            for o in owners:
                owner = getattr(owner, o)
            return owner, attr

        replace: dict[int, tuple] = {}  # id(original) -> (original, wrapper)
        for layer, paths in FUNCTIONS.items():
            for path in paths:
                owner, attr = obj(path)
                fn = getattr(owner, attr)
                info, pre = self._info(layer, kalman)
                replace[id(fn)] = (fn, self._wrap(layer, fn, info, pre))
        for mod in WHOLE_MODULES:
            module = sys.modules[f"{package.__name__}.{mod}"]
            for name, fn in vars(module).items():
                if (inspect.isfunction(fn) and not name.startswith("_")
                        and fn.__module__ == module.__name__):
                    replace[id(fn)] = (fn, self._wrap(mod, fn))
        for module in modules:
            for name, value in list(vars(module).items()):
                hit = replace.get(id(value))
                if hit and hit[0] is value:
                    self._patch(module, name, hit[1])

        for layer, paths in METHODS.items():
            for path in paths:
                owner, attr = obj(path)
                fn = owner.__dict__[attr]
                info, pre = self._info(layer, kalman)
                wrapped = self._wrap(layer, fn, info, pre)
                for name, value in list(owner.__dict__.items()):
                    if value is fn:
                        self._patch(owner, name, wrapped)

    def _patch(self, owner, name: str, value) -> None:
        self._patches.append((owner, name, getattr(owner, name)))
        setattr(owner, name, value)

    def uninstall(self) -> None:
        for owner, name, original in reversed(self._patches):
            setattr(owner, name, original)
        self._patches.clear()

    # -- output ------------------------------------------------------------------

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for lid, start, end, parent, info in self.spans:
                fh.write(json.dumps({"name": self.layers[lid], "start": start, "end": end,
                                     "parent": parent, "info": info}) + "\n")

    def metrics(self) -> dict[str, float]:
        """The per-layer metrics named in BENCHMARK.json."""
        names = self.layers
        spans = self.spans
        layer_ids: dict[str, set[int]] = {}
        for lid, name in enumerate(names):
            layer_ids.setdefault(name, set()).add(lid)
        # one bit per layer name, so nesting tests are integer ANDs
        bit = {name: 1 << i for i, name in enumerate(layer_ids)}
        span_bit = [bit[n] for n in names]
        child = [0.0] * len(spans)
        above = [0] * len(spans)  # bits of the layers on the path above a span
        for i, (lid, start, end, parent, _) in enumerate(spans):
            if parent >= 0:
                child[parent] += end - start
                above[i] = above[parent] | span_bit[spans[parent][0]]

        acc: dict[str, dict] = {n: {"calls": 0, "self_s": 0.0, "total_s": 0.0, "infos": []}
                                for n in layer_ids}
        det_bit, audit_bit = bit.get("polymatrix.det", 0), bit.get("kalman.audit", 0)
        det_products = audit_evaluations = 0
        for i, (lid, start, end, parent, info) in enumerate(spans):
            name = names[lid]
            a = acc[name]
            a["calls"] += 1
            a["self_s"] += end - start - child[i]
            if not above[i] & span_bit[lid]:
                a["total_s"] += end - start
            a["infos"].append(info)
            if name == "polycore.mul" and above[i] & det_bit:
                det_products += 1
            if name == "kalman.kalman_matrix_at" and above[i] & audit_bit:
                audit_evaluations += 1

        def get(layer, key="calls"):
            return acc[layer][key] if layer in acc else 0

        def infos(layer):
            """What the layer's calls recorded, for calls that returned."""
            return [x for x in acc[layer]["infos"] if x != FAILED] if layer in acc else []

        def failures(layer):
            return sum(x == FAILED for x in acc[layer]["infos"]) if layer in acc else 0

        # (pairs, out terms, self time) of every product that returned
        mul = [(*info, end - start - child[i]) for i, (lid, start, end, _, info) in enumerate(spans)
               if names[lid] == "polycore.mul" and info != FAILED]
        big = [m for m in mul if m[0] >= BIG_PAIRS]
        pairs = sum(m[0] for m in mul)
        out_terms = sum(m[1] for m in mul)
        big_pairs = sum(m[0] for m in big)
        big_self = sum(m[2] for m in big)
        polarize = infos("veronese.polarize")
        return {
            "polycore.mul.calls": get("polycore.mul"),
            "polycore.mul.pairs": pairs,
            "polycore.mul.out_terms": out_terms,
            "polycore.mul.merge_ratio": out_terms / pairs if pairs else 0.0,
            "polycore.mul.self_s": get("polycore.mul", "self_s"),
            "polycore.mul.max_out_terms": max((m[1] for m in mul), default=0),
            "polycore.mul.big.calls": len(big),
            "polycore.mul.big.self_s": big_self,
            "polycore.mul.big.ns_per_pair": big_self * 1e9 / big_pairs if big_pairs else 0.0,
            "polycore.add.calls": get("polycore.add"),
            "polycore.add.terms": sum(infos("polycore.add")),
            "polycore.add.self_s": get("polycore.add", "self_s"),
            "polycore.exact_div.calls": get("polycore.exact_div"),
            "polycore.exact_div.quotient_terms": sum(infos("polycore.exact_div")),
            "polycore.exact_div.self_s": get("polycore.exact_div", "self_s"),
            "polycore.canonical.self_s": get("polycore.canonical", "self_s"),
            "polycore.to_text.self_s": get("polycore.to_text", "self_s"),
            "polycore.to_text.bytes": sum(infos("polycore.to_text")),
            "polycore.parse.calls": get("polycore.parse"),
            "polycore.parse.self_s": get("polycore.parse", "self_s"),
            "polycore.evaluate.calls": get("polycore.evaluate"),
            "polycore.evaluate.self_s": get("polycore.evaluate", "self_s"),
            "polymatrix.det.calls": get("polymatrix.det"),
            "polymatrix.det.self_s": get("polymatrix.det", "self_s"),
            "polymatrix.det.total_s": get("polymatrix.det", "total_s"),
            "polymatrix.det.products": det_products,
            "polymatrix.det.out_terms": sum(infos("polymatrix.det")),
            "polymatrix.matmul.total_s": get("polymatrix.matmul", "total_s"),
            "polymatrix.qmat_mul.calls": get("polymatrix.qmat_mul"),
            "polymatrix.qmat_mul.self_s": get("polymatrix.qmat_mul", "self_s"),
            "polymatrix.qmat_det.calls": get("polymatrix.qmat_det"),
            "polymatrix.qmat_det.self_s": get("polymatrix.qmat_det", "self_s"),
            "polymatrix.qmat_det.max_bits": max(infos("polymatrix.qmat_det"), default=0),
            "polymatrix.qmat_rank.self_s": get("polymatrix.qmat_rank", "self_s"),
            "polymatrix.qmat_inv.self_s": get("polymatrix.qmat_inv", "self_s"),
            "veronese.sym_power.total_s": get("veronese.sym_power", "total_s"),
            "veronese.sym_power_scalar.calls": get("veronese.sym_power_scalar"),
            "veronese.sym_power_scalar.self_s": get("veronese.sym_power_scalar", "self_s"),
            "veronese.polarize.calls": get("veronese.polarize"),
            "veronese.polarize.self_s": get("veronese.polarize", "self_s"),
            "veronese.polarize.repeat_share": sum(polarize) / len(polarize) if polarize else 0.0,
            "kalman.kalman_matrix.total_s": get("kalman.kalman_matrix", "total_s"),
            "kalman.kalman_matrix_at.calls": get("kalman.kalman_matrix_at"),
            "kalman.kalman_matrix_at.self_s": get("kalman.kalman_matrix_at", "self_s"),
            "kalman.kalman_matrix_at.total_s": get("kalman.kalman_matrix_at", "total_s"),
            "kalman.kalman_det.calls": get("kalman.kalman_det"),
            "kalman.kalman_det.cache_hits": sum(infos("kalman.kalman_det")),
            "kalman.audit.total_s": get("kalman.audit", "total_s"),
            "kalman.audit.evaluations": audit_evaluations,
            "salmon.conic_equation.total_s": get("salmon.conic_equation", "total_s"),
            "enumerative.calls": get("enumerative"),
            "enumerative.total_s": get("enumerative", "total_s"),
            "chow.calls": get("chow"),
            "chow.total_s": get("chow", "total_s"),
            "witness.mu_witness.calls": get("witness.mu_witness"),
            "witness.mu_witness.failures": failures("witness.mu_witness"),
            "witness.sample.calls": get("witness.sample"),
            "witness.sample.failures": failures("witness.sample"),
            "witness.construct.self_s": get("witness.construct", "self_s"),
            "cli.main.self_s": get("cli.main", "self_s"),
            "cli.exit_nonzero": sum(code != 0 for code in infos("cli.main")) + failures("cli.main"),
        }
