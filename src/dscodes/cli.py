"""Command line frontend.

Subcommands: field, code, verify, scan, expsum, walsh, ssreport, each with
the flags of its `_COMMANDS` row (listed by `<command> -h`), written as
`--flag value` or `--flag=value` and never abbreviated; the last of a
repeated flag wins.  All output is deterministic: the same invocation
always produces the same bytes, so runs can be diffed or committed as
fixtures.  Exit codes: 0 success or help, 1 a claim's hypotheses were not
met, 2 a claim was falsified (prediction and construction disagree), 3
usage error; ssreport exits 0 or 3 only.  JSON output is exactly the bytes
of `json.dumps(payload, indent=2, sort_keys=True) + "\\n"`: the C encoder
writes it compact and `_indented` inserts the indentation.
"""

from __future__ import annotations

import collections
import csv
import io
import json
import sys
import types

import numpy as np

from . import secretshare, sets, spectra, theorems
from .code import DefiningSet, build_code_weights, pless_moments_check, summarize
from .field import POWER_BLOCK, Field, get_field

EXIT_OK = 0
EXIT_HYPOTHESIS = 1
EXIT_MISMATCH = 2
EXIT_USAGE = 3

DEFAULT_MAX_Q = 1 << 22

_VERDICT_EXIT = {
    theorems.VERDICT_MATCH: EXIT_OK,
    theorems.VERDICT_HYPOTHESIS: EXIT_HYPOTHESIS,
    theorems.VERDICT_MISMATCH: EXIT_MISMATCH,
}


class UsageError(Exception):
    pass


# ----------------------------------------------------------------------
# small parsers


def _parse_int_list(text: str) -> range | tuple[int, ...]:
    """Range syntax: 'A..B' inclusive (a range, never built out), or
    'A,B,C', or a single 'A'."""
    text = text.strip()
    try:
        if ".." in text:
            lo_s, hi_s = text.split("..", 1)
            lo, hi = int(lo_s), int(hi_s)
            if hi < lo:
                raise UsageError(f"empty range {text!r}")
            return range(lo, hi + 1)
        return tuple(int(part) for part in text.split(","))
    except ValueError:
        raise UsageError(f"not an integer list or range: {text!r}") from None


def _parse_single_int(text: str, flag: str) -> int:
    vals = _parse_int_list(text)
    if len(vals) != 1:
        raise UsageError(f"{flag} takes a single value here, got {text!r}")
    return vals[0]


def _parse_modulus(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(c) for c in text.split(","))
    except ValueError as exc:
        raise UsageError(f"bad --field-poly {text!r}: {exc}") from None


def _parse_qf_terms(text: str):
    terms = []
    for chunk in text.split(";"):
        parts = chunk.split(",")
        if len(parts) != 3:
            raise UsageError(f"bad quadratic form term {chunk!r}, want i,j,a")
        terms.append(tuple(int(x) for x in parts))
    return tuple(terms)


def _read_truth_table_bits(path: str, q: int) -> str:
    """One line, binary or hex.  The last bit is f(0); the bit before it
    is f at the generator's 0th power, and so on up the powers, so the
    most significant bit belongs to the largest discrete log."""
    try:
        with open(path, "r", encoding="ascii") as fh:
            text = fh.read().strip()
    except OSError as exc:
        raise UsageError(f"cannot read truth table: {exc}") from None
    if not text:
        raise UsageError("truth table file is empty")
    if set(text) <= {"0", "1"} and len(text) == q:
        return text
    try:
        value = int(text, 16)
    except ValueError:
        raise UsageError(
            f"truth table must be {q} binary digits or a hex string"
        ) from None
    if value >= 1 << q:
        raise UsageError(f"truth table value needs more than {q} bits")
    return format(value, f"0{q}b")


def _truth_table_for_field(f: Field, path: str) -> np.ndarray:
    text = _read_truth_table_bits(path, f.q)
    bits = np.frombuffer(text.encode("ascii"), dtype=np.uint8) == ord("1")
    out = np.zeros(f.q, dtype=bool)
    out[0] = bits[-1]
    # bit q-2-t belongs to alpha^t
    out[f.EXP[: f.q - 1]] = bits[f.q - 2 :: -1]
    return out


def build_set(f: Field, selector: str) -> DefiningSet:
    """Selector grammar: simplex | trcubic | hkm:<h> | product:<digits> |
    complement:<selector> | qf:<i,j,a[;...]> | bool:<file>."""
    try:
        if selector == "simplex":
            return sets.simplex_coset_reps(f)
        if selector == "trcubic":
            return sets.tr_cubic_set(f)
        if selector.startswith("hkm:"):
            return sets.hkm_set(int(selector[4:]), f)
        if selector.startswith("product:"):
            digits = _parse_int_list(selector[len("product:"):])
            ds, _ = sets.product_set(digits, sets.simplex_coset_reps(f))
            return ds
        if selector.startswith("complement:"):
            return sets.complement(build_set(f, selector[len("complement:"):]))
        if selector.startswith("qf:"):
            return sets.quadratic_form_image(f, _parse_qf_terms(selector[3:]))
        if selector.startswith("bool:"):
            return sets.boolean_support(f, _truth_table_for_field(f, selector[5:]))
    except (ValueError, AssertionError) as exc:
        raise UsageError(f"bad set selector {selector!r}: {exc}") from None
    raise UsageError(f"unknown set selector {selector!r}")


def _checked_values(args, name: str, p: int, single=True, degree=lambda v: v):
    """The values of --m (or --h), the largest field size p^degree checked
    against --max-q before any table is built.  A degree at or past the
    cap's bit length is refused before its power is computed.  A list or
    range (single=False) that starts below 1 is refused before any
    instance is built; a single value is left to the claim's own checks."""
    text = getattr(args, name)
    if not text:
        raise UsageError(f"--{name} is required")
    values = (_parse_single_int(text, f"--{name}"),) if single else _parse_int_list(text)
    ranged = isinstance(values, range)  # read its ends, never walk it
    bottom = values[0] if ranged else min(values)
    if not single and bottom < 1:
        raise UsageError(f"{name} = {bottom} is below 1")
    top = values[-1] if ranged else max(values)
    d = degree(top)
    if d >= args.max_q.bit_length() or p**d > args.max_q:
        raise UsageError(f"{name} = {top}: q = {p}^{d} exceeds --max-q = {args.max_q}")
    return values


def _field_for(args, p: int) -> Field:
    (m,) = _checked_values(args, "m", p)
    modulus = _parse_modulus(args.field_poly) if args.field_poly else None
    try:
        return get_field(p, m, modulus)
    except (ValueError, ArithmeticError) as exc:
        raise UsageError(str(exc)) from None


# ----------------------------------------------------------------------
# commands


def cmd_field(args):
    f = _field_for(args, args.p)
    return {"command": "field", "field": f.describe()}, EXIT_OK


def cmd_code(args):
    f = _field_for(args, args.p)
    ds = build_set(f, args.set)
    try:
        wd = build_code_weights(ds)
    except ValueError as exc:  # no weight route fits the size
        raise UsageError(str(exc)) from None
    summary = summarize(ds, wd)
    pless = pless_moments_check(wd)
    payload = {
        "command": "code",
        "field": f.describe(),
        "set": {"selector": args.set, "label": ds.label, "n": ds.n},
        "code": {
            "n": summary.n,
            "k": summary.k,
            "d_min": summary.d_min,
            "enumerator": summary.enumerator,
            "weights": [{"w": w, "count": a} for w, a in wd.pairs],
            "dual": {"n_minus_k": summary.dual_n_minus_k, "d": summary.dual_d},
            "griesmer": {"bound": summary.griesmer_bound, "tight": summary.griesmer_tight},
            "pless_ok": pless.ok,
            "notes": list(summary.notes),
        },
    }
    return payload, EXIT_OK if pless.ok else EXIT_MISMATCH


class _SetOption:
    """The --set reader handed to theorems.ClaimSpec.parse_set: one method
    per selector form a claim takes."""

    def __init__(self, token: str, text: str | None):
        self.token, self.text = token, text

    def _body(self, prefix: str, usage: str) -> str:
        if not self.text or not self.text.startswith(prefix):
            raise UsageError(f"{self.token} takes --set {usage}")
        return self.text[len(prefix):]

    def digits(self, f: Field) -> tuple[int, ...]:
        """E from product:<digits>, else all of GF(p)*."""
        if not self.text:
            return tuple(range(1, f.p))
        return _parse_int_list(self._body("product:", "product:<digits> or no --set"))

    def table(self, f: Field) -> np.ndarray:
        """Truth table as a bool mask, from bool:<file>, else that of Tr(x^3)."""
        if not self.text:
            return spectra.tr_cubic_table(f)
        return _truth_table_for_field(f, self._body("bool:", "bool:<file> or no --set"))

    def terms(self):
        return _parse_qf_terms(self._body("qf:", "qf:<i,j,a[;...]>"))

    def defining_set(self, f: Field) -> DefiningSet:
        if not self.text:
            raise UsageError(f"{self.token} needs --set")
        return build_set(f, self.text)


def _claim(args) -> tuple[theorems.ClaimSpec, int, int]:
    """The --claim row, the p its field rule gives and the seed.  A flag the
    row does not read is refused before any field is built."""
    spec = theorems.CLAIMS[args.claim]
    unread = ("m", "field_poly") if spec.param == "h" else ("h",)
    unread += () if spec.parse_set else ("set",)
    unread += () if spec.seeded == args.command else ("seed",)
    for name in unread:
        if getattr(args, name, None) is not None:  # scan has no --set or --field-poly
            raise UsageError(f"{args.command} {spec.token} does not take --{name.replace('_', '-')}")
    try:
        p = spec.field_p(args.p)
    except ValueError as exc:
        raise UsageError(str(exc)) from None
    return spec, p, theorems.DEFAULT_SEED if args.seed is None else args.seed


def cmd_verify(args):
    spec, p, seed = _claim(args)
    try:
        if spec.param == "h":
            field, (arg,) = None, _checked_values(args, spec.param, p, degree=spec.degree)
        else:
            field = _field_for(args, p)
            option = _SetOption(spec.token, args.set)
            arg = spec.parse_set(field, option) if spec.parse_set else None
        report = theorems.verify(spec.token, field, arg, seed=seed)
    except ValueError as exc:
        raise UsageError(str(exc)) from None
    payload = {"command": "verify", "report": report.to_json_dict()}
    return payload, _VERDICT_EXIT[report.verdict]


def cmd_scan(args):
    spec, p, seed = _claim(args)
    values = _checked_values(args, spec.param, p, single=False, degree=spec.degree)
    try:
        reports = theorems.scan(spec.token, values, p=p, seed=seed)
    except ValueError as exc:
        raise UsageError(str(exc)) from None
    payload = {
        "command": "scan",
        "claim": spec.token,
        "reports": [r.to_json_dict() for r in reports],
        "summary": theorems.scan_summary(reports),
    }
    # a mismatch (2) outranks an unmet hypothesis (1), which outranks a match
    return payload, max((_VERDICT_EXIT[r.verdict] for r in reports), default=EXIT_OK)


def cmd_expsum(args):
    f = _field_for(args, 2)
    a, b = args.a, args.b
    if not 0 < a < f.q or not 0 <= b < f.q:
        raise UsageError("need 0 < a < q and 0 <= b < q")
    direct = spectra.weil_sum(f, a, b)
    closed = None
    if f.m % 2 == 0:
        closed = spectra.coulter_s_a0(f, a) if b == 0 else spectra.coulter_s_ab(f, a, b)
    elif b == 0:
        closed = 0  # cubing permutes the field for odd m, so the sum telescopes
    elif a == 1 and b == 1:
        closed = spectra.carlitz_prediction(f.m)
    agree = None if closed is None else (closed == direct)
    payload = {
        "command": "expsum",
        "p": 2, "m": f.m, "a": a, "b": b,
        "direct": direct, "closed_form": closed, "agree": agree,
    }
    return payload, EXIT_OK if agree in (None, True) else EXIT_MISMATCH


def cmd_walsh(args):
    f = _field_for(args, 2)
    table = _SetOption("walsh", args.set).table(f)
    canned = not args.set
    spectrum = spectra.walsh_transform(f, table)
    # a handful of distinct values, counted a block at a time: np.unique
    # over all q values would sort a q-cell copy
    hist = collections.Counter()
    for lo in range(0, f.q, POWER_BLOCK):
        block, counts = np.unique(spectrum.values[lo : lo + POWER_BLOCK], return_counts=True)
        hist.update(dict(zip(block.tolist(), counts.tolist())))
    values = sorted(hist)
    semibent = None
    if f.m % 2 == 1:
        level = 1 << ((f.m + 1) // 2)
        semibent = set(values) <= {0, level, -level}
    payload = {
        "command": "walsh",
        "p": 2, "m": f.m, "n_f": spectrum.n_f,
        "value_histogram": [[v, hist[v]] for v in values],
        "max_abs": max(abs(values[0]), abs(values[-1])),
        "semibent": semibent,
    }
    code = EXIT_OK
    if canned and semibent is False:
        code = EXIT_MISMATCH
    return payload, code


def cmd_ssreport(args):
    f = _field_for(args, args.p)
    ds = build_set(f, args.set)
    try:
        report, ratio = secretshare.minimal_codewords(ds)
        if args.set == "trcubic":
            ratio = secretshare.with_cubic_trace_case(ratio, f.m)
    except ValueError as exc:  # no weight route fits, or no closed form below m = 4
        raise UsageError(str(exc)) from None
    skipped = report.minimal_count is None
    payload = {
        "command": "ssreport",
        "p": f.p, "m": f.m,
        "set": {"selector": args.set, "label": ds.label, "n": ds.n},
        "code": {"n": ds.n, "k": report.k},
        "ratio": ratio.to_json_dict(),
        "minimal": None if skipped else report.to_json_dict(),
        "minimal_skipped": "enumeration bound exceeded" if skipped else None,
    }
    return payload, EXIT_OK


# ----------------------------------------------------------------------
# rendering


def _csv_rows(payload):
    rows = []

    def dist_rows(claim, dist, verdict):
        if dist is None:
            rows.append([claim, p, m, "", "", "", "", verdict])
            return
        for item in dist["weights"]:
            rows.append([claim, p, m, dist["n"], dist["k"], item["w"], item["count"], verdict])

    if payload["command"] == "code":
        p, m = payload["field"]["p"], payload["field"]["m"]
        dist_rows(payload["set"]["selector"], payload["code"], "")
    elif payload["command"] == "verify":
        rep = payload["report"]
        if rep.get("claim") == "thm1prop":
            p, m = rep["p"], rep["m"]
            rows.append(["thm1prop", p, m, "", "", "", "", rep["verdict"]])
        else:
            p, m = rep["params"].get("p", ""), rep["params"].get("m", "")
            dist_rows(rep["claim"], rep.get("computed"), rep["verdict"])
    elif payload["command"] == "scan":
        for rep in payload["reports"]:
            p, m = rep["params"].get("p", ""), rep["params"].get("m", "")
            dist_rows(rep["claim"], rep.get("computed"), rep["verdict"])
    return rows


def _breaks(s: str) -> tuple[np.ndarray, np.ndarray]:
    """Where `indent=2` puts a line break into s, the C encoder's output
    with `separators=(",", ": ")`, and the length of each break ("\\n"
    and the next line's indent): one after each opener and comma and one
    before each closer, none inside `[]` or `{}`, and none inside strings.
    With `ensure_ascii` s is ASCII, and once `\\\\` and `\\"` are blanked
    every quote left delimits a string, so the structural characters are
    those at even quote parity.  Only text with a backslash holds either,
    so text without one skips both passes."""
    if "\\" in s:
        s = s.replace("\\\\", "..").replace('\\"', "..")
    b = np.frombuffer(s.encode("ascii"), np.uint8)
    folded = b & 0xDF  # "[" and "{" differ in bit 5 only, as do "]" and "}"
    mask = b == 34
    mask |= b == 44
    mask |= folded == 91
    mask |= folded == 93
    idx = np.flatnonzero(mask)
    ch = b[idx]
    quote = ch == 34
    outside = ~(quote | np.logical_xor.accumulate(quote))
    idx, ch = idx[outside], ch[outside] & 0xDF
    opener, closer = ch == 91, ch == 93
    depth = np.cumsum(opener, dtype=np.int32) - np.cumsum(closer, dtype=np.int32)
    live = np.ones(idx.size, dtype=bool)
    empty = opener[:-1] & closer[1:] & (idx[1:] == idx[:-1] + 1)
    live[:-1] &= ~empty
    live[1:] &= ~empty
    return (idx + 1 - closer)[live], 2 * depth[live] + 1


def _indented(s: str) -> np.ndarray:
    """The bytes of `indent=2` text and a final "\\n" from s, the C
    encoder's compact output.  s and every array but the result are freed
    on return, before the caller makes the str: a lower peak RSS."""
    at, pad = _breaks(s)  # 0 < at < len(s)
    n = len(s)
    size = n + int(pad.sum()) + 1
    # where each character of s lands: one step per character plus the pad before it
    dest = np.ones(n, dtype=np.int32 if size < 2**31 else np.int64)
    dest[0] = 0
    dest[at] += pad
    np.cumsum(dest, out=dest)
    out = np.full(size, ord(" "), dtype=np.uint8)
    out[dest] = np.frombuffer(s.encode("ascii"), np.uint8)
    out[dest[at] - pad] = ord("\n")
    out[-1] = ord("\n")
    return out


def render(payload, fmt: str) -> str:
    if fmt == "json":  # json.dumps(payload, indent=2, sort_keys=True) + "\n", byte for byte
        text = _indented(json.dumps(payload, sort_keys=True, separators=(",", ": ")))
        return str(text.data, "ascii")
    if fmt == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(["claim", "p", "m", "n", "k", "w", "A_w", "verdict"])
        for row in _csv_rows(payload):
            writer.writerow(row)
        return buf.getvalue()
    return _render_text(payload)


def _dist_lines(dist, indent="  "):
    if dist is None:
        return [indent + "(not computed)"]
    lines = [indent + f"[{dist['n']}, {dist['k']}] d_min={dist['d_min']}"]
    lines += [indent + f"w={item['w']:>6}  count={item['count']}" for item in dist["weights"]]
    return lines


def _render_text(payload) -> str:
    cmd = payload["command"]
    lines = []
    if cmd == "field":
        f = payload["field"]
        lines.append(f"GF({f['p']}^{f['m']}) with {f['q']} elements")
        lines.append(f"modulus coefficients (constant first): {f['modulus']}")
        lines.append(f"generator coordinates: {f['generator']}")
    elif cmd == "code":
        c = payload["code"]
        lines.append(
            f"[{c['n']}, {c['k']}, {c['d_min']}] code over GF({payload['field']['p']})"
            f" from {payload['set']['selector']}"
        )
        lines.append(f"enumerator: {c['enumerator']}")
        for item in c["weights"]:
            lines.append(f"  w={item['w']:>6}  count={item['count']}")
        lines.append(f"dual: [{c['n']}, {c['dual']['n_minus_k']}, {c['dual']['d']}]")
        lines.append(
            f"griesmer bound {c['griesmer']['bound']}"
            + (" (met)" if c["griesmer"]["tight"] else "")
        )
        lines.append(f"power moment identities ok: {c['pless_ok']}")
        for note in c["notes"]:
            lines.append(f"note: {note}")
    elif cmd == "verify":
        rep = payload["report"]
        if rep.get("claim") == "thm1prop":
            lines.append(f"claim thm1prop p={rep['p']} m={rep['m']}: {rep['verdict']}")
            lines.append(
                f"  trials={rep['trials']} complete={rep['complete_trials']}"
                f" incomplete={rep['incomplete_trials']}"
            )
            ce = rep["counterexample"]
            lines.append(
                f"  counterexample D={ce['D']} E={ce['E']}: complete={ce['complete']},"
                f" conclusion holds={ce['conclusion_holds']}"
            )
        else:
            lines.append(f"claim {rep['claim']} {rep['params']}: {rep['verdict']}")
            for chk in rep["hypothesis_checks"]:
                mark = "ok " if chk["passed"] else "FAIL"
                lines.append(f"  [{mark}] {chk['name']}  {chk['detail']}")
            if rep["predicted"] is not None:
                lines.append("  predicted:")
                lines += _dist_lines(rep["predicted"], indent="    ")
                lines.append("  computed:")
                lines += _dist_lines(rep["computed"], indent="    ")
            if rep["first_diff"]:
                lines.append(f"  first difference: {rep['first_diff']}")
    elif cmd == "scan":
        for rep in payload["reports"]:
            lines.append(f"{rep['claim']} {rep['params']}: {rep['verdict']}")
        s = payload["summary"]
        lines.append(
            f"total={s['total']} match={s['match']} mismatch={s['mismatch']}"
            f" hypothesis-not-met={s['hypothesis-not-met']}"
        )
    elif cmd == "expsum":
        lines.append(
            f"S(a={payload['a']}, b={payload['b']}) over GF(2^{payload['m']}):"
            f" direct={payload['direct']} closed={payload['closed_form']}"
            f" agree={payload['agree']}"
        )
    elif cmd == "walsh":
        lines.append(f"walsh spectrum over GF(2^{payload['m']}), n_f={payload['n_f']}")
        for v, c in payload["value_histogram"]:
            lines.append(f"  value {v:>6}  count {c}")
        lines.append(f"max |value| = {payload['max_abs']}, semibent = {payload['semibent']}")
    else:  # ssreport
        r = payload["ratio"]
        lines.append(
            f"w_min/w_max = {r['w_min']}/{r['w_max']}"
            f" threshold {r['threshold'][0]}/{r['threshold'][1]} passes={r['passes']}"
        )
        if "m_congruence_case" in r:
            lines.append(f"congruence case: {r['m_congruence_case']}")
        if payload["minimal"] is not None:
            mi = payload["minimal"]
            lines.append(
                f"minimal codewords: {mi['minimal_count']} of {mi['total_nonzero']}"
                f" (all minimal: {mi['all_minimal']})"
            )
        else:
            lines.append(f"minimal codewords skipped: {payload['minimal_skipped']}")
    return "\n".join(lines) + "\n"


# ----------------------------------------------------------------------
# wiring


_FLAGS = {
    "--p": dict(type=int, default=2, help="base field characteristic (default {default})"),
    "--m": dict(help="extension degree (scan: range A..B or list)"),
    "--h": dict(help="half-orbit family parameter"),
    "--set": dict(help="set selector"),
    "--claim": dict(choices=" ".join(theorems.CLAIMS), help="claim token: {choices}"),
    "--field-poly": dict(help="modulus coefficients, constant first, comma separated"),
    "--seed": dict(type=int, help="random seed of thm1prop (verify) and cor3 (scan)"),
    "--max-q": dict(type=int, default=DEFAULT_MAX_Q, help="largest field size (default {default})"),
    "--a": dict(type=int, default=1, help="first sum argument (default {default})"),
    "--b": dict(type=int, default=1, help="second sum argument (default {default})"),
    "--format": dict(default="json", help="output format: {choices} (default {default})"),
}

# subcommand: (function, required flags, the other flags it reads, --format choices)
_COMMANDS = {
    "field": (cmd_field, "--m", "--p --field-poly --max-q", "json text"),
    "code": (cmd_code, "--m --set", "--p --field-poly --max-q", "json csv text"),
    "verify": (cmd_verify, "--claim", "--p --m --h --set --field-poly --seed --max-q",
               "json csv text"),
    "scan": (cmd_scan, "--claim", "--p --m --h --seed --max-q", "json csv text"),
    "expsum": (cmd_expsum, "--m", "--field-poly --max-q --a --b", "json text"),
    "walsh": (cmd_walsh, "--m", "--field-poly --max-q --set", "json text"),
    "ssreport": (cmd_ssreport, "--m --set", "--p --field-poly --max-q", "json text"),
}


def _names_a_flag(word: str) -> bool:
    """Whether word is a dash and more, with no space, other than a
    negative number such as -3, -.5 or -1.5: decimal digits around at
    most one point, some after it, and at most a final newline."""
    rest = word[1:]
    if word[:1] != "-" or not rest or " " in rest:
        return False
    whole, dot, frac = rest.removesuffix("\n").partition(".")
    if dot:
        return not (frac.isdecimal() and (whole.isdecimal() or not whole))
    return not whole.isdecimal()


def parse_args(argv) -> types.SimpleNamespace | None:
    """The command word, then its flags in any order, as a namespace of the
    command, its function and each flag it reads (at its default when not
    given) and nothing else; after printing the usage, -h or --help gives None."""
    command, *words = argv or [""]
    if command in ("-h", "--help"):
        print(f"usage: dscodes {{{','.join(_COMMANDS)}}} [-h]\n\n{__doc__}", end="")
        return None
    if command not in _COMMANDS:
        raise UsageError(f"{command!r} is no command; the commands are {', '.join(_COMMANDS)}")
    fn, required, optional, formats = _COMMANDS[command]
    specs = {flag: dict(_FLAGS[flag]) for flag in f"{required} {optional} --format".split()}
    specs["--format"]["choices"] = formats
    if required == "--claim":  # without --p a claim takes its own default p
        specs["--p"].update(default=None, help="base field characteristic (default: the claim's)")
    values = {flag: spec.get("default") for flag, spec in specs.items()}
    words = iter(words)
    for word in words:
        if word in ("-h", "--help"):
            print(f"usage: dscodes {command} [--flag value | --flag=value ...]")
            print(*(f"  {f:<13} {s['help'].format(**s)}" + " (required)" * (f in required.split())
                    for f, s in specs.items()), sep="\n")
            return None
        flag, eq, value = word.partition("=")
        if flag not in specs:
            raise UsageError(f"{command} does not take {word!r}")
        # the next word (a missing one reads as "--"), unless it names a flag
        if not eq and _names_a_flag(value := next(words, "--")):
            raise UsageError(f"{flag} expects a value")
        spec = specs[flag]
        try:
            value = spec.get("type", str)(value)
        except ValueError:
            raise UsageError(f"{flag} takes an integer, not {value!r}") from None
        if "choices" in spec and value not in spec["choices"].split():
            raise UsageError(f"{flag} is one of {spec['choices']}, not {value!r}")
        values[flag] = value
    for flag in required.split():
        if values[flag] is None:
            raise UsageError(f"{command} needs {flag}")
    fields = {flag[2:].replace("-", "_"): value for flag, value in values.items()}
    return types.SimpleNamespace(command=command, fn=fn, **fields)


def main(argv=None) -> int:
    try:
        args = parse_args(sys.argv[1:] if argv is None else argv)
        if args is None:  # -h or --help
            return EXIT_OK
        payload, code = args.fn(args)
        sys.stdout.write(render(payload, args.format))
        return code
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
