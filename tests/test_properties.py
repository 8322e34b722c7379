"""Property tests at the boundary: random descriptions and flags end in a
documented exit code, and random small codes decode every erasure pattern
below their distance.  Skipped when hypothesis is not installed."""

import contextlib
import io
import json
import random

import pytest

from udlrc import (
    ErasurePattern,
    LocalityClass,
    LocalitySpec,
    build_code,
    cli,
    decode_erasures,
    encode,
    min_distance_oracle,
    validate_spec,
)

EXIT_CODES = {0, 2, 3, 4, 5}


def test_cli_exits_with_a_documented_code(tmp_path):
    hypothesis = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")
    spec_path = tmp_path / "spec.json"
    message_path = tmp_path / "message.json"

    junk = st.one_of(st.none(), st.booleans(), st.floats(allow_nan=False), st.text(max_size=3))
    classes = st.lists(
        st.fixed_dictionaries({"r": st.integers(1, 3), "delta": st.integers(2, 3), "m": st.integers(1, 2)}),
        min_size=1,
        max_size=2,
    )

    @st.composite
    def doc(draw):
        """A buildable description, in or out of the ordered condition."""
        spec = {"q": draw(st.sampled_from([5, 7])), "classes": draw(classes)}
        n_gab = sum(c["r"] * c["m"] for c in spec["classes"])
        spec["t"] = n_gab + draw(st.integers(0, 2))
        spec["k"] = draw(st.integers(1, n_gab))
        if draw(st.booleans()):
            spec["seed"] = draw(st.integers(0, 3))
        return spec

    # Some descriptions get one field made wrong: junk, out of range, or
    # (q, t) past the modulus search budget.  q stays small or a known
    # prime; tests/test_robustness.py covers large q.
    wrong = st.one_of(
        st.tuples(st.sampled_from(["q", "t", "k", "seed", "classes"]), junk),
        st.tuples(st.just("q"), st.sampled_from([-5, 0, 1, 2, 3, 4, 1000000007])),
        st.tuples(st.just("t"), st.sampled_from([-1, 0, 400, 10**9])),
        st.tuples(st.just("k"), st.integers(-1, 13)),
        st.tuples(st.just("classes"), st.lists(st.dictionaries(st.sampled_from(["r", "delta", "m"]),
                                                               st.one_of(st.integers(-1, 4), junk)), max_size=2)),
    )
    fmt = st.sampled_from([[], ["--format", "machine"], ["--format", "bogus"]])
    budget = st.one_of(st.integers(-2, 12).map(lambda b: ["--budget", str(b)]), st.just(["--budget", "x"]))
    erase = st.lists(st.integers(0, 12), max_size=8).map(lambda xs: ",".join(map(str, xs)))
    message = st.sampled_from([["--random"], ["--random"], ["--random", "--seed", "3"], ["--message", str(message_path)],
                               [], ["--random", "--message", str(message_path)]])
    span = st.sampled_from(["1", "2", "1:2", "1:2", "2:3", "0:1", "3:1", "x"])
    sweep = st.tuples(st.sampled_from(["4", "5", "7", "7"]), st.integers(-1, 3), span, span, span,
                      st.one_of(st.just([]), st.integers(-1, 6).map(lambda b: ["--budget", str(b)])))

    @st.composite
    def cases(draw):
        """(spec file text, message file text, argv)."""
        spec = draw(doc())
        if draw(st.integers(0, 3)) == 0:
            key, value = draw(wrong)
            spec[key] = value
        spec_text = draw(st.one_of(st.just(json.dumps(spec)), st.text(max_size=40))) if draw(
            st.integers(0, 9)) == 0 else json.dumps(spec)
        width, count = (spec["t"], spec["k"]) if draw(st.booleans()) else (draw(st.integers(0, 4)), 3)
        digits = st.integers(-1, 7) if draw(st.booleans()) else st.just(0)
        symbols = draw(st.lists(st.lists(digits, min_size=width, max_size=width), min_size=count, max_size=count)
                       ) if isinstance(width, int) and isinstance(count, int) and 0 <= width * count <= 200 else []
        command = draw(st.sampled_from(["bounds", "build", "encode", "decode", "certify", "sweep", "bogus"]))
        if command == "sweep":
            q_, s, r, d, m, extra = draw(sweep)
            argv = ["sweep", "--q", q_, "--classes", str(s), "--r", r, "--delta", d, "--m", m, *extra]
            return spec_text, json.dumps(symbols), argv + draw(fmt)
        argv = [command, "--spec", str(spec_path), *draw(fmt)]
        if command == "certify":
            argv += draw(budget)
        if command in ("encode", "decode"):
            argv += draw(message)
        if command == "decode" and draw(st.booleans()):
            argv += ["--erase", draw(erase)]
        return spec_text, json.dumps(symbols), argv

    @hypothesis.settings(max_examples=150, deadline=None, derandomize=True)
    @hypothesis.given(cases())
    def check(case):
        spec_text, message_text, argv = case
        spec_path.write_text(spec_text)
        message_path.write_text(message_text)
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            try:
                code = cli.main(argv)
            except SystemExit as exc:  # argparse refusing the flags
                code = exc.code
        assert code in EXIT_CODES, (argv, spec_text)

    check()


def test_erasures_below_the_distance_decode():
    hypothesis = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")

    @st.composite
    def codes(draw):
        q = draw(st.sampled_from([5, 7]))
        shape = draw(st.lists(st.tuples(st.integers(1, 3), st.integers(2, 3), st.integers(1, 2)),
                              min_size=1, max_size=2))
        classes = tuple(LocalityClass.from_groups(r, d, m) for r, d, m in shape)
        n_gab = sum(c.r * c.groups for c in classes)
        hypothesis.assume(sum(c.n for c in classes) <= 10)
        spec = LocalitySpec(classes=classes, k=draw(st.integers(1, n_gab)), q=q,
                            t=n_gab + draw(st.integers(0, 1)))
        return build_code(validate_spec(spec))

    @hypothesis.settings(max_examples=60, deadline=None, derandomize=True)
    @hypothesis.given(codes(), st.integers(0, 2**32), st.data())
    def check(inst, seed, data):
        rng = random.Random(seed)
        message = [inst.field.random_element(rng) for _ in range(inst.k)]
        codeword = encode(inst, message)
        d = min_distance_oracle(inst.gen).d
        erased = data.draw(st.sets(st.integers(0, inst.n - 1), max_size=d - 1))
        pattern = ErasurePattern.from_erased(inst.n, erased)
        result = decode_erasures(inst, {i: codeword[i] for i in pattern.remaining}, pattern)
        assert result.message == tuple(message)
        assert result.codeword == tuple(codeword)

    check()
