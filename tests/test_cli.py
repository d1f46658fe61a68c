import json

import pytest

from tlfields import cli
from tlfields.cli import main, parse_expression, parse_form, parse_series, parse_rational_form
from tlfields.scalars import BaseField, make_extension
from tlfields.tlf import TlfDescriptor
from tlfields.bt_ops import MAX_JSON_NESTING
from tlfields.forms import AbstractForm, Add, Gen, Neg


@pytest.fixture
def K2():
    return TlfDescriptor(2, make_extension(0, [0, 1]))


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out.strip()
    return code, out


class TestParser:
    def test_series(self, K2):
        s = parse_series("t1^-2*(1+t2)", K2)
        assert s.coefficient_at((-2, 0)) == K2.field.one
        assert s.coefficient_at((-2, 1)) == K2.field.one

    def test_fraction_constants(self, K2):
        s = parse_series("1/2 * t1", K2)
        from fractions import Fraction

        assert s.coefficient_at((1, 0)).coeffs[0] == Fraction(1, 2)

    def test_dlog_form(self, K2):
        form = parse_form("dlog(t1,t2)", K2)
        assert isinstance(form, AbstractForm)
        sep = form.separate()
        assert sep.coefficient((1, 2)) == K2.monomial((-1, -1))

    def test_symbol_binding(self, K2):
        form = parse_form("t1^-1 * d(b{series=t2+t2^2}) ^ t2^-1 * d(t2)", K2)
        sep = form.separate()
        assert sep.is_zero_within_window()

    def test_wedge_vs_power(self, K2):
        v = parse_expression("t1^2", K2)
        from tlfields.forms import evaluate

        assert evaluate(v) == K2.monomial((2, 0))

    def test_parse_error_position(self, K2):
        from tlfields.errors import ParseError

        with pytest.raises(ParseError):
            parse_series("t1 + + t2", K2)

    def test_roundtrip_print_parse(self, K2):
        # parse -> pretty-print -> parse is the identity on exact series
        corpus = [
            "t1^-2*(1+t2)",
            "1 + t1*t2 + t2^3",
            "3*t1 - t2^-1",
            "1/2 * t1^2 * t2^-3 + 7",
        ]
        for text in corpus:
            s1 = parse_series(text, K2)
            s2 = parse_series(repr(s1), K2)
            assert s1 == s2

    def test_rational_form(self):
        base = BaseField(0)
        form = parse_rational_form("1/(t*(t-1)) dt", base)
        assert form.den == (base.zero, base.from_int(-1), base.one)


class TestCommands:
    def test_residue_dlog(self, capsys):
        code, out = run_cli(capsys, "residue", "--n", "2", "dlog(t1,t2)")
        assert code == 0
        assert json.loads(out)["value"] == "1"

    def test_residue_shifted_zero(self, capsys):
        code, out = run_cli(capsys, "residue", "--n", "2", "t1 * dlog(t1,t2)")
        assert code == 0
        assert json.loads(out)["value"] == "0"

    def test_counterexample(self, capsys):
        code, out = run_cli(capsys, "counterexample")
        assert code == 0
        data = json.loads(out)
        assert data == {"res_st": "0", "res_nt": "1"}

    def test_tate_residue(self, capsys):
        code, out = run_cli(capsys, "tate-residue", "t1^-1", "t1")
        assert code == 0
        assert json.loads(out)["value"] == "1"

    def test_tate_residue_of_windowed_operands(self, capsys):
        # pi(f t^m) is known where f t^m is known, so f = 1 + t1 + t1^2 + O(t1^3)
        # answers while every coefficient the trace needs is guaranteed
        for argv, out in [
            (["--window", "3", "inv(1-t1)", "t1^-2"], '{"value":"-2","window_used":3}'),
            (["--window", "3", "--char", "5", "inv(1-t1)", "t1^-2"], '{"value":"3","window_used":3}'),
        ]:
            assert run_cli(capsys, "tate-residue", *argv) == (0, out)
        # f = t1^-1 + O(t1^0) with g = 1 + t1: res(f dg) = f_-1 needs no f_0
        assert run_cli(capsys, "tate-residue", "--window", "1", "t1^-1*inv(1-t1)", "1+t1") == (
            0, '{"value":"1","window_used":1}')
        # t1^-3 needs f_3, which the window does not reach
        code, out = run_cli(capsys, "tate-residue", "--window", "3", "inv(1-t1)", "t1^-1+t1^-3")
        assert code == 3
        assert json.loads(out) == {
            "code": "insufficient-precision",
            "error": "t_1-coefficient -3 unknown: nothing is guaranteed from t_1^-3 on",
        }

    def test_global_sum(self, capsys):
        code, out = run_cli(capsys, "global-sum", "--char", "0", "1/(t*(t-1)) dt")
        assert code == 0
        data = json.loads(out)
        assert data["sum"] == "0"
        assert data["locals"]["t"] == "-1"
        assert data["locals"]["-1 + t"] == "1"
        assert data["locals"]["infinity"] == "0"

    def test_certify_derivative_in_char_p(self, capsys):
        # d1 is d^[1] in every characteristic: char 5 answers as char 0 at level 1
        out = '{"band":1,"certified":true,"replayed":true,"target":"E"}'
        assert run_cli(capsys, "certify", "--n", "1", "--char", "5", "--target", "E", "d1") == (0, out)
        for target in ("1,1", "1,2"):
            char0 = run_cli(capsys, "certify", "--n", "1", "--char", "0", "--target", target, "d1")
            char5 = run_cli(capsys, "certify", "--n", "1", "--char", "5", "--target", target, "d1")
            assert char5 == char0
            assert char5[0] == 4 and json.loads(char5[1])["certified"] is False

    def test_certify_mul(self, capsys):
        code, out = run_cli(capsys, "certify", "--n", "1", "mul(t1^-1)")
        assert code == 0
        data = json.loads(out)
        assert data["certified"] is True
        assert data["band"] == 1
        assert data["replayed"] is True

    def test_certify_projection_ideal(self, capsys):
        code, out = run_cli(capsys, "certify", "--n", "1", "--target", "1,2", "proj1(<0)")
        assert code == 0
        data = json.loads(out)
        assert data["certified"] is True
        assert data["killed_shift"] == 0

    def test_certify_rejects(self, capsys):
        code, out = run_cli(capsys, "certify", "--n", "1", "--target", "1,1", "mul(t1)")
        assert code == 4
        assert json.loads(out)["certified"] is False

    def test_trace_op(self, capsys):
        code, out = run_cli(
            capsys, "trace-op", "--n", "1", "--char", "5",
            "proj1(>=0)*mul(1+t1)*proj1(<3)*proj1(>=0)",
        )
        assert code == 0
        assert json.loads(out)["value"] == "3"

    def test_decompose(self, capsys):
        code, out = run_cli(capsys, "decompose", "--n", "2", "--level", "2")
        assert code == 0
        data = json.loads(out)
        assert data["identity_on_probes"] is True
        assert data["phi1"]["op"] == "proj"

    def test_trace_form_kummer(self, capsys):
        code, out = run_cli(
            capsys, "trace-form", "--n", "1", "--kummer", "2", "t1^-1 * d(t1)"
        )
        assert code == 0
        data = json.loads(out)
        assert data["residue"] == "1"

    def test_lift_matrix(self, capsys):
        code, out = run_cli(capsys, "lift-matrix", "--n", "2", "--char", "5")
        assert code == 0
        data = json.loads(out)
        assert data["unit_triangular"] is True
        assert data["orders_certified"] is True
        assert data["neumann_identity"] is True

    def test_parse_error_exit_code(self, capsys):
        code, out = run_cli(capsys, "residue", "--n", "1", "t1 + + 1")
        assert code == 2

    def test_precision_error_exit_code(self, capsys):
        code, out = run_cli(capsys, "residue", "--n", "1", "--window", "4",
                            "t1^-6 * inv(1-t1) * d(t1)")
        assert code == 3

    @pytest.mark.parametrize("window", ["0", "-3"])
    def test_window_below_one_rejected_at_parsing(self, capsys, window):
        with pytest.raises(SystemExit) as ei:
            main(["residue", "--window", window, "inv(1-t1)*t1^-8*d(t1)"])
        assert ei.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "--window" in captured.err

    def test_negative_twist_depth_rejected_at_parsing(self, capsys):
        with pytest.raises(SystemExit) as ei:
            main(["lift-matrix", "--n", "2", "--twist-depth", "-1"])
        assert ei.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "--twist-depth" in captured.err

    @pytest.mark.parametrize("flag", ["--exponent", "--twist-depth"])
    def test_lift_matrix_flags_bounded_above(self, capsys, flag):
        with pytest.raises(SystemExit) as ei:
            main(["lift-matrix", "--n", "2", flag, "9"])
        assert ei.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"argument {flag}: must be an integer <= 8, got 9" in captured.err
        args = cli.PARSER.parse_args(["lift-matrix", flag, "8"])
        assert getattr(args, flag[2:].replace("-", "_")) == 8

    def test_lift_matrix_n_bounded_above(self, capsys):
        with pytest.raises(SystemExit) as ei:
            main(["lift-matrix", "--n", "5"])
        assert ei.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "argument --n: must be an integer <= 4, got 5" in captured.err
        assert cli.PARSER.parse_args(["lift-matrix", "--n", "4"]).n == 4
        assert run_cli(capsys, "lift-matrix", "--n", "4") == (
            0, '{"neumann_identity":true,"orders_certified":true,"rank":3,"unit_triangular":true}')

    @pytest.mark.parametrize("n, error", [
        ("1", "the change-of-lifting matrix needs n >= 2"),
        ("0", "the change-of-lifting matrix needs n >= 2"),
        ("-1", "dimension must be nonnegative"),
    ])
    def test_lift_matrix_n_below_two_is_a_domain_error(self, capsys, n, error):
        code, out = run_cli(capsys, "lift-matrix", "--n", n)
        assert code == 4
        assert json.loads(out) == {"code": "error", "error": error}

    def test_lift_matrix_char_p_orders_beyond_p(self, capsys):
        # entry (0, 4) has order 4 >= 3: a divided power d^[3] or d^[4] in char 3
        assert run_cli(capsys, "lift-matrix", "--n", "2", "--char", "3", "--exponent", "4") == (
            0, '{"neumann_identity":true,"orders_certified":true,"rank":5,"unit_triangular":true}')

    def test_negative_exponent_rejected_at_parsing(self, capsys):
        with pytest.raises(SystemExit) as ei:
            main(["lift-matrix", "--n", "2", "--exponent", "-1"])
        assert ei.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "--exponent" in captured.err

    @pytest.mark.parametrize(
        "argv, rank",
        [(["--char", char, "--exponent", str(l)], l + 1) for char in ("0", "5") for l in range(4)]
        + [(["--twist-depth", "0"], 3)],
        ids=[f"char{char}-l{l}" for char in ("0", "5") for l in range(4)] + ["twist-depth-0"],
    )
    def test_lift_matrix_output_pinned(self, capsys, argv, rank):
        # the output the probe-only r - 1 certificate printed, before the
        # orders were derived from the liftings
        assert run_cli(capsys, "lift-matrix", "--n", "2", *argv) == (0, (
            '{"neumann_identity":true,"orders_certified":true,'
            f'"rank":{rank},"unit_triangular":true}}'))

    @pytest.mark.parametrize("depth", ["0", "-1", "1"])
    def test_ladder_depth_below_one_rejected_at_parsing(self, capsys, depth):
        # the operator determines the rung, so --ladder-depth is no option at
        # all: a ladder with no rungs used to certify (i, j) with i >= 2
        # vacuously, and a one-rung ladder certified mul(t1)
        with pytest.raises(SystemExit) as ei:
            main(["certify", "--n", "2", "--target", "2,1", "--ladder-depth", depth, "mul(t1)"])
        assert ei.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "unrecognized arguments: --ladder-depth" in captured.err

    @pytest.mark.parametrize(
        "target, reason",
        [("1,1", "mul(1): image admits no level-1 lattice bound"),
         ("1,2", "mul(1): operator does not provably annihilate any standard lattice")],
    )
    def test_level1_refusal_names_the_operator(self, capsys, target, reason):
        code, out = run_cli(capsys, "certify", "--n", "1", "--target", target, "mul(1)")
        assert code == 4
        assert json.loads(out) == {"certified": False, "reason": reason}

    @pytest.mark.parametrize(
        "argv, value",
        [
            (["--char", "0", "proj1(>=0)*mul(1+t1)*proj1(<3)*proj1(>=0)"], "3"),
            (["--char", "0", "proj1(>=0)*mul(t1^-1+2+t1)*proj1(<3)"], "6"),
            (["--char", "0", "proj1(>=-1)*mul(1/2+t1)*proj1(<3)*mul(1-t1)"], "2"),
            (["--char", "0", "proj1(>=0)*mul(t1)*proj1(<3)"], "0"),
            (["--char", "0", "--ext-poly", "1,0,1", "proj1(>=0)*mul(1+x)*proj1(<3)"], "6"),
            (["--char", "0", "--n", "2", "proj1(>=0)*proj2(>=0)*mul(1+t1+t2)*proj1(<2)*proj2(<2)"],
             "4"),
            (["--char", "5", "proj1(>=0)*mul(1+t1)*proj1(<3)*proj1(>=0)"], "3"),
            (["--char", "5", "proj1(>=0)*mul(t1^-1+2+t1)*proj1(<3)"], "1"),
            (["--char", "5", "2*proj1(>=0)*proj1(<5)"], "0"),
            (["--char", "5", "--n", "2",
              "proj1(>=0)*proj2(>=0)*mul(3+t1*t2^-1)*proj1(<2)*proj2(<3)"], "3"),
        ],
    )
    def test_trace_op_output_pinned(self, capsys, argv, value):
        assert run_cli(capsys, "trace-op", *argv) == (0, f'{{"value":"{value}"}}')

    @pytest.mark.parametrize(
        "target, operator",
        [
            ("2,1", "mul(t1)"),
            ("2,1", "proj1(>=5)*mul(t2^-1)"),
            ("2,1", "mul(t1^-5)*proj1(>=5)*mul(t2^-1)*mul(t1^5)"),
            ("2,1", "proj1(>=0)*mul(t2^-1)"),
            ("2,2", "proj1(<0)*mul(t2^-1)"),
            ("2,2", "proj1(<5)*mul(t2^-1)"),
            ("2,2", "mul(t2)"),
        ],
    )
    def test_level2_refusal_names_the_entry(self, capsys, target, operator):
        # conjugating by the unit t1^5 maps the projected operators onto each
        # other; where the projection keeps rows the entry multiplies by
        # t2^-1, whose image in K_1 is unbounded, wherever the cutoff sits
        code, out = run_cli(capsys, "certify", "--n", "2", "--target", target, operator)
        assert code == 4
        assert json.loads(out)["reason"].startswith("pushdown entry (")

    def test_certify_zero_image(self, capsys):
        code, out = run_cli(capsys, "certify", "--n", "1", "--target", "1,1", "mul(0)")
        assert code == 0
        assert out == ('{"band":0,"certified":true,"replayed":true,"target":[1,1],'
                       '"witness_shift":"inf"}')
        assert run_cli(capsys, "trace-op", "--n", "1", "mul(0)") == (0, '{"value":"0"}')

    @pytest.mark.parametrize("n", ["2", "3"])
    def test_trace_zero_operator_above_level_one(self, capsys, n):
        # the rung of the zero operator holds no pushdown entry; its bounds are
        # those of level 1: image bound inf, killed shift 0
        assert run_cli(capsys, "trace-op", "--n", n, "mul(0)") == (0, '{"value":"0"}')

    def test_certify_dimension_zero(self, capsys):
        # E(K) = End_k(K) at n = 0
        code, out = run_cli(capsys, "certify", "--n", "0", "mul(1)")
        assert code == 0
        assert out == '{"band":0,"certified":true,"replayed":true,"target":"E"}'

    @pytest.mark.parametrize(
        "argv, code, out",
        [
            (["trace-op", "--n", "0", "2*mul(3)"], 0, '{"value":"6"}'),
            (["trace-op", "--n", "0", "mul(2)"], 0, '{"value":"2"}'),
            (["trace-op", "--n", "0", "--ext-poly", "1,0,1", "mul(x+1)"], 0, '{"value":"2"}'),
            (["residue", "--n", "0", "2*3^-1"], 0, '{"value":"2/3","window_used":8}'),
            (["residue", "--n", "0", "--char", "5", "(2)^-1"], 0,
             '{"value":"3","window_used":8}'),
            (["trace-form", "--n", "0", "--upstairs-poly", "1,0,1", "3^2"], 0,
             '{"form":{"coeffs":{"[]":{"scalar":["18"]}},"deg":0},"residue":"18"}'),
            (["residue", "--n", "0", "0^-1"], 4,
             '{"code": "division-by-zero", "error": "inverse of exact zero"}'),
        ],
    )
    def test_dimension_zero_output_pinned(self, capsys, argv, code, out):
        # at n = 0 every element is a scalar of the last residue field
        assert run_cli(capsys, *argv) == (code, out)

    def test_kummer_zero_reaches_the_index_check(self, capsys):
        code, out = run_cli(capsys, "trace-form", "--n", "1", "--kummer", "0", "t1^-1 * d(t1)")
        assert code == 4
        data = json.loads(out)
        assert data["code"] == "unsupported-extension"
        assert "positive integer" in data["error"]

    def test_twist_depth_zero_accepted(self, capsys):
        code, out = run_cli(capsys, "lift-matrix", "--n", "2", "--twist-depth", "0")
        assert code == 0
        assert json.loads(out)["neumann_identity"] is True

    def test_certify_cancelling_differentials(self, capsys):
        code, out = run_cli(capsys, "certify", "--n", "1", "--target", "1,2", "d1 - d1")
        assert code == 0
        data = json.loads(out)
        assert data["certified"] is True
        assert data["replayed"] is True

    @pytest.mark.parametrize(
        "n, operator", [("1", "proj1(>=0) - proj1(>=0)"), ("2", "proj2(>=0) - proj2(>=0)")]
    )
    def test_certify_cancelling_projections(self, capsys, n, operator):
        # each parsed projection gets its own standard lifting system, so the
        # two sides cancel only when systems compare by structure
        code, out = run_cli(capsys, "certify", "--n", n, "--target", "1,2", operator)
        assert code == 0
        data = json.loads(out)
        assert data["certified"] is True
        assert data["killed_shift"] == 0
        assert data["replayed"] is True

    @pytest.mark.parametrize(
        "argv, key, value",
        [
            (["residue", "--n", "2", "--ext-poly", "-2,0,0,1", "dlog(t1,t2)"], "value", "3"),
            (["trace-form", "--n", "1", "--upstairs-poly", "-2,0,1", "t1^-1*d(t1)"], "residue", "2"),
        ],
        ids=["ext-poly", "upstairs-poly"],
    )
    def test_negative_polynomial_separated_or_joined(self, capsys, argv, key, value):
        # argparse alone reads a value that starts with "-2" as an option
        joined = argv[:3] + [f"{argv[3]}={argv[4]}"] + argv[5:]
        code, out = run_cli(capsys, *argv)
        assert code == 0
        assert json.loads(out)[key] == value
        assert run_cli(capsys, *joined) == (code, out)

    @pytest.mark.parametrize(
        "argv",
        [
            ["residue", "--n", "2", "--ext", "-2,0,0,1", "dlog(t1,t2)"],
            ["residue", "--n", "2", "--ext-p", "-2,0,0,1", "dlog(t1,t2)"],
            ["trace-form", "--n", "1", "--upstairs", "-2,0,1", "t1^-1*d(t1)"],
            ["trace-form", "--n", "1", "--up", "-2,0,1", "t1^-1*d(t1)"],
        ],
        ids=["ext", "ext-p", "upstairs", "up"],
    )
    def test_negative_polynomial_abbreviated_flag(self, capsys, argv):
        full = {"--ext": "--ext-poly", "--ext-p": "--ext-poly",
                "--upstairs": "--upstairs-poly", "--up": "--upstairs-poly"}[argv[3]]
        expected = run_cli(capsys, *argv[:3], full, *argv[4:])
        assert expected[0] == 0
        assert run_cli(capsys, *argv) == expected

    @pytest.mark.parametrize(
        "argv, error",
        [
            (["residue", "--char", "5", "--ext-poly", "1/2,0,1", "t1^-1*d(t1)"],
             "at position 0: expected an integer coefficient in '1/2,0,1'"),
            (["residue", "--ext-poly", "a,0,1", "t1^-1*d(t1)"],
             "at position 0: expected a rational coefficient in 'a,0,1'"),
            (["residue", "--ext-poly", "1,1/0,1", "t1^-1*d(t1)"],
             "at position 2: expected a rational coefficient in '1,1/0,1'"),
            (["trace-form", "--n", "1", "--upstairs-poly", "1,,1", "t1^-1*d(t1)"],
             "at position 2: expected a rational coefficient in '1,,1'"),
            (["trace-form", "--n", "1", "--char", "5", "--upstairs-poly", "1,0,x", "t1^-1*d(t1)"],
             "at position 4: expected an integer coefficient in '1,0,x'"),
        ],
        ids=["ext-poly-fraction-over-fp", "ext-poly-name", "ext-poly-zero-denominator",
             "upstairs-poly-empty", "upstairs-poly-name-over-fp"],
    )
    def test_malformed_polynomial_flag_is_a_parse_error(self, capsys, argv, error):
        code, out = run_cli(capsys, *argv)
        assert code == 2
        assert json.loads(out) == {"code": "parse-error", "error": error}

    @pytest.mark.parametrize(
        "target, error",
        [
            ("1,x", "at position 2: expected an integer in '1,x'"),
            ("1", "at position 1: expected ',' and a second integer in '1'"),
            ("1,2,3", "at position 3: expected end of input in '1,2,3'"),
        ],
        ids=["not-an-integer", "one-integer", "three-integers"],
    )
    def test_malformed_target_is_a_parse_error(self, capsys, target, error):
        code, out = run_cli(capsys, "certify", "--n", "1", "--target", target, "mul(1)")
        assert code == 2
        assert json.loads(out) == {"code": "parse-error", "error": error}

    def test_well_formed_target_out_of_range(self, capsys):
        code, out = run_cli(capsys, "certify", "--n", "1", "--target", "0,1", "mul(1)")
        assert code == 4
        assert json.loads(out) == {
            "certified": False, "reason": "target (0, 1) out of range for dimension 1"}

    def test_ambiguous_abbreviation_stays_ambiguous(self, capsys):
        # lift-matrix has --exponent beside --ext-poly
        with pytest.raises(SystemExit) as ei:
            main(["lift-matrix", "--n", "2", "--e", "-2,0,1"])
        assert ei.value.code == 2
        assert "ambiguous option: --e" in capsys.readouterr().err

    def test_determinism(self, capsys):
        _, out1 = run_cli(capsys, "residue", "--n", "2", "dlog(t1,t2)")
        _, out2 = run_cli(capsys, "residue", "--n", "2", "dlog(t1,t2)")
        assert out1 == out2

    def test_extension_field(self, capsys):
        # residue over Q(i): tr(i * dlog) = 0, tr((1+i) dlog) = 2
        code, out = run_cli(
            capsys, "residue", "--n", "1", "--ext-poly", "1,0,1", "x * dlog(t1)"
        )
        assert code == 0
        assert json.loads(out)["value"] == "0"
        code, out = run_cli(
            capsys, "residue", "--n", "1", "--ext-poly", "1,0,1", "(1+x) * dlog(t1)"
        )
        assert json.loads(out)["value"] == "2"


CERTIFIED_E = '{"band":-1,"certified":true,"replayed":true,"target":"E"}'
# (argv with "{}" where the nested text goes, its opening and closing brackets,
# the innermost text, and the output at every accepted depth)
NESTED_CALLS = [
    (["residue", "--n", "1", "{}^-1*d(t1)"], "(", ")", "t1", '{"value":"1","window_used":8}'),
    (["residue", "--n", "1", "{}^-1*d(t1)"], "inv(", ")", "t1", '{"value":"1","window_used":8}'),
    (["residue", "--n", "1", "{}^-1*d(t1)"], "b{series=", "}", "t1", '{"value":"1","window_used":8}'),
    (["global-sum", "{} dt"], "(", ")", "1/t", '{"locals":{"infinity":"-1","t":"1"},"sum":"0"}'),
    (["certify", "--n", "1", "{}"], "(", ")", "d1",
     '{"band":1,"certified":true,"replayed":true,"target":"E"}'),
]


def _nested_argv(argv, opening, closing, inner, depth):
    text = opening * depth + inner + closing * depth
    return [a.replace("{}", text) for a in argv]


class TestDeepInput:
    """Deep, long or malformed input answers or exits 2, never with a traceback."""

    def test_thousand_term_polynomial(self, capsys):
        poly = "+".join(f"t1^{i}" for i in range(1000))
        assert run_cli(capsys, "residue", "--n", "1", f"({poly})*t1^-1*d(t1)") == (
            0, '{"value":"1","window_used":8}')

    def test_long_sum_is_a_balanced_tree(self, K2):
        poly = "+".join(f"t1^{i}" for i in range(1000))
        depth, level = 0, [parse_expression(poly, K2)]
        while level:
            depth += 1
            level = [c for e in level if isinstance(e, Add) for c in (e.a, e.b)]
        assert depth == 11  # ten levels of Add over the leaves: 2^10 >= 1000
        # the leaves keep their order
        leaves, stack = [], [parse_expression(poly, K2)]
        while stack:
            e = stack.pop()
            if isinstance(e, Add):
                stack += [e.b, e.a]
            else:
                leaves.append(e)
        assert [repr(leaf) for leaf in leaves] == [
            repr(parse_expression(f"t1^{i}", K2)) for i in range(1000)]

    @pytest.mark.parametrize("argv, opening, closing, inner, out", NESTED_CALLS)
    def test_nesting_bounded(self, capsys, argv, opening, closing, inner, out):
        deepest = _nested_argv(argv, opening, closing, inner, cli.MAX_NESTING)
        assert run_cli(capsys, *deepest) == (0, out)
        for depth in (cli.MAX_NESTING + 1, 1500):
            code, printed = run_cli(capsys, *_nested_argv(argv, opening, closing, inner, depth))
            assert code == 2
            error = json.loads(printed)
            assert error["code"] == "parse-error"
            bracket = cli.MAX_NESTING * len(opening) + max(opening.find("("), opening.find("{"))
            assert error["error"].startswith(
                f"at position {bracket}: "
                f"expected at most {cli.MAX_NESTING} nested brackets")

    def test_minus_runs_keep_their_nesting(self, capsys, K2):
        assert run_cli(capsys, "residue", "--n", "1", "--", "-" * 5000 + "t1^-1*d(t1)") == (
            0, '{"value":"1","window_used":8}')
        assert run_cli(capsys, "global-sum", "--", "-" * 5001 + "1/t dt") == (
            0, '{"locals":{"infinity":"1","t":"-1"},"sum":"0"}')
        e = parse_expression("--t1", K2)
        assert isinstance(e, Neg) and isinstance(e.a, Neg) and isinstance(e.a.a, Gen)

    def test_operator_sign_runs_bounded(self, capsys):
        assert run_cli(capsys, "certify", "--n", "1", "--", "-" * cli.MAX_NESTING + "mul(t1)") == (
            0, CERTIFIED_E)
        code, out = run_cli(capsys, "certify", "--n", "1", "--", "-" * 5000 + "mul(t1)")
        assert code == 2
        assert json.loads(out)["error"].startswith(
            f"at position 5000: expected at most {cli.MAX_NESTING} signs in a row")

    @pytest.mark.parametrize("argv", [
        ["residue", "--n", "2000", "t1"],
        ["residue", "--n", "1000", "t1"],
        ["certify", "--n", "2000", "mul(t1)"],
        ["certify", "--n", "900", "mul(t1)"],
        ["trace-op", "--n", "65", "mul(t1)"],
        ["decompose", "--n", "65"],
        ["tate-residue", "--n", "65", "t1", "t1"],
        ["trace-form", "--n", "65", "--kummer", "2", "t1"],
    ])
    def test_dimension_bounded_above(self, capsys, argv):
        with pytest.raises(SystemExit) as ei:
            main(argv)
        assert ei.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"argument --n: must be an integer <= {cli.MAX_N}, got {argv[2]}" in captured.err

    def test_largest_dimension_answers(self, capsys):
        assert run_cli(capsys, "certify", "--n", str(cli.MAX_N), "mul(t1)") == (0, CERTIFIED_E)

    @pytest.mark.parametrize("payload, error", [
        ("{bad", "at position 1: expected well-formed JSON "
                 "(Expecting property name enclosed in double quotes) in '{bad'"),
        ('{"op":"mulby"}', "at position 0: expected an operator in the JSON schema "
                           "(KeyError: 'f') in '{\"op\":\"mulby\"}'"),
        ('{"op":"scalarmul","scalar":["x"],"part":{"op":"diff","terms":[]}}',
         "at position 0: expected an operator in the JSON schema "
         "(ValueError: Invalid literal for Fraction: 'x')"),
        ('{"op":"compose","parts":[' * 2000 + '{"op":"diff","terms":[]}' + "]}" * 2000,
         "at position 0: expected JSON nested less deeply"),
    ])
    @pytest.mark.parametrize("command", ["certify", "trace-op"])
    def test_malformed_json_is_a_parse_error(self, capsys, command, payload, error):
        code, out = run_cli(capsys, command, "--n", "1", payload)
        assert code == 2
        data = json.loads(out)
        assert data["code"] == "parse-error"
        assert data["error"].startswith(error)

    def test_deep_json_within_the_recursion_limit_answers(self, capsys):
        payload = '{"op":"compose","parts":[' * 300 + '{"op":"diff","terms":[]}' + "]}" * 300
        assert run_cli(capsys, "certify", "--n", "1", payload) == (
            0, '{"band":0,"certified":true,"replayed":true,"target":"E"}')
        assert run_cli(capsys, "certify", "--n", "1", '{"op":"nope"}') == (
            4, '{"code": "error", "error": "unknown operator kind \'nope\'"}')

    @pytest.mark.parametrize("opening, closing", [
        ('{"op":"compose","parts":[', "]}"),
        ('{"op":"add","parts":[', "]}"),
        ('{"op":"scalarmul","scalar":["2"],"part":', "}"),
    ], ids=["compose", "add", "scalarmul"])
    def test_json_nesting_bounded(self, capsys, opening, closing):
        leaf = '{"op":"diff","terms":[]}'
        deepest = opening * MAX_JSON_NESTING + leaf + closing * MAX_JSON_NESTING
        assert run_cli(capsys, "certify", "--n", "1", deepest) == (
            0, '{"band":0,"certified":true,"replayed":true,"target":"E"}')
        code, out = run_cli(capsys, "trace-op", "--n", "1", deepest)
        assert (code, json.loads(out)["code"]) == (4, "not-certifiable")
        # 900 deep, json.loads overflows first on compose and add
        for depth in (MAX_JSON_NESTING + 1, 900):
            payload = opening * depth + leaf + closing * depth
            for command in ("certify", "trace-op"):
                code, out = run_cli(capsys, command, "--n", "1", payload)
                assert code == 2
                error = json.loads(out)["error"]
                assert error.startswith("at position 0: expected JSON nested less deeply")
                if depth == MAX_JSON_NESTING + 1:
                    assert error.endswith(f"(an operator inside at most {MAX_JSON_NESTING} others)")

    def test_scalar_leads_its_product(self, capsys):
        assert run_cli(capsys, "certify", "--n", "1", "--", "-2*mul(t1)") == (0, CERTIFIED_E)
        for text, at in (("2*3*mul(t1)", 2), ("mul(t1)*2", 8), ("mul(t1)*-2*d1", 8)):
            code, out = run_cli(capsys, "certify", "--n", "1", text)
            assert code == 2
            assert json.loads(out)["error"].startswith(f"at position {at}: expected an operator")


# every flag a subcommand does not read, with a value where it takes one,
# and the positional arguments of a valid call
FLAG_VALUES = {"--char": ["5"], "--ext-poly": ["1,0,1"], "--n": ["2"], "--window": ["4"],
               "--seed": ["3"], "--pretty": [], "--json": []}
UNREAD_FLAGS = [
    ("residue", ["t1^-1*d(t1)"], ["--seed", "--json"]),
    ("tate-residue", ["t1^-1", "t1"], ["--seed"]),
    ("trace-form", ["--kummer", "2", "t1^-1*d(t1)"], ["--seed"]),
    ("counterexample", [], ["--char", "--ext-poly", "--n", "--seed"]),
    ("certify", ["mul(1)"], ["--seed"]),
    ("trace-op", ["mul(0)"], ["--seed"]),
    ("global-sum", ["1/(t*(t-1)) dt"], ["--ext-poly", "--n", "--window", "--seed"]),
    ("lift-matrix", [], ["--seed", "--json"]),
    ("selftest", [], ["--char", "--ext-poly", "--n", "--window", "--pretty", "--json"]),
]


@pytest.mark.parametrize(
    "command, positional, flag",
    [(c, p, f) for c, p, flags in UNREAD_FLAGS for f in flags],
    ids=[f"{c} {f}" for c, _, flags in UNREAD_FLAGS for f in flags],
)
def test_flag_the_command_does_not_read_is_rejected(capsys, command, positional, flag):
    # a flag that would be silently ignored is no option of the command
    cli.PARSER.parse_args([command, *positional])
    code, out, err = _call(capsys, [command, flag, *FLAG_VALUES[flag], *positional])
    assert (code, out) == (2, "")
    assert f"unrecognized arguments: {flag}" in err


# successive calls with different subcommands and flags: per-subcommand --n
# defaults, the --window default, --pretty followed by a call without it, the
# negative-polynomial join and its ambiguous abbreviation, parse errors
REUSE_SEQUENCE = [
    ["residue", "--n", "2", "--window", "4", "--pretty", "dlog(t1,t2)"],
    ["residue", "t1^-1*d(t1)"],
    ["counterexample"],
    ["tate-residue", "--char", "5", "t1^-2", "t1^2"],
    ["residue", "--n", "2", "--ext-poly", "-2,0,0,1", "dlog(t1,t2)"],
    ["residue", "--n", "2", "--e", "-2,0,1", "dlog(t1,t2)"],
    ["lift-matrix", "--e", "-2,0,1"],
    ["lift-matrix", "--char", "5", "--exponent", "1"],
    ["decompose", "--level", "1"],
    ["residue", "--window", "0", "t1^-1*d(t1)"],
    ["trace-form", "--n", "1", "--upstairs-poly", "-2,0,1", "t1^-1*d(t1)"],
    ["certify", "--n", "1", "--target", "1,x", "mul(1)"],
    ["certify", "--n", "1", "mul(t1^-1)"],
    ["global-sum", "1/(t*(t-1)) dt"],
    ["residue", "--n", "1", "t1 + + 1"],
    ["trace-op", "--n", "1", "mul(0)"],
]


def _call(capsys, argv):
    """Exit code, stdout and stderr of one main call, parse errors included."""
    try:
        code = main(list(argv))
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestParserReuse:
    """main parses with one parser built at import; a call must not see what
    an earlier call parsed."""

    def test_successive_calls_print_what_separate_calls_print(self, capsys, monkeypatch):
        shared = [_call(capsys, argv) for argv in REUSE_SEQUENCE]
        separate = []
        for argv in REUSE_SEQUENCE:
            monkeypatch.setattr(cli, "PARSER", cli.build_parser())
            separate.append(_call(capsys, argv))
        assert shared == separate
        assert [code for code, _, _ in shared] == [0, 0, 0, 0, 0, 0, 2, 0, 0, 2, 0, 2, 0, 0, 2, 0]
        assert shared[0][1].startswith('{\n  "value": "1",\n  "window_used": 4\n}')
        assert shared[1][1] == '{"value":"1","window_used":8}\n'

    def test_successive_parses_match_fresh_parsers(self):
        # the defaults (--window 8, --pretty off) and the command each call
        # dispatches to
        for argv in REUSE_SEQUENCE:
            joined = cli._join_negative_polys(argv)
            try:
                fresh = vars(cli.build_parser().parse_args(joined))
            except SystemExit:
                continue
            assert vars(cli.PARSER.parse_args(joined)) == fresh

    @pytest.mark.parametrize(
        "bad",
        [["residue", "--window", "0", "t1^-1*d(t1)"], ["residue", "--n", "1", "t1 + + 1"],
         ["lift-matrix", "--bogus"]],
        ids=["argparse", "expression", "unknown-flag"],
    )
    def test_parse_error_then_valid_call(self, capsys, bad):
        assert _call(capsys, bad)[0] == 2
        assert run_cli(capsys, "residue", "--n", "2", "dlog(t1,t2)") == (
            0, '{"value":"1","window_used":8}')
