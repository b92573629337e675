import pytest

from verimoa.analyzer import Sensitivity, TokKind, extract_facts, tokenize
from verimoa.problems import to_json


def kinds(source):
    return [(t.kind, t.text) for t in tokenize(source)]


class TestTokenize:
    def test_basic_kinds(self):
        got = kinds("module m; // c\n /* b */ 4'bx1z0 `define X $display \"s\" endmodule")
        assert (TokKind.KEYWORD, "module") in got
        assert (TokKind.COMMENT, "// c") in got
        assert (TokKind.COMMENT, "/* b */") in got
        assert (TokKind.NUMBER, "4'bx1z0") in got
        assert (TokKind.DIRECTIVE, "`define") in got
        assert (TokKind.IDENT, "$display") in got
        assert (TokKind.STRING, '"s"') in got

    def test_escaped_identifier(self):
        got = kinds("assign \\my$weird.name = 1;")
        assert (TokKind.IDENT, "\\my$weird.name") in got

    def test_multichar_operators_stay_whole(self):
        texts = [t.text for t in tokenize("a <= b; c == d; e <<< 2;")]
        assert "<=" in texts
        assert "==" in texts
        assert "<<<" in texts

    def test_unterminated_block_comment_consumed(self):
        toks = tokenize("assign y = a; /* runs off the end")
        assert toks[-1].kind is TokKind.COMMENT

    def test_total_no_unknown_for_normal_source(self):
        toks = tokenize("module m(input a); assign y = ~a & 4'hF; endmodule")
        assert all(t.kind is not TokKind.UNKNOWN for t in toks)

    def test_positions_monotonic(self):
        toks = tokenize("module m; endmodule")
        positions = [t.pos for t in toks]
        assert positions == sorted(positions)


class TestModuleFacts:
    def test_header_and_ports(self):
        facts = extract_facts(
            "module m #(parameter W = 4) (input wire [W-1:0] a, input wire b,"
            " output reg y); endmodule"
        )
        assert facts.has_module_decl
        assert facts.has_endmodule
        assert facts.module_name == "m"
        assert facts.port_count == 3
        assert facts.has_port_directions

    def test_multiline_header(self):
        facts = extract_facts(
            "module m (\n  input  wire a,\n  output wire y\n);\nassign y = a;\nendmodule"
        )
        assert facts.port_count == 2
        assert facts.has_port_directions

    def test_portless_variants(self):
        assert extract_facts("module m(); endmodule").port_count == 0
        assert extract_facts("module m; endmodule").port_count == 0

    def test_nonansi_body_directions_count(self):
        facts = extract_facts("module m(a, y); input a; output y; endmodule")
        assert facts.port_count == 2
        assert facts.has_port_directions

    def test_ports_without_any_directions(self):
        facts = extract_facts("module m(a, y); endmodule")
        assert facts.port_count == 2
        assert not facts.has_port_directions

    def test_empty_source(self):
        facts = extract_facts("")
        assert not facts.has_module_decl
        assert facts.token_count == 0

    def test_token_count_ignores_comments(self):
        bare = extract_facts("module m(input a); assign y = a; endmodule")
        noisy = extract_facts(
            "module m(input a); // note\n assign y = a; /* more */ endmodule"
        )
        assert bare.token_count == noisy.token_count


class TestSignals:
    def test_multiple_drivers_counted(self):
        facts = extract_facts(
            "module m; assign y = a; assign y = b; endmodule"
        )
        assert facts.driven_signals["y"] == 2

    def test_always_assignment_counts_as_driver(self):
        facts = extract_facts(
            "module m; assign y = a; always @* y = b; endmodule"
        )
        assert facts.driven_signals["y"] == 2

    def test_assign_count(self):
        facts = extract_facts("module m; assign a = 1; assign b = 2; endmodule")
        assert facts.assign_count == 2


class TestAlwaysBlocks:
    def test_combinational_if_else(self):
        facts = extract_facts(
            "module m(input a, input b, output reg y);\n"
            "always @(*) begin\n"
            "  if (a) y = b; else y = 1'b0;\n"
            "end\nendmodule"
        )
        (block,) = facts.always_blocks
        assert block.sensitivity is Sensitivity.COMBINATIONAL
        assert block.uses_blocking
        assert not block.uses_nonblocking
        assert not block.has_incomplete_conditional
        assert block.assigned_signals == {"y"}
        assert block.read_signals == {"a", "b"}

    def test_incomplete_conditional_flagged(self):
        facts = extract_facts(
            "module m(input a, output reg y);"
            " always @* begin if (a) y = 1; end endmodule"
        )
        assert facts.always_blocks[0].has_incomplete_conditional

    def test_sequential_if_without_else_not_incomplete(self):
        facts = extract_facts(
            "module m(input clk, input en, output reg q);"
            " always @(posedge clk) begin if (en) q <= 1; end endmodule"
        )
        assert not facts.always_blocks[0].has_incomplete_conditional

    def test_edge_sensitivity_and_nonblocking(self):
        facts = extract_facts(
            "module m(input clk, output reg q);"
            " always @(posedge clk) q <= ~q; endmodule"
        )
        (block,) = facts.always_blocks
        assert block.sensitivity is Sensitivity.EDGE_TRIGGERED
        assert block.uses_nonblocking
        assert block.assigned_signals == {"q"}
        assert "q" in block.read_signals

    def test_reset_found_in_sensitivity_list(self):
        facts = extract_facts(
            "module m(input clk, input rst_n, output reg q);"
            " always @(posedge clk or negedge rst_n)"
            " if (!rst_n) q <= 0; else q <= d; endmodule"
        )
        assert facts.has_reset_in_sequential

    def test_reset_found_in_body(self):
        facts = extract_facts(
            "module m(input clk, input rst, output reg q);"
            " always @(posedge clk) if (rst) q <= 0; else q <= d; endmodule"
        )
        assert facts.has_reset_in_sequential

    def test_sequential_without_reset(self):
        facts = extract_facts(
            "module m(input clk, output reg q);"
            " always @(posedge clk) q <= d; endmodule"
        )
        assert not facts.has_reset_in_sequential

    def test_system_tasks_not_signals(self):
        facts = extract_facts(
            "module m(input a); always @* begin $display(\"x\"); y = a; end endmodule"
        )
        (block,) = facts.always_blocks
        assert "$display" not in block.read_signals
        assert "$display" not in block.assigned_signals


class TestStructure:
    def test_case_without_default_counted(self):
        facts = extract_facts(
            "module m(input clk); always @(posedge clk) begin"
            " case (s) 1'b0: q <= 1; endcase end endmodule"
        )
        assert facts.case_without_default == 1

    def test_case_with_default_clean(self):
        facts = extract_facts(
            "module m(input clk); always @(posedge clk) begin"
            " case (s) 1'b0: q <= 1; default: q <= 0; endcase end endmodule"
        )
        assert facts.case_without_default == 0

    def test_unbalanced_begin_end(self):
        facts = extract_facts("module m(input a); always @* begin begin end endmodule")
        assert not facts.begin_end_balanced

    def test_conditional_detected_in_assign(self):
        facts = extract_facts("module m(input s); assign y = s ? a : b; endmodule")
        assert facts.has_conditional

    def test_facts_json_round_trips_fields(self):
        facts = extract_facts(
            "module m(input a, output y); assign y = a; endmodule"
        )
        blob = to_json(facts)
        assert blob["module_name"] == "m"
        assert blob["port_count"] == 2
        assert blob["assign_count"] == 1


@pytest.mark.parametrize("source", [
    "module",              # truncated header
    "endmodule",           # orphan terminator
    "always @(",           # unterminated sensitivity
    "case (x)",            # unterminated case
    "((((",                # nonsense punctuation
    "\\escaped_without_space",
])
def test_extract_facts_total_on_garbage(source):
    # Never raises: broken candidates are the analyzer's main diet.
    extract_facts(source)
