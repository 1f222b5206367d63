//! Robustness of the HMDL front end: arbitrary input must produce a
//! clean diagnostic or a valid spec, never a panic, and every diagnostic
//! must render with a sensible source location.

use mdes::lang::{compile, parse, parse_recovering, MAX_NESTING_DEPTH};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Arbitrary byte soup (as a string) never panics the front end.
    #[test]
    fn arbitrary_strings_never_panic(input in ".{0,200}") {
        let _ = compile(&input);
    }

    /// Arbitrary sequences of HMDL-ish tokens never panic the parser.
    #[test]
    fn token_soup_never_panics(
        tokens in prop::collection::vec(
            prop::sample::select(vec![
                "resource", "option", "or_tree", "and_or_tree", "class", "op",
                "first_of", "all_of", "cross", "for", "in", "if", "let",
                "constraint", "latency", "flags", "load",
                "{", "}", "(", ")", "[", "]", "@", "..", ":", ";", ",", "=",
                "+", "-", "*", "/", "%", "<", "<=", "==", "&&", "||",
                "x", "y", "M", "0", "1", "42",
            ]),
            0..60,
        )
    ) {
        let source = tokens.join(" ");
        let _ = compile(&source);
    }

    /// Every error renders with a line/column inside (or just past) the
    /// source, and the renderer itself never panics.
    #[test]
    fn diagnostics_always_render(input in ".{0,160}") {
        if let Err(err) = parse(&input) {
            let rendered = err.render(&input);
            prop_assert!(rendered.contains("error:"));
            prop_assert!(rendered.contains("line "));
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Nesting past the hard depth limit produces the typed depth
    /// diagnostic — never a stack overflow — whichever recursive
    /// construct carries the nesting.
    #[test]
    fn over_deep_nesting_is_a_typed_error(
        over in 1usize..128,
        construct in 0usize..3,
    ) {
        let depth = MAX_NESTING_DEPTH + over;
        let source = match construct {
            0 => format!("let x = {}1{};", "(".repeat(depth), ")".repeat(depth)),
            1 => format!("let x = {}1;", "-".repeat(depth)),
            _ => {
                let mut body = String::from("{ R @ 0 }");
                for i in (0..depth).rev() {
                    body = format!("for v{i} in 0..1: {body}");
                }
                format!(
                    "resource R;\nor_tree T = first_of({body});\nclass c {{ constraint = T; }}"
                )
            }
        };
        let errors = parse_recovering(&source).expect_err("must be rejected");
        prop_assert!(
            errors.iter().any(|e| e.message.contains("nesting exceeds")),
            "no depth diagnostic in {errors:?}"
        );
    }

    /// Comprehension widths past the expansion limit fail with a typed
    /// diagnostic before any allocation, however large the range — the
    /// size check itself must not overflow.
    #[test]
    fn pathological_widths_are_a_typed_error(hi in 1_048_577i64..i64::MAX) {
        let source = format!(
            "resource R[4];\n\
             or_tree T = first_of(for i in 0..{hi}: {{ R[i % 4] @ 0 }});\n\
             class c {{ constraint = T; }}"
        );
        let err = compile(&source).expect_err("must be rejected");
        prop_assert!(
            err.message.contains("too large") || err.message.contains("expands"),
            "unexpected diagnostic: {}", err.message
        );
    }
}

/// A lone U+0800: proptest once shrank a failure of the properties above
/// to this input.  It is one column wide, so it gets one caret, not one
/// per UTF-8 byte.
#[test]
fn a_multi_byte_character_renders_one_caret() {
    let input = "\u{800}";
    let rendered = parse(input).expect_err("not HMDL").render(input);
    assert!(rendered.contains("line 1, column 1"), "{rendered}");
    assert_eq!(rendered.lines().last(), Some("  | ^"), "{rendered}");
}

#[test]
fn pathological_nesting_is_rejected_not_overflowed() {
    // Deeply nested parenthesized expressions: the recursive-descent
    // parser must survive a reasonable depth (callers feed files, not
    // adversarial megabytes).
    let depth = 200;
    let mut expr = String::from("1");
    for _ in 0..depth {
        expr = format!("({expr})");
    }
    let source = format!("let x = {expr};");
    // (parse only: a lone `let` is syntactically fine but a description
    // without classes rightly fails validation)
    assert!(parse(&source).is_ok());
}

#[test]
fn enormous_comprehension_fails_fast_with_a_diagnostic() {
    let source = "
        resource R[4];
        or_tree T = first_of(for i in 0..9999999: { R[i % 4] @ 0 });
        class c { constraint = T; }
    ";
    let err = compile(source).unwrap_err();
    assert!(err.message.contains("too large") || err.message.contains("expands"));
}

#[test]
fn deep_for_nesting_expands_correctly() {
    let source = "
        resource R[2];
        or_tree T = first_of(
            for a in 0..2, b in 0..2, c in 0..2, d in 0..2, e in 0..2:
                { R[(a + b + c + d + e) % 2] @ 0 });
        class c { constraint = T; }
    ";
    let spec = compile(source).unwrap();
    assert_eq!(spec.num_options(), 32);
}
