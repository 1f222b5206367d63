//! Diagnostics for the HMDL front end.

use std::fmt;

use crate::token::Span;

/// An error produced while lexing, parsing or elaborating HMDL source.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct LangError {
    /// Human-readable message (lowercase, no trailing punctuation).
    pub message: String,
    /// Source location of the problem.
    pub span: Span,
}

impl LangError {
    /// Creates an error at `span`.
    pub fn new(message: impl Into<String>, span: Span) -> LangError {
        LangError {
            message: message.into(),
            span,
        }
    }

    /// Renders the error with line/column and the offending source line.
    ///
    /// # Examples
    ///
    /// ```
    /// use mdes_lang::error::LangError;
    /// use mdes_lang::token::Span;
    ///
    /// let src = "resource M;\nresourc X;";
    /// let err = LangError::new("unknown keyword `resourc`", Span::new(12, 19));
    /// let rendered = err.render(src);
    /// assert!(rendered.contains("line 2"));
    /// assert!(rendered.contains("resourc X;"));
    /// ```
    pub fn render(&self, source: &str) -> String {
        let (line, col) = self.span.line_col(source);
        let text = source.lines().nth(line - 1).unwrap_or("");
        let caret_pad = " ".repeat(col.saturating_sub(1));
        // Columns count characters, so the caret does too: a multi-byte
        // character gets one caret, not one per byte.
        let span_len = source
            .get(self.span.start..self.span.end)
            .map_or(self.span.end.saturating_sub(self.span.start), |spanned| {
                spanned.chars().count()
            });
        let rest_of_line = text.chars().count().saturating_sub(col - 1);
        let carets = "^".repeat(span_len.min(rest_of_line).max(1));
        format!(
            "error: {} (line {line}, column {col})\n  | {text}\n  | {caret_pad}{carets}",
            self.message
        )
    }
}

impl fmt::Display for LangError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} at bytes {}..{}",
            self.message, self.span.start, self.span.end
        )
    }
}

impl std::error::Error for LangError {}

impl From<mdes_core::MdesError> for LangError {
    fn from(err: mdes_core::MdesError) -> LangError {
        LangError::new(err.to_string(), Span::default())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn render_points_at_offending_text() {
        let src = "let x = ;";
        let err = LangError::new("expected expression", Span::new(8, 9));
        let out = err.render(src);
        assert!(out.contains("expected expression"));
        assert!(out.contains("line 1, column 9"));
        assert!(out.contains("let x = ;"));
    }

    #[test]
    fn render_survives_span_past_eof() {
        let err = LangError::new("unexpected end of input", Span::new(100, 101));
        let out = err.render("short");
        assert!(out.contains("unexpected end of input"));
    }

    #[test]
    fn core_errors_convert() {
        let core = mdes_core::MdesError::NoClasses;
        let lang: LangError = core.into();
        assert!(lang.message.contains("no operation classes"));
    }
}
