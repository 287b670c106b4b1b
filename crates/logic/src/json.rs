//! JSON string escaping shared by every emitter in the workspace (reports,
//! diagnostics, server responses, bench output), so all of them quote
//! strings byte-for-byte alike.

/// Escape `s` as the contents of a JSON string literal (no quotes).
pub fn escape_into(out: &mut String, s: &str) {
    use std::fmt::Write as _;
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
}

/// `s` as a complete JSON string literal, quotes included.
pub fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    escape_into(&mut out, s);
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn escapes_quotes_backslashes_and_controls() {
        assert_eq!(json_str("a\"b\\c\nd"), "\"a\\\"b\\\\c\\nd\"");
        assert_eq!(json_str("\u{1}\r\t"), "\"\\u0001\\r\\t\"");
        assert_eq!(json_str("θ"), "\"θ\"");
    }
}
