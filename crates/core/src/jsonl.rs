//! The one JSON codec of the repository's persisted records: a reader,
//! an escaper ([`escape`]) and a float renderer (`number`).
//!
//! The run journal (`dabench-journal-v1`, see [`crate::supervise`]) and
//! the serve protocol (`dabench-serve-v1`, see [`crate::serve`]) are one
//! flat JSON object of strings per line: [`write_object`] renders it,
//! [`write_line`] sends it with its newline, and [`parse_object`], the
//! reader's flat view, reads it. The hand-written
//! bench report reads back through the reader itself, `parse`, which takes
//! exactly the JSON these writers emit, in code small enough to audit.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::io;

/// Escape `s` for embedding inside a JSON string literal.
#[must_use]
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    escape_into(&mut out, s);
    out
}

/// Append [`escape`]`(s)` to `out`. The runs between the bytes it
/// rewrites are copied whole; every such byte is ASCII, so each run ends
/// on a character boundary.
fn escape_into(out: &mut String, s: &str) {
    let mut run = 0;
    for (i, b) in s.bytes().enumerate() {
        if b >= 0x20 && b != b'"' && b != b'\\' {
            continue;
        }
        out.push_str(&s[run..i]);
        match b {
            b'"' => out.push_str("\\\""),
            b'\\' => out.push_str("\\\\"),
            b'\n' => out.push_str("\\n"),
            b'\r' => out.push_str("\\r"),
            b'\t' => out.push_str("\\t"),
            _ => {
                let _ = write!(out, "\\u{b:04x}");
            }
        }
        run = i + 1;
    }
    out.push_str(&s[run..]);
}

/// Render `v` as a JSON number that round-trips through `f64::from_str`
/// (`{:?}` picks the shortest such decimal). JSON has no NaN or
/// infinity, so non-finite values clamp to `0.0`.
pub(crate) fn number(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "0.0".to_owned()
    }
}

/// Serialize `pairs` as one flat JSON object, keys in the given order.
///
/// The writer is the dual of [`parse_object`]: every value is a string,
/// escaped with [`escape`], and the result contains no newline — safe to
/// append to a JSONL stream as a single line. Keys and values are escaped
/// straight into the line.
#[must_use]
pub fn write_object(pairs: &[(&str, &str)]) -> String {
    let unescaped: usize = pairs.iter().map(|(k, v)| k.len() + v.len() + 6).sum();
    let mut out = String::with_capacity(unescaped + 2);
    out.push('{');
    for (i, (k, v)) in pairs.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push('"');
        escape_into(&mut out, k);
        out.push_str("\":\"");
        escape_into(&mut out, v);
        out.push('"');
    }
    out.push('}');
    out
}

/// Whether `line` is exactly the text [`write_object`] renders for
/// `pairs`. The comparison runs in place, plain runs as slices, without
/// building the escaped text.
#[must_use]
pub fn is_written_object(line: &[u8], pairs: &[(&str, &str)]) -> bool {
    fn strip_object<'a>(line: &'a [u8], pairs: &[(&str, &str)]) -> Option<&'a [u8]> {
        let mut rest = line.strip_prefix(b"{")?;
        for (i, (k, v)) in pairs.iter().enumerate() {
            if i > 0 {
                rest = rest.strip_prefix(b",")?;
            }
            rest = strip_escaped(rest.strip_prefix(b"\"")?, k)?.strip_prefix(b"\":\"")?;
            rest = strip_escaped(rest, v)?.strip_prefix(b"\"")?;
        }
        rest.strip_prefix(b"}")
    }
    strip_object(line, pairs).is_some_and(<[u8]>::is_empty)
}

/// What follows [`escape`]`(s)` in `text`, if `text` starts with it.
fn strip_escaped<'a>(mut text: &'a [u8], s: &str) -> Option<&'a [u8]> {
    let s = s.as_bytes();
    let mut run = 0;
    for (i, &b) in s.iter().enumerate() {
        // Every byte `escape` rewrites is ASCII, so a multi-byte
        // character is copied whole as part of a run.
        let mut unicode = *b"\\u0000";
        let escaped: &[u8] = match b {
            b'"' => b"\\\"",
            b'\\' => b"\\\\",
            b'\n' => b"\\n",
            b'\r' => b"\\r",
            b'\t' => b"\\t",
            0..=0x1f => {
                unicode[4] = b'0' + (b >> 4);
                unicode[5] = b"0123456789abcdef"[usize::from(b & 0xf)];
                &unicode
            }
            _ => continue,
        };
        text = text.strip_prefix(&s[run..i])?.strip_prefix(escaped)?;
        run = i + 1;
    }
    text.strip_prefix(&s[run..])
}

/// Write `line` and its `\n` to `out` as one buffer, in one `write_all`.
///
/// A journal record, its header and a serve reply each go out this way.
/// Written separately, the newline is a second `write(2)`: a kill
/// between the two leaves a whole journal record without its newline,
/// which resume drops as a torn tail, and on a socket Nagle's algorithm
/// holds the lone newline until the peer's delayed ACK.
///
/// # Errors
///
/// Propagates the writer's error.
pub fn write_line(out: &mut impl io::Write, mut line: String) -> io::Result<()> {
    line.push('\n');
    out.write_all(line.as_bytes())
}

/// Parse one line as a flat JSON object with string values only.
///
/// Returns `None` on any deviation — the caller decides whether that
/// means a truncated tail (journal), corruption, or a malformed request
/// (serve). Duplicate keys keep the last occurrence. Pairs are separated
/// by exactly one `,`, so a record whose separator was flipped into
/// whitespace reads as malformed, never as a valid object.
#[must_use]
pub fn parse_object(line: &str) -> Option<BTreeMap<String, String>> {
    let Ok(Value::Object(pairs)) = parse(line) else {
        return None;
    };
    let mut fields = BTreeMap::new();
    for (key, value) in pairs {
        let Value::String(value) = value else {
            return None;
        };
        fields.insert(key, value);
    }
    Some(fields)
}

/// A JSON value as [`parse`] reads it. A number keeps its source text, so
/// the caller parses it as the type it expects: a `u64` exactly, an `f64`
/// through `str::parse`. An object keeps its pairs in order, repeats too.
#[derive(Debug, PartialEq, Eq)]
pub(crate) enum Value {
    String(String),
    Number(String),
    Bool(bool),
    Array(Vec<Value>),
    Object(Vec<(String, Value)>),
}

/// Parse `text` as exactly one JSON value: objects, arrays, strings,
/// numbers (a run of digits, signs, `.`, `e` and `E` from a `-` or a
/// digit), `true` and `false`, with exactly one `,` between items and
/// pairs and `char::is_whitespace` around tokens. An error names the
/// byte offset of the first deviation.
pub(crate) fn parse(text: &str) -> Result<Value, String> {
    let mut rest = text;
    let value = read_value(&mut rest, 0).and_then(|value| {
        rest = rest.trim_start();
        rest.is_empty().then_some(value).ok_or("trailing bytes")
    });
    value.map_err(|what| format!("byte {}: {what}", text.len() - rest.len()))
}

/// A reader step: it advances `rest` (by whole chars) past what it read
/// and returns it, or stops `rest` at a deviation and names it.
type Read<T> = Result<T, &'static str>;

/// How deep arrays and objects may nest: the bench report nests four
/// deep, and the cap bounds the reader's recursion on hostile input.
const MAX_DEPTH: u8 = 16;

/// Skip whitespace, then consume `byte` if it comes next.
fn eat(rest: &mut &str, byte: u8) -> bool {
    *rest = rest.trim_start();
    let next = rest.as_bytes().first() == Some(&byte);
    *rest = &rest[usize::from(next)..];
    next
}

fn read_value(rest: &mut &str, depth: u8) -> Read<Value> {
    *rest = rest.trim_start();
    let s = *rest;
    match s.as_bytes().first() {
        Some(b'"') => read_string(rest).map(Value::String),
        Some(b'[' | b'{') if depth == MAX_DEPTH => Err("arrays and objects nest too deep"),
        Some(b'[') => read_items(rest, depth, read_value).map(Value::Array),
        Some(b'{') => read_items(rest, depth, read_pair).map(Value::Object),
        Some(b'-' | b'0'..=b'9') => {
            *rest = s.trim_start_matches(|c: char| c.is_ascii_digit() || "+-.eE".contains(c));
            Ok(Value::Number(s[..s.len() - rest.len()].to_owned()))
        }
        _ => {
            let word = ["true", "false"].into_iter().find(|w| s.starts_with(w));
            let word = word.ok_or("expected a value")?;
            *rest = &s[word.len()..];
            Ok(Value::Bool(word == "true"))
        }
    }
}

fn read_pair(rest: &mut &str, depth: u8) -> Read<(String, Value)> {
    let key = read_string(rest)?;
    if !eat(rest, b':') {
        return Err("expected `:`");
    }
    Ok((key, read_value(rest, depth)?))
}

/// The items of an array or object `depth` deep, from its opening bracket
/// through the closing one (two past it in ASCII): exactly one `,`
/// between items and none after the last.
fn read_items<T>(rest: &mut &str, depth: u8, item: fn(&mut &str, u8) -> Read<T>) -> Read<Vec<T>> {
    let close = rest.as_bytes()[0] + 2;
    *rest = &rest[1..];
    let mut items = Vec::new();
    if eat(rest, close) {
        return Ok(items);
    }
    loop {
        items.push(item(rest, depth + 1)?);
        if eat(rest, close) {
            return Ok(items);
        }
        if !eat(rest, b',') {
            return Err("expected `,` or a closing bracket");
        }
    }
}

/// A string literal, escapes decoded: the ones [`escape`] emits plus the
/// standard short ones. Text between escapes is copied a run at a time;
/// `"` and `\` are ASCII, so every run ends on a char boundary.
fn read_string(rest: &mut &str) -> Read<String> {
    if !eat(rest, b'"') {
        return Err("expected a string");
    }
    let mut out = String::new();
    loop {
        let run = rest.bytes().position(|b| b == b'"' || b == b'\\');
        let run = run.ok_or("unterminated string")?;
        out.push_str(&rest[..run]);
        let (closed, escape) = (rest.as_bytes()[run] == b'"', &rest[run + 1..]);
        *rest = escape;
        if closed {
            return Ok(out);
        }
        let (c, len) = match escape.as_bytes().first() {
            Some(b'u') => {
                let code = u32::from_str_radix(escape.get(1..5).unwrap_or_default(), 16);
                (code.ok().and_then(char::from_u32), 5)
            }
            Some(b'"') => (Some('"'), 1),
            Some(b'\\') => (Some('\\'), 1),
            Some(b'/') => (Some('/'), 1),
            Some(b'n') => (Some('\n'), 1),
            Some(b'r') => (Some('\r'), 1),
            Some(b't') => (Some('\t'), 1),
            _ => (None, 0),
        };
        out.push(c.ok_or("bad escape")?);
        *rest = &escape[len..];
    }
}

/// A truncated hex dump of `text`'s leading bytes, for diagnostics on
/// records that failed to parse: `"67 61 72 62 …"` (at most `max_bytes`
/// bytes shown, an ellipsis marking the cut).
#[must_use]
pub fn hex_snippet(text: &str, max_bytes: usize) -> String {
    let bytes = text.as_bytes();
    let shown = &bytes[..bytes.len().min(max_bytes)];
    let mut out = String::with_capacity(shown.len() * 3 + 2);
    for (i, b) in shown.iter().enumerate() {
        if i > 0 {
            out.push(' ');
        }
        let _ = write!(out, "{b:02x}");
    }
    if bytes.len() > max_bytes {
        out.push_str(" …");
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn write_line_makes_one_write_call_carrying_the_newline() {
        /// Records the buffer of every `write` call it receives.
        #[derive(Default)]
        struct Counting(Vec<Vec<u8>>);
        impl io::Write for Counting {
            fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
                self.0.push(buf.to_vec());
                Ok(buf.len())
            }
            fn flush(&mut self) -> io::Result<()> {
                Ok(())
            }
        }
        let line = write_object(&[("status", "ok"), ("data", "a\nb")]);
        let mut out = Counting::default();
        write_line(&mut out, line.clone()).expect("counting writer never fails");
        assert_eq!(out.0, vec![format!("{line}\n").into_bytes()]);
    }

    #[test]
    fn write_then_parse_is_identity() {
        let pairs = [
            ("op", "submit"),
            ("job", "fig9"),
            ("data", "line1\nline2\t\"quoted\" \\ back\u{1}slash é"),
        ];
        let line = write_object(&pairs);
        assert!(!line.contains('\n'), "single line: {line:?}");
        let parsed = parse_object(&line).expect("round-trips");
        for (k, v) in pairs {
            assert_eq!(parsed.get(k).map(String::as_str), Some(v), "key {k}");
        }
    }

    #[test]
    fn run_wise_escape_writes_the_char_by_char_bytes() {
        /// The escaper as it was, one `char` at a time: the reference.
        fn reference(s: &str) -> String {
            let mut out = String::new();
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
            out
        }
        let controls: String = (0_u8..0x20).map(char::from).collect();
        assert_eq!(escape(&controls), reference(&controls));
        let mut rng = crate::SplitMix64::new(28);
        for case in 0..500 {
            let text = |rng: &mut crate::SplitMix64| -> String {
                (0..rng.below(64))
                    .map(|_| match rng.below(5) {
                        0 => char::from(rng.below(0x20) as u8),
                        1 => ['"', '\\', '\u{7f}', 'é', '€', '😀'][rng.below(6) as usize],
                        2 => char::from_u32(rng.below(0x11_0000) as u32).unwrap_or('?'),
                        _ => char::from(0x20 + rng.below(0x5f) as u8),
                    })
                    .collect()
            };
            let (key, value) = (text(&mut rng), text(&mut rng));
            assert_eq!(escape(&value), reference(&value), "case {case}");
            let pairs = [(key.as_str(), value.as_str()), ("k", "")];
            let expected = format!(
                "{{\"{}\":\"{}\",\"k\":\"\"}}",
                reference(&key),
                reference(&value)
            );
            assert_eq!(write_object(&pairs), expected, "case {case}");
        }
    }

    #[test]
    fn is_written_object_holds_for_exactly_the_written_bytes() {
        // Every ASCII byte, the escapes, and multi-byte characters next
        // to them: the written line matches, and so does no other line
        // obtained from it by cutting it short or changing one byte.
        let ascii: String = (0_u8..0x80).map(char::from).collect();
        let mut rng = crate::SplitMix64::new(7);
        for case in 0..40 {
            let value: String = (0..rng.below(24))
                .map(|_| match rng.below(4) {
                    0 => char::from(rng.below(0x20) as u8),
                    1 => ['"', '\\', 'é', '€', '😀'][rng.below(5) as usize],
                    _ => char::from(b'a' + rng.below(26) as u8),
                })
                .collect();
            let pairs = [
                ("label", "p"),
                ("data", ascii.as_str()),
                ("x", value.as_str()),
            ];
            let line = write_object(&pairs).into_bytes();
            assert!(is_written_object(&line, &pairs), "case {case}");
            for cut in 0..line.len() {
                assert!(
                    !is_written_object(&line[..cut], &pairs),
                    "case {case} cut {cut}"
                );
            }
            for at in 0..line.len() {
                let mut changed = line.clone();
                changed[at] ^= 1 << (case % 8);
                assert!(
                    !is_written_object(&changed, &pairs),
                    "case {case} byte {at}"
                );
            }
        }
        assert!(!is_written_object(
            b"{\"a\":\"b\"}",
            &[("a", "b"), ("c", "d")]
        ));
        assert!(
            !is_written_object(b"{\"a\": \"b\"}", &[("a", "b")]),
            "whitespace"
        );
        assert!(
            !is_written_object(b"{\"a\":\"\\u0062\"}", &[("a", "b")]),
            "needless escape"
        );
    }

    #[test]
    fn rejects_non_objects_and_trailing_garbage() {
        assert_eq!(parse_object(""), None);
        assert_eq!(parse_object("garbage"), None);
        assert_eq!(parse_object("[1,2]"), None);
        assert_eq!(parse_object("{\"a\":\"b\"} extra"), None);
        assert_eq!(parse_object("{\"a\":1}"), None, "non-string value");
        assert_eq!(parse_object("{\"a\":\"b"), None, "unterminated string");
        assert_eq!(
            parse_object("{\"a\":\"b\"\"c\":\"d\"}"),
            None,
            "missing comma"
        );
        assert_eq!(parse_object("{,\"a\":\"b\"}"), None, "leading comma");
        assert_eq!(
            parse_object("{\"a\":\"b\",,\"c\":\"d\",}"),
            None,
            "doubled and trailing commas"
        );
    }

    #[test]
    fn empty_object_parses() {
        assert_eq!(parse_object("{}"), Some(BTreeMap::new()));
        assert_eq!(write_object(&[]), "{}");
    }

    #[test]
    fn reader_keeps_number_text_and_nests() {
        let text = " [18446744073709551615, -0.0, 1e-300, true, false, {\"k\": []}] ";
        let num = |s: &str| Value::Number(s.to_owned());
        let object = Value::Object(vec![("k".to_owned(), Value::Array(Vec::new()))]);
        assert_eq!(
            parse(text),
            Ok(Value::Array(vec![
                num("18446744073709551615"),
                num("-0.0"),
                num("1e-300"),
                Value::Bool(true),
                Value::Bool(false),
                object,
            ]))
        );
    }

    #[test]
    fn reader_errors_name_the_byte_offset() {
        for (text, err) in [
            ("{\"a\" \"b\"}", "byte 5: expected `:`"),
            ("[1 2]", "byte 3: expected `,` or a closing bracket"),
            ("[1] x", "byte 4: trailing bytes"),
            ("\"a\\qb\"", "byte 3: bad escape"),
            ("\"\\u00e\"", "byte 2: bad escape"),
            ("\"abc", "byte 1: unterminated string"),
            ("nul", "byte 0: expected a value"),
            ("[true,]", "byte 6: expected a value"),
        ] {
            assert_eq!(parse(text), Err(err.to_owned()), "{text:?}");
        }
    }

    #[test]
    fn deep_nesting_is_an_error_not_a_stack_overflow() {
        let nested = |depth: usize| format!("{}{}", "[".repeat(depth), "]".repeat(depth));
        assert!(parse(&nested(usize::from(MAX_DEPTH))).is_ok());
        let err = parse(&nested(usize::from(MAX_DEPTH) + 1)).unwrap_err();
        assert!(err.contains("nest too deep"), "{err}");
        let hostile = format!("{{\"a\":{}", "[".repeat(1_000_000));
        assert_eq!(parse_object(&hostile), None);
    }

    #[test]
    fn hex_snippet_truncates_and_marks_the_cut() {
        assert_eq!(hex_snippet("garb", 8), "67 61 72 62");
        assert_eq!(hex_snippet("garbage!", 4), "67 61 72 62 …");
        assert_eq!(hex_snippet("", 4), "");
    }
}
